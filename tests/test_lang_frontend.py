"""Unit tests: tokenizer, parser, analyzer of the mini Fortran D dialect."""

import pytest

from repro.lang import (
    AnalysisError,
    LexError,
    ParseError,
    analyze,
    parse_program,
    tokenize,
)
from repro.lang.ast_nodes import (
    AlignStmt,
    ArrayDecl,
    ArrayRef,
    BinOp,
    DecompositionStmt,
    DistributeStmt,
    Forall,
    Num,
    Reduce,
)


class TestTokenizer:
    def test_comment_lines_skipped(self):
        lines = tokenize("C a comment\n! another\n  x(1) = 2\n")
        assert len(lines) == 1

    def test_directive_lines_flagged(self):
        lines = tokenize("C$ DISTRIBUTE reg(BLOCK)\n      x(1) = 2")
        assert lines[0].is_directive
        assert not lines[1].is_directive

    def test_labels_stripped(self):
        lines = tokenize("L1:   FORALL i = 1, 5\n")
        assert lines[0].tokens[0].text.upper() == "FORALL"

    def test_inline_comment_stripped(self):
        lines = tokenize("x(1) = 2 ! trailing\n")
        texts = [t.text for t in lines[0].tokens if t.text]
        assert "trailing" not in texts

    def test_numbers_with_exponent(self):
        lines = tokenize("x(1) = 1.5e-3\n")
        nums = [t for t in lines[0].tokens if t.kind.name == "NUMBER"]
        assert any(n.text == "1.5e-3" for n in nums)

    def test_bad_character_raises(self):
        with pytest.raises(LexError):
            tokenize("x = @\n")

    def test_blank_lines_skipped(self):
        assert tokenize("\n\n   \n") == []


class TestParser:
    def test_declarations_multiple_names(self):
        prog = parse_program("REAL*8 x(10), y(10)\nINTEGER k(5)")
        decls = [s for s in prog.statements if isinstance(s, ArrayDecl)]
        assert [d.name for d in decls] == ["x", "y", "k"]
        assert decls[2].dtype == "integer"
        assert decls[0].shape == (10,)

    def test_decomposition_and_distribute(self):
        prog = parse_program(
            "C$ DECOMPOSITION reg(100), other(50)\nC$ DISTRIBUTE reg(BLOCK)\n"
            "C$ DISTRIBUTE other(CYCLIC)"
        )
        decomp = [s for s in prog.statements
                  if isinstance(s, DecompositionStmt)]
        assert [(d.name, d.size) for d in decomp] == [("reg", 100),
                                                      ("other", 50)]
        dists = [s for s in prog.statements if isinstance(s, DistributeStmt)]
        assert dists[0].scheme == "BLOCK"
        assert dists[1].scheme == "CYCLIC"

    def test_distribute_map(self):
        prog = parse_program("C$ DECOMPOSITION reg(4)\nC$ DISTRIBUTE reg(map)")
        d = [s for s in prog.statements if isinstance(s, DistributeStmt)][0]
        assert d.scheme == "MAP" and d.map_array == "map"

    def test_align_with_ragged_patterns(self):
        prog = parse_program(
            "C$ DECOMPOSITION c(4)\n"
            "C$ ALIGN icell(*,:), vel(*,:), size(:) WITH c"
        )
        a = [s for s in prog.statements if isinstance(s, AlignStmt)][0]
        assert a.arrays == ("icell", "vel", "size")
        assert a.ragged == (True, True, False)

    def test_forall_nesting(self):
        prog = parse_program(
            "FORALL i = 1, 10\n  FORALL j = 1, 5\n    x(j) = 1\n"
            "  END DO\nEND DO"
        )
        outer, = prog.statements
        assert outer.var == "i"
        inner = outer.body[0]
        assert isinstance(inner, Forall) and inner.var == "j"

    def test_reduce_statement(self):
        prog = parse_program(
            "FORALL i = 1, 4\n  REDUCE(SUM, x(ia(i)), y(ib(i)) * 2)\nEND DO"
        )
        red = prog.statements[0].body[0]
        assert isinstance(red, Reduce) and red.op == "SUM"
        assert isinstance(red.target, ArrayRef)
        assert isinstance(red.value, BinOp)

    def test_expression_precedence(self):
        prog = parse_program("x(1) = 1 + 2 * 3 ** 2")
        expr = prog.statements[0].value
        # 1 + (2 * (3 ** 2))
        assert expr.op == "+"
        assert expr.right.op == "*"
        assert expr.right.right.op == "**"

    def test_power_right_associative(self):
        prog = parse_program("x(1) = 2 ** 3 ** 2")
        expr = prog.statements[0].value
        assert expr.op == "**"
        assert isinstance(expr.left, Num)
        assert expr.right.op == "**"

    def test_unary_minus(self):
        prog = parse_program("x(1) = -y(1) + 2")
        assert prog.statements[0].value.op == "+"

    def test_unmatched_end_rejected(self):
        with pytest.raises(ParseError):
            parse_program("END DO")

    def test_forall_without_end_rejected(self):
        with pytest.raises(ParseError):
            parse_program("FORALL i = 1, 3\n x(i) = 1")

    def test_assignment_to_scalar_rejected(self):
        with pytest.raises(ParseError):
            parse_program("x = 1")

    def test_bad_reduce_op_rejected(self):
        with pytest.raises(ParseError):
            parse_program("FORALL i = 1, 2\n REDUCE(AVG, x(i), 1)\nEND DO")


class TestAnalyzer:
    def analyze_src(self, src):
        return analyze(parse_program(src))

    def test_symbols_built(self):
        a = self.analyze_src(
            "REAL x(10)\nC$ DECOMPOSITION reg(10)\nC$ ALIGN x WITH reg"
        )
        assert a.symbols.array("x").decomposition == "reg"
        assert a.symbols.decomp("reg").size == 10

    def test_implicit_arrays_from_align(self):
        a = self.analyze_src(
            "C$ DECOMPOSITION reg(10)\nC$ ALIGN ghost WITH reg"
        )
        assert a.symbols.array("ghost").shape == (10,)

    def test_csr_loop_detected(self):
        a = self.analyze_src(
            "REAL x(4)\nINTEGER inblo(5), jnb(9)\n"
            "C$ DECOMPOSITION reg(4)\nC$ DISTRIBUTE reg(BLOCK)\n"
            "C$ ALIGN x WITH reg\n"
            "FORALL i = 1, 4\n  FORALL j = inblo(i), inblo(i+1) - 1\n"
            "    REDUCE(SUM, x(jnb(j)), 1)\n  END DO\nEND DO"
        )
        nest = a.loops[0]
        assert nest.kind == "csr"
        assert nest.csr_offsets == "inblo"
        assert nest.indirections == ["jnb"]
        assert nest.decomposition == "reg"

    def test_flat_loop_detected(self):
        a = self.analyze_src(
            "REAL x(8)\nINTEGER ia(20)\n"
            "C$ DECOMPOSITION reg(8)\nC$ ALIGN x WITH reg\n"
            "FORALL i = 1, 20\n  REDUCE(SUM, x(ia(i)), 2)\nEND DO"
        )
        assert a.loops[0].kind == "flat"
        assert a.loops[0].indirections == ["ia"]

    def test_cell_append_detected(self):
        a = self.analyze_src(
            "C$ DECOMPOSITION c(4)\n"
            "C$ ALIGN icell(*,:), vel(*,:), size(:) WITH c\n"
            "FORALL j = 1, 4\n  FORALL i = 1, size(j)\n"
            "    REDUCE(APPEND, vel(i, icell(i,j)), vel(i,j))\n"
            "  END FORALL\nEND FORALL"
        )
        assert a.loops[0].kind == "cell_append"
        assert a.loops[0].indirections == ["icell"]

    def test_ragged_sum_detected(self):
        a = self.analyze_src(
            "C$ DECOMPOSITION c(4)\n"
            "C$ ALIGN icell(*,:), size(:), ns(:) WITH c\n"
            "FORALL j = 1, 4\n  FORALL i = 1, size(j)\n"
            "    REDUCE(SUM, ns(icell(i,j)), 1)\n  END FORALL\nEND FORALL"
        )
        assert a.loops[0].kind == "ragged"

    def test_local_assign_detected(self):
        a = self.analyze_src(
            "C$ DECOMPOSITION c(4)\nC$ ALIGN ns(:) WITH c\n"
            "FORALL j = 1, 4\n  ns(j) = 0\nEND FORALL"
        )
        assert a.loops[0].kind == "local_assign"

    def test_undeclared_array_rejected(self):
        with pytest.raises(AnalysisError):
            self.analyze_src(
                "C$ DECOMPOSITION r(4)\nC$ ALIGN x WITH r\n"
                "FORALL i = 1, 4\n  REDUCE(SUM, x(i), mystery(i))\nEND DO"
            )

    def test_mixed_decompositions_rejected(self):
        with pytest.raises(AnalysisError):
            self.analyze_src(
                "C$ DECOMPOSITION a(4), b(4)\n"
                "C$ ALIGN x WITH a\nC$ ALIGN y WITH b\n"
                "FORALL i = 1, 4\n  REDUCE(SUM, x(i), y(i))\nEND DO"
            )

    def test_three_level_nest_rejected(self):
        with pytest.raises(AnalysisError):
            self.analyze_src(
                "C$ DECOMPOSITION r(4)\nC$ ALIGN x WITH r\n"
                "FORALL i = 1, 4\n FORALL j = 1, 4\n FORALL k = 1, 4\n"
                "  REDUCE(SUM, x(i), 1)\n END DO\n END DO\nEND DO"
            )

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(AnalysisError):
            self.analyze_src("REAL x(4)\nREAL x(4)")

    def test_unknown_decomposition_rejected(self):
        with pytest.raises(AnalysisError):
            self.analyze_src("C$ ALIGN x WITH nowhere")
