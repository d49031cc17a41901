"""CHAOS reborn: run-time and compile-time support for adaptive irregular
problems (SC'94 reproduction).

Subpackages
-----------
``repro.sim``
    Simulated distributed-memory machine (the iPSC/860 stand-in).
``repro.core``
    The CHAOS runtime: inspector/executor, stamped hash tables,
    communication schedules, translation tables, remapping.
``repro.partitioners``
    RCB, RIB, chain and block/cyclic partitioners.
``repro.apps``
    The paper's evaluation applications: mini-CHARMM and DSMC.
``repro.lang``
    Mini Fortran D compiler (parser → analysis → CHAOS plans).
``repro.serve``
    Async multi-tenant program server (admission queue, per-tenant
    contexts, soft-failure isolation, graceful drain).
``repro.util``
    Counter-based PRNG and report formatting.
"""

__version__ = "1.0.0"
