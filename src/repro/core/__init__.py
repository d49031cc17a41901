"""CHAOS core runtime: the paper's primary contribution.

Inspector/executor runtime support for adaptive irregular problems:
translation tables, stamped index-analysis hash tables, communication
schedules (regular, merged, incremental, light-weight), data
transportation primitives, remapping, and iteration partitioning.
"""

from repro.core.context import ExecutionContext
from repro.core.distribution import (
    BlockDistribution,
    CyclicDistribution,
    Distribution,
    IrregularDistribution,
)
from repro.core.translation import TranslationTable
from repro.core.hashtable import (
    DictKeyStore,
    DirectKeyStore,
    HashTableGroup,
    StampExpr,
    StampRegistry,
)
from repro.core.schedule import (
    Schedule,
    build_schedule,
    delta_rebuild_schedule,
)
from repro.core.lightweight import (
    LightweightSchedule,
    append_phase,
    build_lightweight_schedule,
    scatter_append,
    scatter_append_multi,
)
from repro.core.inspector import (
    DeltaRehash,
    chaos_hash,
    clear_stamp,
    localize_only,
    make_hash_tables,
    rehash_delta,
)
from repro.core.executor import (
    PipelinePhase,
    allocate_ghosts,
    gather,
    gather_phase,
    run_pipeline,
    run_reduction,
    scatter,
    scatter_op,
    scatter_op_phase,
    scatter_phase,
    stack_local_ghost,
)
from repro.core.remap import (
    RemapPlan,
    remap,
    remap_array,
    remap_global_values,
    remap_phase,
)
from repro.core.backends import (
    Backend,
    SerialBackend,
    VectorizedBackend,
    available_backends,
    default_backend,
    get_backend,
    resolve_backend,
)
from repro.core.compiled import (
    CommPlan,
    RankArena,
    as_arena,
)
from repro.core.iteration import (
    IterationAssignment,
    partition_iterations,
    split_by_block,
)
from repro.core.reuse import (
    CacheStats,
    DeltaFallback,
    ModificationRecord,
    ScheduleCache,
    value_nbytes,
)
from repro.core.api import ChaosRuntime, DistributedArray, IrregularReduction

__all__ = [
    "ExecutionContext",
    "BlockDistribution",
    "CyclicDistribution",
    "Distribution",
    "IrregularDistribution",
    "TranslationTable",
    "DictKeyStore",
    "DirectKeyStore",
    "HashTableGroup",
    "StampExpr",
    "StampRegistry",
    "Schedule",
    "build_schedule",
    "LightweightSchedule",
    "append_phase",
    "build_lightweight_schedule",
    "scatter_append",
    "scatter_append_multi",
    "DeltaRehash",
    "chaos_hash",
    "clear_stamp",
    "delta_rebuild_schedule",
    "localize_only",
    "make_hash_tables",
    "rehash_delta",
    "PipelinePhase",
    "allocate_ghosts",
    "gather",
    "gather_phase",
    "run_pipeline",
    "run_reduction",
    "scatter",
    "scatter_op",
    "scatter_op_phase",
    "scatter_phase",
    "stack_local_ghost",
    "RemapPlan",
    "remap",
    "remap_array",
    "remap_global_values",
    "remap_phase",
    "Backend",
    "SerialBackend",
    "VectorizedBackend",
    "available_backends",
    "default_backend",
    "get_backend",
    "resolve_backend",
    "CommPlan",
    "RankArena",
    "as_arena",
    "IterationAssignment",
    "partition_iterations",
    "split_by_block",
    "CacheStats",
    "DeltaFallback",
    "ModificationRecord",
    "ScheduleCache",
    "value_nbytes",
    "ChaosRuntime",
    "DistributedArray",
    "IrregularReduction",
]
