"""repro — reproduction of "Intra-Application Cache Partitioning" (IPDPS 2010).

A trace-driven chip-multiprocessor simulator plus the paper's dynamic,
runtime-system-based scheme for partitioning a shared L2 cache among the
threads of a single multithreaded application, speeding up the
critical-path thread at each execution interval.

Quick start::

    from repro import SystemConfig, run_application

    config = SystemConfig.default()
    dynamic = run_application("swim", "model-based", config)
    shared = run_application("swim", "shared", config)
    print(f"speedup over shared cache: {dynamic.speedup_over(shared):+.1%}")

Public surface:

* :func:`repro.run_application` / :class:`repro.SystemConfig` — run the simulator.
* :mod:`repro.partition` — all partitioning policies (``POLICY_REGISTRY``).
* :mod:`repro.trace` — the nine synthetic workload profiles (``WORKLOADS``).
* :mod:`repro.experiments` — one runner per paper figure/table.
* :mod:`repro.exec` — parallel execution engines and the persistent,
  content-addressed result store (``--jobs`` / ``--cache-dir``).
* :mod:`repro.dist` — distributed sweeps: ``repro worker`` processes
  and :class:`~repro.dist.engine.RemoteEngine` (``--engine remote
  --workers host:port,...``; DESIGN.md §G).
"""

# Defined before any subpackage import: repro.exec and repro.prep read it
# during package initialisation (both stores namespace entries by version).
__version__ = "1.9.0"

from repro.cache import (
    CacheGeometry,
    FastPartitionedSharedCache,
    PartitionedSharedCache,
    PrivateCache,
    make_shared_cache,
)
from repro.core import IntervalObservation, RunResult, RuntimeSystem, ThreadModelBank
from repro.cpu import CMPEngine, TimingModel, compile_program
from repro.exec import (
    ExecutionEngine,
    JobOutcome,
    JobSpec,
    ProcessPoolEngine,
    ResultStore,
    SerialEngine,
    run_sweep,
)
from repro.partition import (
    POLICY_REGISTRY,
    CPIProportionalPolicy,
    FairnessOrientedPolicy,
    ModelBasedPolicy,
    PartitioningPolicy,
    SharedCachePolicy,
    StaticEqualPolicy,
    StaticPolicy,
    ThroughputOrientedPolicy,
)
from repro.prep import PrepStore, configure_prep, get_prep_store, set_prep_store
from repro.sim import SystemConfig, prepare_program, run_application
from repro.trace import WORKLOADS, ThreadBehavior, WorkloadProfile, get_workload, list_workloads

__all__ = [
    "CMPEngine",
    "CPIProportionalPolicy",
    "CacheGeometry",
    "ExecutionEngine",
    "FairnessOrientedPolicy",
    "FastPartitionedSharedCache",
    "IntervalObservation",
    "JobOutcome",
    "JobSpec",
    "ModelBasedPolicy",
    "POLICY_REGISTRY",
    "PartitionedSharedCache",
    "PartitioningPolicy",
    "PrepStore",
    "PrivateCache",
    "ProcessPoolEngine",
    "ResultStore",
    "RunResult",
    "RuntimeSystem",
    "SerialEngine",
    "SharedCachePolicy",
    "StaticEqualPolicy",
    "StaticPolicy",
    "SystemConfig",
    "ThreadBehavior",
    "ThreadModelBank",
    "ThroughputOrientedPolicy",
    "TimingModel",
    "WORKLOADS",
    "WorkloadProfile",
    "__version__",
    "compile_program",
    "configure_prep",
    "get_prep_store",
    "get_workload",
    "list_workloads",
    "make_shared_cache",
    "prepare_program",
    "run_application",
    "run_sweep",
    "set_prep_store",
]
