"""repro.engine — parallel, cached, fault-tolerant scenario execution.

The paper's campaign is embarrassingly parallel (thousands of
Speedtest sessions, walking traces per setting, ABR trace replays);
this subsystem runs any registered experiment runner as a seeded job
sweep: serial or across a process pool, with per-job timeouts, bounded
retry of transient failures, structured failure records, an on-disk
result cache, and progress hooks. See ``docs/engine.md``.

Typical use::

    from repro import engine

    jobs = engine.SweepSpec(
        runners=["fig2", "fig9"], base_seed=7, scale=0.5
    ).expand()
    result = engine.execute(jobs, workers=4,
                            cache=engine.ResultCache(".repro-cache"))
    result.raise_if_failed()
"""

from repro.engine.errors import (
    EngineError,
    JobTimeoutError,
    TransientJobError,
    UnknownRunnerError,
    WorkerCrashError,
)
from repro.engine.spec import JobSpec, SweepSpec, artifact_jobs, spawn_seeds
from repro.engine.cache import (
    ResultCache,
    clear_code_version_memo,
    default_code_version,
)
from repro.engine.progress import ProgressSnapshot, ProgressTracker
from repro.engine.pool import (
    JobFailure,
    JobOutcome,
    SweepResult,
    execute,
    execute_one,
    iter_values,
)
from repro.engine import registry

__all__ = [
    "EngineError",
    "JobFailure",
    "JobOutcome",
    "JobSpec",
    "JobTimeoutError",
    "ProgressSnapshot",
    "ProgressTracker",
    "ResultCache",
    "SweepResult",
    "SweepSpec",
    "TransientJobError",
    "UnknownRunnerError",
    "WorkerCrashError",
    "artifact_jobs",
    "clear_code_version_memo",
    "default_code_version",
    "execute",
    "execute_one",
    "iter_values",
    "registry",
    "spawn_seeds",
]
