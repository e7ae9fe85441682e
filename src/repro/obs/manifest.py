"""Run manifests: the provenance record behind every exported artifact.

A manifest ties one sweep's outputs back to exactly what produced
them: the full job specs (runner, kwargs, seed, scale), the code
version the cache keyed on, worker count, per-job attempts/durations,
structured failure records, and the sweep's metrics block. The CLI
writes one next to every ``--json`` export and into the cache
directory, so any regenerated figure or table is auditable months
later.

Manifests also *replay*: :func:`specs_from_manifest` rebuilds the job
list, and re-executing it against the same cache under the recorded
``code_version`` is all hits — the acceptance check that a manifest
really pins its artifact (see tests/obs/test_manifest.py).

This module deliberately imports only ``repro.engine.spec`` /
``repro.engine.cache`` (never ``repro.engine.pool``, which imports
``repro.obs`` back); the sweep result is consumed duck-typed.
"""

from __future__ import annotations

import json
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.engine.cache import default_code_version
from repro.engine.spec import JobSpec
from repro.experiments.export import to_jsonable

PathLike = Union[str, Path]

MANIFEST_VERSION = 1


def _job_record(outcome: Any) -> Dict[str, Any]:
    spec = outcome.spec
    record: Dict[str, Any] = {
        "index": spec.index,
        "runner": spec.runner,
        "label": spec.display,
        "kwargs": to_jsonable(dict(spec.kwargs)),
        "seed": spec.seed,
        "scale": spec.scale,
        "status": outcome.status,
        "attempts": outcome.attempts,
        "duration_s": round(float(outcome.duration_s), 6),
    }
    if outcome.failure is not None:
        failure = outcome.failure
        record["failure"] = {
            "error": failure.error,
            "error_type": failure.error_type,
            "attempts": failure.attempts,
            "transient": failure.transient,
        }
        if failure.traceback:
            record["failure"]["traceback"] = failure.traceback
    return record


def build_manifest(
    result: Any,
    *,
    code_version: Optional[str] = None,
    base_seed: Optional[int] = None,
    scale: Optional[float] = None,
    argv: Optional[List[str]] = None,
    cache_dir: Optional[PathLike] = None,
    events_path: Optional[PathLike] = None,
) -> Dict[str, Any]:
    """Assemble the manifest dict for one ``SweepResult``.

    ``code_version`` defaults to the result's recorded version (set
    whenever a cache was attached) and falls back to hashing the
    installed sources, so a manifest always pins *some* code identity.
    """
    version = (
        code_version
        or getattr(result, "code_version", None)
        or default_code_version()
    )
    return {
        "manifest_version": MANIFEST_VERSION,
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "code_version": version,
        "argv": list(argv) if argv is not None else None,
        "base_seed": base_seed,
        "scale": scale,
        "workers": result.workers,
        "elapsed_s": round(float(result.elapsed_s), 6),
        "partial": bool(getattr(result, "partial", False)),
        "counts": result.counts,
        "cache_dir": str(cache_dir) if cache_dir is not None else None,
        "events_path": str(events_path) if events_path is not None else None,
        "stats": getattr(result, "stats", {}) or {},
        "jobs": [_job_record(outcome) for outcome in result.outcomes],
    }


def write_manifest(manifest: Dict[str, Any], path: PathLike) -> Path:
    """Atomically write a manifest as strict, indented JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-manifest-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(manifest, handle, indent=1, allow_nan=False)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_manifest(path: PathLike) -> Dict[str, Any]:
    with Path(path).open() as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict) or "jobs" not in manifest:
        raise ValueError(f"{path} is not a run manifest")
    return manifest


def manifest_path_for(export_path: PathLike) -> Path:
    """Default sibling for an export: ``out.json`` → ``out.manifest.json``."""
    export_path = Path(export_path)
    if export_path.suffix == ".json":
        return export_path.with_suffix(".manifest.json")
    return export_path.with_name(export_path.name + ".manifest.json")


def specs_from_manifest(manifest: Dict[str, Any]) -> List[JobSpec]:
    """Rebuild the job list a manifest records, in job-index order.

    Executing these against the manifest's ``cache_dir`` with
    ``code_version=manifest["code_version"]`` replays the sweep as
    cache hits (kwargs must be JSON-representable, which everything
    the CLI dispatches is).

    Manifests from older versions may name a compute ``backend`` per
    job. Kernels run in float64, which is what ``"numpy64"`` named; a
    job that names any other backend raises ``ValueError``, since no
    spec can reproduce it.
    """
    specs = []
    for job in sorted(manifest["jobs"], key=lambda j: j["index"]):
        backend = job.get("backend")
        if backend not in (None, "numpy64"):
            raise ValueError(
                f"manifest job {job['index']} ({job['label']}) ran on the "
                f"{backend!r} compute backend, which no longer exists; "
                "only float64 (numpy64) runs can be replayed"
            )
        specs.append(
            JobSpec(
                runner=job["runner"],
                kwargs=job["kwargs"] or {},
                seed=job["seed"],
                scale=job["scale"],
                index=job["index"],
                label=job["label"],
            )
        )
    return specs
