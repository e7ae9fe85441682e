"""Declarative job and sweep specifications.

A :class:`JobSpec` names a registered runner plus the kwargs/seed/scale
it should be called with; a :class:`SweepSpec` expands a (runners ×
parameter grid × repetitions) cartesian product into a job list.

Seeding contract: per-job seeds are derived **at expansion time** from
one base seed via :class:`numpy.random.SeedSequence` spawning
(:func:`spawn_seeds`), so a sweep's seeds depend only on the spec — not
on worker count or completion order. Serial and parallel executions of
the same spec therefore produce bit-identical results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np


def spawn_seeds(base_seed: Optional[int], n: int) -> List[Optional[int]]:
    """Derive ``n`` independent child seeds from ``base_seed``.

    ``None`` propagates (each runner keeps its built-in default seed);
    otherwise children come from ``SeedSequence(base_seed).spawn(n)`` so
    they are statistically independent and reproducible.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if base_seed is None:
        return [None] * n
    children = np.random.SeedSequence(int(base_seed)).spawn(n)
    return [int(child.generate_state(1, dtype=np.uint32)[0]) for child in children]


def artifact_jobs(
    artifacts: Sequence[str],
    base_seed: Optional[int] = None,
    scale: Optional[float] = None,
) -> List["JobSpec"]:
    """The canonical job list for a plain artifact sweep.

    Both transports that accept "run these artifacts with this seed and
    scale" — the ``sweep`` CLI and the ``repro.serve`` HTTP API — build
    their specs here, so the same submission produces bit-identical
    jobs (same per-artifact seeds, same indices, same labels) no matter
    how it arrived.
    """
    seeds = spawn_seeds(base_seed, len(artifacts))
    return [
        JobSpec(
            runner=name,
            seed=seed,
            scale=scale,
            index=i,
            label=name,
        )
        for i, (name, seed) in enumerate(zip(artifacts, seeds))
    ]


@dataclass(frozen=True)
class JobSpec:
    """One dispatchable unit of work: a registered runner + arguments.

    ``seed`` and ``scale`` are kept out of ``kwargs`` so the pool can
    inject them only when the runner's signature accepts them (e.g.
    ``run_tail_power`` takes neither).
    """

    runner: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    scale: Optional[float] = None
    index: int = 0
    label: str = ""

    @property
    def display(self) -> str:
        """Human-readable job name for progress lines and failures."""
        return self.label or f"{self.runner}#{self.index}"

    def span_attrs(self) -> Dict[str, Any]:
        """Identifying attributes for this job's trace spans."""
        attrs: Dict[str, Any] = {"runner": self.runner, "index": self.index}
        if self.seed is not None:
            attrs["seed"] = self.seed
        if self.scale is not None:
            attrs["scale"] = self.scale
        return attrs

    def replace(self, **changes: Any) -> "JobSpec":
        import dataclasses

        return dataclasses.replace(self, **changes)


@dataclass
class SweepSpec:
    """A (runners × grid × repetitions) scenario sweep.

    ``grid`` maps kwarg names to candidate value lists; :meth:`expand`
    takes the cartesian product in insertion order, layered on top of
    ``base_kwargs``, once per runner and repetition. Expansion order —
    runner, then grid point, then repetition — is deterministic, and
    per-job seeds are assigned positionally from ``base_seed``.

    ``max_failures`` is the sweep's failure budget: once more than
    that many jobs fail, the pool stops launching new ones and settles
    the rest as skipped (``None`` = unlimited tolerance, the default —
    every job always runs).
    """

    runners: Sequence[str]
    base_kwargs: Dict[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    repetitions: int = 1
    base_seed: Optional[int] = None
    scale: Optional[float] = None
    max_failures: Optional[int] = None

    def grid_points(self) -> List[Dict[str, Any]]:
        """The grid's cartesian product as kwarg overlay dicts."""
        if not self.grid:
            return [{}]
        keys = list(self.grid)
        return [
            dict(zip(keys, combo))
            for combo in itertools.product(*(self.grid[k] for k in keys))
        ]

    def expand(self) -> List[JobSpec]:
        """Materialise the sweep as a seeded, ordered job list."""
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        shells = []
        for runner in self.runners:
            for point in self.grid_points():
                for rep in range(self.repetitions):
                    kwargs = dict(self.base_kwargs)
                    kwargs.update(point)
                    shells.append((runner, kwargs, point, rep))
        seeds = spawn_seeds(self.base_seed, len(shells))
        jobs = []
        for index, ((runner, kwargs, point, rep), seed) in enumerate(
            zip(shells, seeds)
        ):
            suffix = ",".join(f"{k}={v}" for k, v in point.items())
            label = runner
            if suffix:
                label += f"[{suffix}]"
            if self.repetitions > 1:
                label += f"/r{rep}"
            jobs.append(
                JobSpec(
                    runner=runner,
                    kwargs=kwargs,
                    seed=seed,
                    scale=self.scale,
                    index=index,
                    label=label,
                )
            )
        return jobs
