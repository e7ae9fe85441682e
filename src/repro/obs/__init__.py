"""repro.obs — run-ledger observability for the scenario engine.

Four pieces, threaded through :mod:`repro.engine` and the CLI:

* :mod:`repro.obs.events` — typed event stream (``sweep_start`` …
  ``cache_put``) with an :class:`~repro.obs.events.EventLog` JSONL
  sink; a no-op when no sink is attached.
* :mod:`repro.obs.metrics` — ``Counter``/``Timer`` registry with
  scoped spans; the pool and :class:`repro.core.campaign.Campaign`
  aggregate into a per-sweep stats block.
* :mod:`repro.obs.manifest` — provenance manifests written next to
  exports and cache directories; replayable via
  :func:`~repro.obs.manifest.specs_from_manifest`.
* :mod:`repro.obs.stats` — folds an event ledger into per-runner
  p50/p95 latency, retry/timeout counts, and cache hit rates
  (``python -m repro stats``).
* :mod:`repro.obs.trace` — hierarchical spans threaded through
  ``execute()`` → worker → runner → simulation kernels, landing in the
  ledger as ``span_start``/``span_end`` events (docs/tracing.md).
* :mod:`repro.obs.calib` — paper-pinned calibration gauges scored
  against sweep outputs (``gauge`` events; docs/calibration.md).
* :mod:`repro.obs.report` — ``python -m repro report``: one
  self-contained HTML artifact per campaign.
* :mod:`repro.obs.openmetrics` — OpenMetrics textfile export of the
  gauge scoreboard for scraping.
* :mod:`repro.obs.reducers` — streaming, mergeable, memory-bounded
  accumulators (pairwise sums, moments, histograms, quantile
  sketches) for fleet-scale sweeps (docs/fleet.md).
* :mod:`repro.obs.history` — the :class:`RunArchive`: an append-only
  cross-run store every sweep/serve-drain/benchmark appends to, with
  trend extraction and change-point flags (``repro history``).
* :mod:`repro.obs.compare` — statistical diff of two archived runs
  (bootstrap latency CIs, gauge drift, cache deltas) behind
  ``repro compare``; exits non-zero past thresholds.
* :mod:`repro.obs.watch` — live terminal tail of a growing ledger or
  a serve follow stream (``repro watch``), including converging
  fleet quantiles from ``reducer_snapshot`` events.

``events``, ``metrics``, and ``trace`` are stdlib-only and import
nothing from the engine, so the engine (and the kernels) can import
them without cycles; their names are re-exported here. Everything
else is imported from its own module (``repro.obs.manifest``,
``repro.obs.stats``, ...). See docs/observability.md.
"""

from repro.obs.events import (
    EVENT_TYPES,
    EventLog,
    EventSink,
    RecordingSink,
    iter_events,
    read_events,
)
from repro.obs.metrics import Counter, MetricsRegistry, Timer, percentile
from repro.obs.trace import Span, Tracer, activate, current_tracer, span

__all__ = [
    "EVENT_TYPES",
    "Counter",
    "EventLog",
    "EventSink",
    "MetricsRegistry",
    "RecordingSink",
    "Span",
    "Timer",
    "Tracer",
    "activate",
    "current_tracer",
    "iter_events",
    "percentile",
    "read_events",
    "span",
]
