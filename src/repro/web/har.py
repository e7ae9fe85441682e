"""HAR-like page-load records (the chrome-har-capturer output shape).

The paper's pipeline collects an HTTP Archive per page load; downstream
analyses only need per-object timings and sizes plus the total PLT, so
:class:`HarRecord` keeps exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class HarEntry:
    """One fetched object."""

    url: str
    start_ms: float
    duration_ms: float
    size_bytes: int
    dynamic: bool = False

    def __post_init__(self) -> None:
        if self.start_ms < 0 or self.duration_ms < 0:
            raise ValueError("timings must be non-negative")
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms


@dataclass
class HarRecord:
    """A page load: entries + summary timings.

    A record made by :meth:`from_columns` builds its ``entries`` on
    first read; until then the summaries and the timeline read its
    columns. After that (and for records filled by :meth:`add`) they
    read the entries, so edits to the list are seen.
    """

    page_url: str
    radio: str  # "4G" | "5G"
    entries: List[HarEntry] = field(default_factory=list)

    @classmethod
    def from_columns(
        cls,
        page_url: str,
        radio: str,
        round_sizes: Sequence[int],
        start_ms: np.ndarray,
        duration_ms: np.ndarray,
        size_bytes: np.ndarray,
        dynamic: np.ndarray,
    ) -> "HarRecord":
        """A record of objects fetched in dependency rounds of
        ``round_sizes`` objects each, in round order; the k-th object of
        round r is ``"{page_url}/obj-{r}-{k}"``."""
        record = cls.__new__(cls)
        record.page_url = page_url
        record.radio = radio
        record._rounds = round_sizes
        record._columns = (start_ms, duration_ms, size_bytes, dynamic)
        return record

    def __getattr__(self, name: str) -> Any:
        # Normal lookup failed: only a column record's unread entries.
        columns = self.__dict__.get("_columns")
        if name != "entries" or columns is None:
            raise AttributeError(name)
        urls = [
            f"{self.page_url}/obj-{r}-{k}"
            for r, count in enumerate(self._rounds)
            for k in range(count)
        ]
        self.entries = list(map(HarEntry, urls, *(c.tolist() for c in columns)))
        return self.entries

    def _arrays(self) -> Tuple[np.ndarray, ...]:
        """Start, duration and size of every object."""
        if "entries" not in self.__dict__:
            return self._columns[:3]
        rows = [(e.start_ms, e.duration_ms, e.size_bytes) for e in self.entries]
        return tuple(np.array(rows, dtype=float).reshape(-1, 3).T)

    def add(self, entry: HarEntry) -> None:
        self.entries.append(entry)

    @property
    def n_entries(self) -> int:
        return len(self._arrays()[0])

    @property
    def total_bytes(self) -> int:
        return int(self._arrays()[2].sum())

    @property
    def on_load_ms(self) -> float:
        """PLT: the last object's completion time."""
        start, duration, _ = self._arrays()
        if not start.size:
            return 0.0
        return float((start + duration).max())

    def throughput_timeline_mbps(self, dt_s: float = 1.0) -> List[float]:
        """Per-interval delivered throughput, for power-model input.

        This is the "extract the per-second throughput trace from the
        packet dumps and feed it to the power model" step of section 6.
        Each object's bits spread uniformly over the bins its transfer
        touches; a zero-duration object lands in its start bin.
        """
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        start, duration, size = self._arrays()
        if not start.size:
            return []
        end = start + duration
        n = max(1, int(end.max() / (dt_s * 1000.0)) + 1)
        start_bin = (start / (dt_s * 1000.0)).astype(np.int64)
        end_bin = np.minimum((end / (dt_s * 1000.0)).astype(np.int64), n - 1)
        span = np.maximum(end_bin - start_bin + 1, 1)
        # One (bin, bits) pair per bin an object touches, object-major,
        # so np.add.at adds into each bin in entry order.
        offset = np.arange(span.sum()) - np.repeat(np.cumsum(span) - span, span)
        bits = np.zeros(n)
        np.add.at(
            bits,
            np.minimum(np.repeat(start_bin, span) + offset, n - 1),
            np.repeat(size * 8.0 / span, span),
        )
        return (bits / dt_s / 1e6).tolist()
