"""Tests for repro.web.har."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.web.browser import Browser
from repro.web.catalog import Website
from repro.web.har import HarEntry, HarRecord


class TestHarEntry:
    def test_end_time(self):
        entry = HarEntry(url="u", start_ms=100.0, duration_ms=50.0, size_bytes=1000)
        assert entry.end_ms == 150.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HarEntry(url="u", start_ms=-1.0, duration_ms=1.0, size_bytes=1)
        with pytest.raises(ValueError):
            HarEntry(url="u", start_ms=0.0, duration_ms=1.0, size_bytes=-1)


class TestHarRecord:
    def _record(self):
        record = HarRecord(page_url="p", radio="5G")
        record.add(HarEntry(url="a", start_ms=0.0, duration_ms=500.0, size_bytes=500_000))
        record.add(HarEntry(url="b", start_ms=200.0, duration_ms=1000.0, size_bytes=1_000_000))
        return record

    def test_onload_is_last_completion(self):
        assert self._record().on_load_ms == 1200.0

    def test_totals(self):
        record = self._record()
        assert record.n_entries == 2
        assert record.total_bytes == 1_500_000

    def test_empty_record(self):
        record = HarRecord(page_url="p", radio="4G")
        assert record.on_load_ms == 0.0
        assert record.throughput_timeline_mbps() == []

    def test_timeline_conserves_bits(self):
        record = self._record()
        timeline = record.throughput_timeline_mbps(dt_s=0.5)
        total_bits = sum(timeline) * 0.5 * 1e6
        assert total_bits == pytest.approx(record.total_bytes * 8.0, rel=1e-6)

    def test_timeline_length_covers_plt(self):
        record = self._record()
        timeline = record.throughput_timeline_mbps(dt_s=0.5)
        assert len(timeline) * 0.5 >= record.on_load_ms / 1000.0

    def test_zero_duration_entry(self):
        record = HarRecord(page_url="p", radio="4G")
        record.add(HarEntry(url="a", start_ms=0.0, duration_ms=0.0, size_bytes=1000))
        timeline = record.throughput_timeline_mbps(dt_s=1.0)
        assert sum(timeline) * 1e6 == pytest.approx(8000.0)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            self._record().throughput_timeline_mbps(dt_s=0.0)


def _loop_timeline(entries, dt_s):
    """The per-entry timeline loop the columnar one replaced: the oracle."""
    horizon_ms = max(e.end_ms for e in entries)
    n = max(1, int(horizon_ms / (dt_s * 1000.0)) + 1)
    bits = [0.0] * n
    for entry in entries:
        if entry.duration_ms <= 0:
            index = min(int(entry.start_ms / (dt_s * 1000.0)), n - 1)
            bits[index] += entry.size_bytes * 8.0
            continue
        start_bin = int(entry.start_ms / (dt_s * 1000.0))
        end_bin = min(int(entry.end_ms / (dt_s * 1000.0)), n - 1)
        span = max(end_bin - start_bin + 1, 1)
        per_bin = entry.size_bytes * 8.0 / span
        for b in range(start_bin, start_bin + span):
            bits[min(b, n - 1)] += per_bin
    return [b / dt_s / 1e6 for b in bits]


_DT_S = st.sampled_from([0.3, 0.5, 1.0])
_MS = st.floats(0.0, 4000.0, allow_nan=False, allow_infinity=False)


@st.composite
def _timed_entries(draw, dt_s):
    """Entries that are zero-duration, end exactly on a bin edge,
    overlap others, or start after the earlier ones have ended."""
    entries = []
    for i in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["free", "zero", "edge", "after"]))
        if kind == "edge":
            width = dt_s * 1000.0
            start = float(draw(st.integers(0, 4000)))
            edge = (int(start / width) + draw(st.integers(1, 3))) * width
            duration = edge - start
            assert start + duration == edge
        else:
            start = draw(_MS)
            if kind == "after":
                start += max(e.end_ms for e in entries) if entries else 0.0
            duration = 0.0 if kind == "zero" else draw(_MS)
        entries.append(
            HarEntry(
                url=f"obj-{i}",
                start_ms=start,
                duration_ms=duration,
                size_bytes=draw(st.integers(0, 5_000_000)),
                dynamic=draw(st.booleans()),
            )
        )
    return entries


def _accessors(record):
    return (
        record.n_entries,
        record.total_bytes,
        record.on_load_ms,
        [record.throughput_timeline_mbps(dt_s) for dt_s in (0.3, 0.5, 1.0)],
    )


class TestColumnarTimeline:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dt_s=_DT_S)
    def test_matches_the_per_entry_loop_bit_for_bit(self, data, dt_s):
        entries = data.draw(_timed_entries(dt_s))
        record = HarRecord(page_url="p", radio="5G")
        for entry in entries:
            record.add(entry)
        assert record.throughput_timeline_mbps(dt_s) == _loop_timeline(entries, dt_s)

    @settings(max_examples=40, deadline=None)
    @given(
        n_objects=st.integers(1, 400),
        dynamic_share=st.floats(0.0, 1.0),
        total_bytes=st.integers(1, 40_000_000),
        radio=st.sampled_from(["4G", "5G"]),
        seed=st.integers(0, 2**16),
    )
    def test_browser_loads_agree_with_added_entries(
        self, n_objects, dynamic_share, total_bytes, radio, seed
    ):
        site = Website(
            name="site",
            n_objects=n_objects,
            n_dynamic=int(n_objects * dynamic_share),
            n_images=0,
            n_videos=0,
            total_bytes=total_bytes,
            dynamic_bytes=0,
        )
        eager = Browser(seed=seed).load(site, radio).har.entries
        har = Browser(seed=seed).load(site, radio).har
        columns = _accessors(har)
        # Entries read only after every summary and the timeline.
        assert har.entries == eager
        rebuilt = HarRecord(page_url=har.page_url, radio=har.radio)
        for entry in eager:
            rebuilt.add(entry)
        assert columns == _accessors(rebuilt) == _accessors(har)
        assert type(columns[1]) is int and type(columns[2]) is float
        assert columns[3][0] == _loop_timeline(eager, 0.3)
        assert har == rebuilt
        assert sum(e.dynamic for e in eager) == site.n_dynamic
        # "site/obj-{round}-{k}": k counts up within a round from 0.
        pairs = [tuple(map(int, e.url.split("/obj-")[1].split("-"))) for e in eager]
        assert pairs[0] == (0, 0)
        assert all(
            b in ((a[0], a[1] + 1), (a[0] + 1, 0)) for a, b in zip(pairs, pairs[1:])
        )

    def test_added_entries_are_seen_after_a_column_read(self):
        site = Website("s", 30, 5, 0, 0, 600_000, 0)
        har = Browser(seed=1).load(site, "5G").har
        before = har.total_bytes
        har.add(HarEntry(url="late", start_ms=0.0, duration_ms=1.0, size_bytes=7))
        assert har.n_entries == 31
        assert har.total_bytes == before + 7
