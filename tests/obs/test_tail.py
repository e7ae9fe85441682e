"""Tests for the ledger tail behind ``repro watch``: linear time, and
reads in bounded chunks however large the ledger grows."""

import json
import time
import warnings
from pathlib import Path

import pytest

from repro.obs import watch as watch_mod
from repro.obs.watch import _LineAssembler, follow_events


def _payload(n_bytes):
    lines = []
    size = seq = 0
    while size < n_bytes:
        line = json.dumps({"event": "job_end", "seq": seq, "pad": "x" * 64})
        lines.append(line + "\n")
        size += len(line) + 1
        seq += 1
    return "".join(lines), seq


def _best_push_s(payload):
    best = float("inf")
    for _ in range(3):
        assembler = _LineAssembler("t")
        started = time.perf_counter()
        for _ in assembler.push(payload):
            pass
        best = min(best, time.perf_counter() - started)
    return best


def test_push_is_linear_in_the_chunk():
    one, _ = _payload(1 << 20)
    four, _ = _payload(4 << 20)
    # Re-splitting the remaining buffer per line made this ~28x.
    assert _best_push_s(four) < 8 * _best_push_s(one)


@pytest.fixture
def small_chunks(monkeypatch):
    """Shrink the read bound and record every read's requested size."""
    monkeypatch.setattr(watch_mod, "READ_CHUNK", 4096)
    sizes = []
    real_open = Path.open

    def spying_open(self, *args, **kwargs):
        handle = real_open(self, *args, **kwargs)
        real_read = handle.read

        def read(size=-1):
            sizes.append(size)
            return real_read(size)

        handle.read = read
        return handle

    monkeypatch.setattr(Path, "open", spying_open)
    return sizes


def test_follow_reads_a_large_file_in_bounded_chunks(tmp_path, small_chunks):
    payload, count = _payload(10 * 4096)
    path = tmp_path / "big.jsonl"
    path.write_text(payload + '{"event":"job_e')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seqs = [
            event["seq"]
            for event in follow_events(path, stop=lambda: True)
            if event is not None
        ]
    assert seqs == list(range(count))
    torn = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(torn) == 1 and "torn trailing" in str(torn[0].message)
    assert len(small_chunks) > 10
    assert all(0 < size <= 4096 for size in small_chunks)
