"""Tests for repro.engine.shm: ring transport, ownership, cleanup."""

import multiprocessing

import numpy as np
import pytest

from repro.engine.shm import (
    SHM_MARKER,
    ShmRing,
    active_segments,
    decode_arrays,
    encode_arrays,
)


def _bytes_of(arr: np.ndarray) -> memoryview:
    return memoryview(np.ascontiguousarray(arr)).cast("B")


@pytest.fixture
def ring():
    ring = ShmRing.create(64 * 1024)
    yield ring
    ring.close()
    ring.unlink()


class TestRing:
    def test_write_read_roundtrip(self, ring):
        arr = np.arange(1000, dtype=np.float64)
        pos = ring.write(_bytes_of(arr))
        assert pos is not None
        out = np.frombuffer(ring.read(pos, arr.nbytes), dtype=arr.dtype)
        np.testing.assert_array_equal(out, arr)

    def test_read_returns_writable_bytes(self, ring):
        arr = np.arange(100, dtype=np.float64)
        pos = ring.write(_bytes_of(arr))
        out = np.frombuffer(ring.read(pos, arr.nbytes), dtype=arr.dtype)
        out[0] = -1.0  # decoded kwargs must behave like fresh inputs

    def test_consume_frees_space(self, ring):
        # Repeatedly fill most of the ring; without consume() the
        # second pass would stall, with it the cursor laps for ever.
        arr = np.zeros(3000, dtype=np.float64)  # 24 KB of a 64 KB ring
        for _ in range(20):
            pos = ring.write(_bytes_of(arr), timeout_s=0.0)
            assert pos is not None
            ring.consume(pos, arr.nbytes)
        assert ring.pending_bytes() == 0

    def test_wrap_around_pads_to_ring_start(self, ring):
        # Leave a tail smaller than the next payload so the writer has
        # to pad to the ring start; values must still come back intact.
        first = np.arange(6000, dtype=np.float64)   # 48 KB
        second = np.arange(4000, dtype=np.float64)  # 32 KB > 16 KB tail
        p1 = ring.write(_bytes_of(first), timeout_s=0.0)
        assert p1 is not None
        ring.consume(p1, first.nbytes)
        p2 = ring.write(_bytes_of(second), timeout_s=0.0)
        assert p2 is not None
        out = np.frombuffer(ring.read(p2, second.nbytes), dtype=np.float64)
        np.testing.assert_array_equal(out, second)

    def test_oversize_write_returns_none(self, ring):
        huge = np.zeros(64 * 1024, dtype=np.float64)  # 512 KB > ring
        assert ring.write(_bytes_of(huge), timeout_s=0.0) is None

    def test_full_ring_times_out_not_blocks(self, ring):
        arr = np.zeros(5000, dtype=np.float64)  # 40 KB
        assert ring.write(_bytes_of(arr), timeout_s=0.0) is not None
        # Nothing consumed: a second large write cannot fit.
        assert ring.write(_bytes_of(arr), timeout_s=0.05) is None

    def test_attach_shares_data_across_handles(self, ring):
        arr = np.linspace(0.0, 1.0, 2048)
        pos = ring.write(_bytes_of(arr))
        other = ShmRing.attach(ring.name)
        try:
            out = np.frombuffer(other.read(pos, arr.nbytes), dtype=arr.dtype)
            np.testing.assert_array_equal(out, arr)
        finally:
            other.close()


class TestEncodeDecode:
    def test_marker_roundtrip(self, ring):
        arr = np.random.default_rng(0).standard_normal(5000)
        payload = {"kwargs": {"values": arr, "n": 3}}
        encoded, shipped = encode_arrays(payload, ring, min_bytes=1024)
        assert shipped == 1
        assert SHM_MARKER in encoded["kwargs"]["values"]
        assert encoded["kwargs"]["n"] == 3
        decoded = decode_arrays(encoded, ring)
        np.testing.assert_array_equal(decoded["kwargs"]["values"], arr)
        assert decoded["kwargs"]["values"].dtype == arr.dtype
        assert ring.pending_bytes() == 0  # decode consumed the bytes

    def test_small_arrays_stay_inline(self, ring):
        arr = np.arange(10, dtype=np.float64)
        encoded, shipped = encode_arrays({"values": arr}, ring)
        assert shipped == 0
        assert encoded["values"] is arr

    def test_object_arrays_stay_inline(self, ring):
        arr = np.array([{"a": 1}] * 5000, dtype=object)
        encoded, shipped = encode_arrays(
            {"values": arr}, ring, min_bytes=1024
        )
        assert shipped == 0
        assert encoded["values"] is arr

    def test_full_ring_leaves_array_inline(self):
        tiny = ShmRing.create(4096)
        try:
            arr = np.zeros(10_000, dtype=np.float64)
            encoded, shipped = encode_arrays(
                {"values": arr}, tiny, min_bytes=1024, timeout_s=0.0
            )
            assert shipped == 0
            assert encoded["values"] is arr
        finally:
            tiny.close()
            tiny.unlink()

    def test_decode_in_write_order_across_records(self, ring):
        arrays = [
            np.full(2000, float(i), dtype=np.float64) for i in range(3)
        ]
        encoded = [
            encode_arrays({"v": a}, ring, min_bytes=1024)[0] for a in arrays
        ]
        for expected, record in zip(arrays, encoded):
            decoded = decode_arrays(record, ring)
            np.testing.assert_array_equal(decoded["v"], expected)


class TestOwnership:
    def test_active_segments_tracks_lifecycle(self):
        assert active_segments() == ()
        ring = ShmRing.create(4096)
        assert ring.name in active_segments()
        ring.close()
        ring.unlink()
        assert active_segments() == ()

    def test_attach_does_not_own(self):
        ring = ShmRing.create(4096)
        try:
            attached = ShmRing.attach(ring.name)
            assert not attached.owner
            attached.close()
            attached.unlink()  # non-owner unlink must be a no-op
            # The parent can still attach to the segment afterwards.
            again = ShmRing.attach(ring.name)
            again.close()
        finally:
            ring.close()
            ring.unlink()
        assert active_segments() == ()

    def test_unlink_is_idempotent(self):
        ring = ShmRing.create(4096)
        ring.close()
        ring.unlink()
        ring.unlink()
        assert active_segments() == ()

    def test_child_process_can_read_parent_ring(self):
        ring = ShmRing.create(64 * 1024)
        try:
            arr = np.arange(4096, dtype=np.float64)
            pos = ring.write(_bytes_of(arr))
            ctx = multiprocessing.get_context()
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_child_read,
                args=(ring.name, pos, arr.nbytes, child_conn),
            )
            proc.start()
            assert parent_conn.recv() == pytest.approx(float(arr.sum()))
            proc.join(timeout=10)
            assert proc.exitcode == 0
        finally:
            ring.close()
            ring.unlink()
        assert active_segments() == ()


def _child_read(name, pos, nbytes, conn):
    ring = ShmRing.attach(name)
    try:
        data = np.frombuffer(ring.read(pos, nbytes), dtype=np.float64)
        conn.send(float(data.sum()))
    finally:
        ring.close()
        conn.close()
