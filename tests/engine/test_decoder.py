"""One decoder: a fresh put, a cache hit and an uncached round trip all
decode through ``from_jsonable`` to the same value, type for type."""

import json
import math
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine import JobSpec, ResultCache, execute
from repro.engine.cache import NPY_MARKER, SIDECAR_MIN_ELEMS
from repro.experiments.export import from_jsonable, to_jsonable


def _typed(value):
    """``value`` with every leaf's type spelled out, so ``1``, ``1.0``,
    ``True`` and ``np.float64(1.0)`` all differ."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_typed(item) for item in value]
    return (type(value).__name__, repr(value))


def test_get_returns_the_decoded_value(tmp_path):
    arr = np.arange(2 * SIDECAR_MIN_ELEMS, dtype=np.float64)
    arr[:3] = [np.nan, np.inf, -np.inf]
    spec = JobSpec(
        runner="test.echo",
        kwargs={
            "pos": math.inf, "neg": -math.inf, "gap": math.nan, "arr": arr
        },
    )
    cache = ResultCache(tmp_path)
    execute([spec], cache=cache, code_version="v")
    key = cache.key_for(spec, "v")
    stored = json.loads(cache.path_for(spec, key).read_text())["value"]
    assert stored["pos"] == "Infinity" and stored["neg"] == "-Infinity"
    assert stored["gap"] is None
    assert NPY_MARKER in stored["arr"]

    hit, value = cache.get(spec, key)
    assert hit
    assert value["pos"] == math.inf and isinstance(value["pos"], float)
    assert value["neg"] == -math.inf and isinstance(value["neg"], float)
    assert value["gap"] is None
    assert value["arr"][:4] == [None, math.inf, -math.inf, 3.0]
    assert all(isinstance(v, float) for v in value["arr"][1:])
    # What execute hands back for the hit is exactly what get returned.
    rerun = execute([spec], cache=cache, code_version="v")
    assert rerun.cached_count == 1
    assert _typed(rerun.values()[0]) == _typed(value)


def test_a_marker_key_without_a_descriptor_is_plain_data(tmp_path):
    # Only a dict the sidecar rule recognises (a digest-named
    # descriptor) is expanded; any other {"__npy__": ...} is data.
    spec = JobSpec(runner="test.echo", kwargs={"v": {NPY_MARKER: {"a": 1}}})
    cache = ResultCache(tmp_path)
    fresh = execute([spec], cache=cache, code_version="v")
    hit = execute([spec], cache=cache, code_version="v")
    assert hit.cached_count == 1
    expected = {NPY_MARKER: {"a": 1}}
    assert fresh.values()[0]["v"] == hit.values()[0]["v"] == expected


@st.composite
def _arrays(draw):
    dtype = draw(st.sampled_from(["float32", "float64", "int64", "bool"]))
    size = draw(
        st.one_of(
            st.integers(0, 6),
            st.integers(SIDECAR_MIN_ELEMS - 2, SIDECAR_MIN_ELEMS + 64),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype == "int64":
        arr = rng.integers(-(2**40), 2**40, size=size)
    elif dtype == "bool":
        arr = rng.random(size) < 0.5
    else:
        arr = rng.standard_normal(size).astype(dtype)
        if size:
            spots = draw(st.lists(st.integers(0, size - 1), max_size=3))
            for spot, special in zip(spots, (np.nan, np.inf, -np.inf)):
                arr[spot] = special
    if size and size % 2 == 0 and draw(st.booleans()):
        arr = arr.reshape(2, size // 2)
    return arr


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(["Infinity", "-Infinity"]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)

_VALUES = st.recursive(
    st.one_of(_SCALARS, _arrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(
            st.one_of(st.text(max_size=4), st.integers(-3, 3)),
            children,
            max_size=4,
        ),
    ),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(tree=_VALUES, arr=_arrays())
def test_every_path_decodes_alike(tree, arr):
    # Arrays are one leaf kind among many in ``tree``; ``arr`` makes
    # sure every example crosses the array paths too.
    value = {"tree": tree, "arr": arr}
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        spec = JobSpec(runner="test.echo", seed=0)
        key = cache.key_for(spec, "v")
        normalised, arrays = cache.encode_value(value)
        fresh = cache.decode_value(normalised, arrays)
        cache.put(spec, key, normalised)
        hit, cached = cache.get(spec, key)
    assert hit
    plain = from_jsonable(to_jsonable(value))
    assert _typed(fresh) == _typed(cached) == _typed(plain)
    exported = {
        json.dumps(to_jsonable(v), allow_nan=False)
        for v in (fresh, cached, plain)
    }
    assert len(exported) == 1
