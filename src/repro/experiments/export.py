"""Export experiment results to JSON (artifact-parity with the paper's
released data files).

Runner outputs mix dataclasses, numpy arrays, and plain dicts;
:func:`to_jsonable` normalises all of that, and :func:`export_json`
writes one experiment's regenerated artifact to disk the way the
paper's repository ships per-figure processed results. This module is
the one place that knows the strict-JSON format: :func:`from_jsonable`
is its one decoder.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Sequence, Union

import numpy as np

PathLike = Union[str, Path]

_MAX_ARRAY_EXPORT = 100_000

#: Non-finite floats cannot appear in strict JSON; NaN (a missing
#: measurement) maps to ``null`` while signed infinities keep their
#: identity as sentinel strings so they survive a round-trip.
POS_INF_SENTINEL = "Infinity"
NEG_INF_SENTINEL = "-Infinity"


def _finite_or_sentinel(value: float) -> Union[float, str, None]:
    # float(): an np.float64 (a float subclass) leaves as a plain float,
    # the type a cache hit reads back.
    if math.isfinite(value):
        return float(value)
    if math.isnan(value):
        return None
    return POS_INF_SENTINEL if value > 0 else NEG_INF_SENTINEL


def to_jsonable(value: Any, array_hook: Any = None) -> Any:
    """Recursively convert runner output into JSON-serialisable data.

    numpy scalars/arrays become Python numbers/lists, dataclasses become
    dicts, enums become their values, tuples of non-string keys are
    joined with ``|``. Non-finite floats become ``null`` (NaN) or the
    ``"Infinity"``/``"-Infinity"`` sentinel strings, so the output is
    always *strict* JSON. Objects with no natural representation fall
    back to ``repr`` so exports never crash mid-campaign.

    ``array_hook`` (when given) is offered every ndarray within the
    export size cap and may return a JSON-serialisable replacement —
    the result cache uses this to divert large arrays into ``.npy``
    sidecars instead of inflated JSON lists. A hook returning ``None``
    declines, and the array takes the normal list path. An array over
    the cap raises before any hook sees it.
    """
    if isinstance(value, float):
        return _finite_or_sentinel(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return _finite_or_sentinel(float(value))
    if isinstance(value, np.ndarray):
        if value.size > _MAX_ARRAY_EXPORT:
            raise ValueError(
                f"array of {value.size} elements exceeds the export cap"
            )
        if array_hook is not None:
            encoded = array_hook(value)
            if encoded is not None:
                return encoded
        # tolist() is a scalar for a 0-d array, nested lists otherwise.
        return to_jsonable(value.tolist(), array_hook)
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name), array_hook)
            for field in dataclasses.fields(value)
            if not field.name.startswith("_")
        }
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if isinstance(key, tuple):
                key = "|".join(str(k) for k in key)
            elif not isinstance(key, str):
                key = str(key)
            out[key] = to_jsonable(item, array_hook)
        return out
    if isinstance(value, (list, tuple, set)):
        return [to_jsonable(v, array_hook) for v in value]
    return repr(value)


def sweep_payload(outcomes: Sequence[Any]) -> Dict[str, Any]:
    """``{key: to_jsonable(value)}`` over a sweep's ok and cached outcomes.

    The result payload of both ``repro sweep --json`` and serve. A
    display name the sweep repeats (``sweep fig2 fig2``) is keyed
    ``name#index`` so no result clobbers another; unique names keep
    their plain, stable key.
    """
    counts = Counter(o.spec.display for o in outcomes)
    return {
        (
            f"{o.spec.display}#{o.spec.index}"
            if counts[o.spec.display] > 1
            else o.spec.display
        ): to_jsonable(o.value)
        for o in outcomes
        if o.status in ("ok", "cached")
    }


def from_jsonable(value: Any, array_hook: Any = None) -> Any:
    """Decode :func:`to_jsonable`'s non-finite sentinels back to floats.

    ``"Infinity"``/``"-Infinity"`` strings become ``±inf`` recursively
    through dicts and lists; everything else passes through untouched
    (NaN was encoded as ``null`` and stays ``None`` — a missing
    measurement has no identity worth resurrecting). This is the
    engine's one decoder, for fresh results and cache hits alike, so a
    sweep yields the *same types* with or without a cache attached.
    The one documented collision: a runner that legitimately returns
    the literal string ``"Infinity"`` will come back as a float.

    ``array_hook`` mirrors :func:`to_jsonable`'s: when given, it is
    offered every single-key dict first and may return that dict's
    decoded replacement — the result cache uses this to turn an
    ``.npy`` sidecar descriptor into the lists an inline array decodes
    to. A hook returning ``None`` declines, and the dict decodes as
    usual.
    """
    if isinstance(value, str):
        if value == POS_INF_SENTINEL:
            return float("inf")
        if value == NEG_INF_SENTINEL:
            return float("-inf")
        return value
    if isinstance(value, dict):
        if array_hook is not None and len(value) == 1:
            decoded = array_hook(value)
            if decoded is not None:
                return decoded
        return {
            key: from_jsonable(item, array_hook)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [from_jsonable(item, array_hook) for item in value]
    return value


def export_json(result: Any, path: PathLike, indent: int = 1) -> Path:
    """Write a runner result as strict JSON; returns the written path."""
    return write_json(to_jsonable(result), path, indent=indent)


def write_json(payload: Any, path: PathLike, indent: int = 1) -> Path:
    """Write an already-converted payload (a :func:`to_jsonable` or
    :func:`sweep_payload` result) as strict JSON without walking it
    again; returns the written path.

    ``allow_nan=False`` guarantees the emitted file parses under every
    strict JSON reader — :func:`to_jsonable` has already rewritten any
    non-finite float, so a violation here is a conversion bug.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(payload, handle, indent=indent, allow_nan=False)
        handle.write("\n")
    return path
