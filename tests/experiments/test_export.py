"""Tests for repro.experiments.export."""

import dataclasses
import enum
import json

import numpy as np
import pytest

from repro.experiments.export import export_json, from_jsonable, to_jsonable


class Color(enum.Enum):
    RED = "red"


@dataclasses.dataclass
class Point:
    x: float
    y: np.ndarray
    _private: int = 0


class TestToJsonable:
    def test_primitives_pass_through(self):
        assert to_jsonable(5) == 5
        assert to_jsonable("x") == "x"
        assert to_jsonable(None) is None
        assert to_jsonable(True) is True

    def test_numpy_scalars(self):
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.float64(2.5)) == 2.5
        assert to_jsonable(np.bool_(True)) is True

    def test_nan_becomes_null(self):
        assert to_jsonable(np.float64("nan")) is None
        assert to_jsonable(float("nan")) is None

    def test_infinities_become_sentinels(self):
        assert to_jsonable(float("inf")) == "Infinity"
        assert to_jsonable(float("-inf")) == "-Infinity"
        assert to_jsonable(np.float64("inf")) == "Infinity"
        assert to_jsonable(np.array([np.inf, -np.inf, np.nan, 1.0])) == [
            "Infinity",
            "-Infinity",
            None,
            1.0,
        ]

    def test_nonfinite_roundtrips_as_strict_json(self, tmp_path):
        path = export_json(
            {"nan": float("nan"), "inf": np.inf, "ninf": -np.inf},
            tmp_path / "strict.json",
        )
        # Strict parsers (no NaN/Infinity literals) must accept the file.
        data = json.loads(path.read_text(), parse_constant=lambda c: (_ for _ in ()).throw(ValueError(c)))
        assert data == {"nan": None, "inf": "Infinity", "ninf": "-Infinity"}

    def test_arrays(self):
        assert to_jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_zero_d_arrays_become_scalars(self):
        assert to_jsonable(np.array(1.5)) == 1.5
        assert to_jsonable(np.array(np.inf)) == "Infinity"
        assert to_jsonable(np.array(True)) is True

    def test_huge_array_rejected(self):
        with pytest.raises(ValueError):
            to_jsonable(np.zeros(200_001))

    def test_enum(self):
        assert to_jsonable(Color.RED) == "red"

    def test_dataclass_skips_private(self):
        point = Point(x=1.0, y=np.array([2.0]), _private=9)
        out = to_jsonable(point)
        assert out == {"x": 1.0, "y": [2.0]}

    def test_tuple_keys_joined(self):
        assert to_jsonable({("a", "b"): 1}) == {"a|b": 1}

    def test_nested_structures(self):
        value = {"rows": [{"v": np.float32(1.5)}], "t": (1, 2)}
        assert to_jsonable(value) == {"rows": [{"v": 1.5}], "t": [1, 2]}

    def test_fallback_repr(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        assert to_jsonable(Odd()) == "<odd>"


class TestFromJsonable:
    def test_sentinels_decode_to_floats(self):
        assert from_jsonable("Infinity") == float("inf")
        assert from_jsonable("-Infinity") == float("-inf")
        assert isinstance(from_jsonable("Infinity"), float)

    def test_roundtrip_inf_ninf_nan(self):
        original = {"inf": float("inf"), "ninf": float("-inf"),
                    "nan": float("nan"), "x": 1.5}
        decoded = from_jsonable(to_jsonable(original))
        assert decoded["inf"] == float("inf")
        assert decoded["ninf"] == float("-inf")
        assert decoded["nan"] is None  # NaN is one-way: missing stays null
        assert decoded["x"] == 1.5

    def test_recurses_through_containers(self):
        value = {"rows": [["Infinity", {"v": "-Infinity"}], "plain"]}
        decoded = from_jsonable(value)
        assert decoded["rows"][0][0] == float("inf")
        assert decoded["rows"][0][1]["v"] == float("-inf")
        assert decoded["rows"][1] == "plain"

    def test_ordinary_values_pass_through(self):
        for value in (None, True, 3, 2.5, "text", [], {}):
            assert from_jsonable(value) == value

    def test_roundtrip_array_sentinels(self):
        encoded = to_jsonable(np.array([np.inf, -np.inf, np.nan, 2.0]))
        assert from_jsonable(encoded) == [
            float("inf"),
            float("-inf"),
            None,
            2.0,
        ]


class TestExportJson:
    def test_roundtrip(self, tmp_path):
        path = export_json({"a": np.array([1, 2])}, tmp_path / "out" / "x.json")
        assert path.exists()
        assert json.loads(path.read_text()) == {"a": [1, 2]}

    def test_runner_output_exports(self, tmp_path):
        from repro.experiments import run_tail_power

        path = export_json(run_tail_power(), tmp_path / "t2.json")
        data = json.loads(path.read_text())
        assert any(r["network"] == "verizon-nsa-mmwave" for r in data["rows"])
