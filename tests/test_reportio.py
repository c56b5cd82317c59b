import json
import math

import numpy as np
import pytest

from uclab.reportio import dumps_csv, dumps_json, emit_report

# 500 doubles over every binade, sign and mantissa (drawn as raw bits), and
# the ones that need care: signed zeros, the smallest subnormal, the largest
# double, the infinities and NaN
_RAW = np.random.default_rng(0).integers(0, 2**64, size=500, dtype=np.uint64)
_DOUBLES = [x for x in _RAW.view(np.float64).tolist() if not math.isnan(x)] + [
    0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]


def _same_double(x, y):
    """x and y are the same double: NaN is NaN, and -0.0 is not 0.0."""
    return isinstance(y, float) and (math.isnan(x) and math.isnan(y)
                                     or x == y and math.copysign(1, x) == math.copysign(1, y))


class TestWriterRoundTrip:
    def test_every_double_round_trips_through_json(self):
        for x in _DOUBLES:
            assert _same_double(x, json.loads(dumps_json(x))), x

    def test_every_double_round_trips_through_its_csv_cell(self):
        text = dumps_csv({"rows": [{"x": x} for x in _DOUBLES]})
        cells = text.split("\n")[1:-1]
        assert len(cells) == len(_DOUBLES)
        for x, cell in zip(_DOUBLES, cells):
            assert _same_double(x, float(cell)), (x, cell)

    def test_shortest_repr_not_seventeen_digits(self):
        assert dumps_json([0.1, 1.0, 1e-16]) == "[\n  0.1,\n  1.0,\n  1e-16\n]"
        assert dumps_csv({"x": 0.1, "y": 1.0}) == "x,y\n0.1,1.0\n"

    @pytest.mark.parametrize("text", ['"', "\\", "\n", "\x7f", "\u00e9", "\U0001d4b3",
                                      'a "b" \\ c\n\x7f\u00e9\U0001d4b3'])
    def test_strings_round_trip_as_ascii(self, text):
        written = dumps_json({text: [text]})
        assert written.isascii()
        assert json.loads(written) == {text: [text]}


class TestJson:
    def test_round_trip_losslessly(self):
        report = {
            "name": "sweep",
            "passed": True,
            "count": 17,
            "value": 0.1 + 0.2,
            "inf": float("inf"),
            "nested": {"slack": -1.1102230246251565e-16, "items": [1, 2.5, "x", None]},
        }
        text = dumps_json(report)
        assert json.loads(text) == report

    def test_deterministic(self):
        report = {"b": 1.0 / 3.0, "a": [1, 2], "c": {"d": False}}
        assert dumps_json(report) == dumps_json(dict(report))

    def test_numpy_values_coerced(self):
        text = dumps_json(
            {"arr": np.array([1.5, 2.5]), "i": np.int64(3), "f": np.float64(0.25),
             "b": np.bool_(True)}
        )
        assert text == (
            '{\n  "arr": [\n    1.5,\n    2.5\n  ],\n  "i": 3,\n  "f": 0.25,\n  "b": true\n}'
        )
        rep = json.loads(text)
        assert isinstance(rep["i"], int) and isinstance(rep["b"], bool)

    def test_named_tuple_record_is_a_dict_in_field_order(self):
        # a NamedTuple report is a tuple too: read as one it would be a list
        from uclab.measures import LocalSearchReport

        mu = {"locations": np.array([0.25, 1.0]), "weights": [0.5, 0.5]}
        text = dumps_json(LocalSearchReport(
            best_value=np.float64(-0.5), best_measure=mu, mean_cap=0.4,
            two_point_with_top=np.bool_(True), restarts=3, seed=7,
        ))
        pairs = json.loads(text, object_pairs_hook=list)
        assert [k for k, _ in pairs] == list(LocalSearchReport._fields)
        assert json.loads(text) == {
            "best_value": -0.5,
            "best_measure": {"locations": [0.25, 1.0], "weights": [0.5, 0.5]},
            "mean_cap": 0.4,
            "two_point_with_top": True,
            "restarts": 3,
            "seed": 7,
        }

    def test_dataclass_is_refused(self):
        # records are NamedTuples; a dataclass goes in as a dict
        from uclab.measures import DiscreteMeasure

        with pytest.raises(TypeError, match="DiscreteMeasure is not JSON serializable"):
            dumps_json({"mu": DiscreteMeasure.point(0.5)})

    def test_non_ascii_escaped_as_utf16_units(self):
        # a path from argv may hold any code point, a lone surrogate included
        msg = "caf\u00e9/\U0001d4b3\udcff\x01.txt"
        text = dumps_json({"path": msg})
        assert text.isascii()
        assert "\\u00e9" in text and "\\ud835\\udcb3" in text and "\\u0001" in text
        assert json.loads(text) == {"path": msg}


class TestCsv:
    def test_rows_render_one_line_each(self):
        results = {"grid": 7, "rows": [{"u": 0.25, "slack": 1e-16, "ok": True},
                                       {"u": 0.5, "slack": 2e-16, "ok": False}]}
        lines = dumps_csv(results).strip().split("\n")
        assert lines == ["u,slack,ok", "0.25,1e-16,true", "0.5,2e-16,false"]

    def test_nested_results_rows_found(self, tmp_path):
        report = {"version": "x", "results": {"rows": [{"a": 1, "ok": True}]}}
        out = tmp_path / "r.csv"
        emit_report(report, "csv", out)
        assert out.read_text().strip().split("\n") == ["a,ok", "1,true"]

    def test_scalar_fallback(self):
        results = {"delta": 0.5, "violations": 3, "deep": {"x": 1}, "counts": (1, 2),
                   "table": np.zeros(2), "note": None}
        lines = dumps_csv(results).strip().split("\n")
        assert lines == ["delta,violations,note", "0.5,3,"]


class TestEmit:
    def test_identical_inputs_identical_bytes(self, tmp_path):
        report = {"x": math.pi, "rows": [{"a": 1.0 / 7.0}]}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(report, "json", p1)
        emit_report(report, "json", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report({}, "yaml", tmp_path / "x")
