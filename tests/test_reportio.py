import json
import math

import numpy as np
import pytest

from uclab.reportio import dumps_csv, dumps_json, emit_report, format_float


class TestFormatFloat:
    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
            assert float(format_float(x)) == x

    def test_special_values(self):
        assert format_float(float("inf")) == "Infinity"
        assert format_float(float("-inf")) == "-Infinity"
        assert format_float(float("nan")) == "NaN"


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

        with pytest.raises(TypeError, match="cannot serialize DiscreteMeasure"):
            dumps_json({"mu": DiscreteMeasure.point(0.5)})

    def test_string_escaping(self):
        text = dumps_json({"msg": 'say "hi"\n'})
        assert json.loads(text) == {"msg": 'say "hi"\n'}

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
        assert lines == ["u,slack,ok", "0.25,9.9999999999999998e-17,true",
                         "0.5,2e-16,false"]

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
