import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uclab
import uclab.cli
import uclab.measures
import uclab.setdist
from helpers import reference_report_text, theorem2_loop, third_derivative_worst_loop
from uclab.cli import MAX_RANDOM_TABLE_N, MAX_SCALAR_GRID, main
from uclab.reportio import dumps_json
from uclab.measures import MAX_ATOM_GRID, MAX_LEMMA_U_STEPS, MAX_LEMMA_V_STEPS, MAX_SEARCH_RESTARTS
from uclab.families import Family, count_union_closed, save_family
from uclab.setdist import golden_threshold_mixture, product_bernoulli, save_distribution, save_mixture

FAST_LEMMA = ["lemma", "--u-steps", "30", "--v-steps", "60", "--restarts", "8",
              "--atom-grid", "200", "--search-points", "3"]


def run(args, tmp_path, name="out.json", fmt=None):
    out = tmp_path / name
    argv = list(args) + ["--out", str(out)]
    if fmt:
        argv += ["--format", fmt]
    code = main(argv)
    return code, out


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        code, out = run(FAST_LEMMA, tmp_path)
        assert code == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_verification_failure_is_one_with_named_item(self, tmp_path):
        code, out = run(FAST_LEMMA + ["--inflate-bound", "1.05"], tmp_path)
        assert code == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert any("lemma.two_atom_scan" in item for item in report["failures"])

    def test_bad_arguments_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_bad_values_exit_two(self, tmp_path):
        code = main(["counterexample", "--ubar", "0.5", "--u", "0.3",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_oversized_table_file_exits_two_before_allocating(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("n=40\n0 1.0\n")
        out = tmp_path / "x.json"
        code = main(["theorem2", "--trials", "2", "--max-n", "3", "--dist-file", str(path),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["uclab: error: explicit tables are limited to n <= 24"]

    @pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 128. MiB")])
    def test_out_of_memory_exits_two_with_one_line(self, error, tmp_path, monkeypatch, capsys):
        def exhausted(args, seed):
            raise error

        monkeypatch.setitem(uclab.cli._HANDLERS, "theorem2", exhausted)
        out = tmp_path / "x.json"
        assert main(["theorem2", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"uclab: error: {str(error) or 'MemoryError'}"
        ]

    def test_internal_failure_is_one_with_named_item(self, tmp_path, monkeypatch):
        import uclab.coupling

        def failing_linprog(*args, **kwargs):
            raise RuntimeError("transportation LP failed: stub solver failure")

        monkeypatch.setattr(uclab.coupling, "linprog", failing_linprog)
        code, out = run(
            ["coupling", "delta-search", "--delta-steps", "10", "--v-steps", "8",
             "--mean-steps", "8", "--search-points", "3", "--search-restarts", "2"],
            tmp_path,
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert report["failures"] == [
            "coupling.internal: transportation LP failed: stub solver failure"
        ]

    def test_vertex_off_its_marginals_is_one_naming_coupling_internal(self, tmp_path,
                                                                     monkeypatch):
        import uclab.coupling

        real = uclab.coupling.linprog

        def off_by_1e9(cost, w):
            out = real(cost, w)
            out[0, 0] += 1e-9
            return out

        monkeypatch.setattr(uclab.coupling, "linprog", off_by_1e9)
        code, out = run(
            ["coupling", "delta-search", "--delta-steps", "10", "--v-steps", "8",
             "--mean-steps", "8", "--search-points", "3", "--search-restarts", "2"],
            tmp_path,
        )
        assert code == 1
        (item,) = json.loads(out.read_text())["failures"]
        assert item.startswith("coupling.internal: transportation simplex vertex is not a coupling")


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        _, out1 = run(FAST_LEMMA, tmp_path, "a.json")
        _, out2 = run(FAST_LEMMA, tmp_path, "b.json")
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_priority_env_then_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UCLAB_SEED", "77")
        _, out = run(["theorem2", "--trials", "5", "--max-n", "4"], tmp_path, "env.json")
        assert json.loads(out.read_text())["config"]["seed"] == 77
        _, out2 = run(
            ["theorem2", "--trials", "5", "--max-n", "4", "--seed", "5"],
            tmp_path,
            "flag.json",
        )
        assert json.loads(out2.read_text())["config"]["seed"] == 5

    def test_seed_echo_does_not_depend_on_how_it_was_given(self, tmp_path, monkeypatch):
        argv = ["theorem2", "--trials", "5", "--max-n", "4"]
        monkeypatch.delenv("UCLAB_SEED", raising=False)
        _, default = run(argv, tmp_path, "default.json")
        _, flag = run(argv + ["--seed", "1729"], tmp_path, "flag.json")
        monkeypatch.setenv("UCLAB_SEED", "1729")
        _, env = run(argv, tmp_path, "env.json")
        assert default.read_bytes() == flag.read_bytes() == env.read_bytes()
        assert list(json.loads(default.read_text())["config"]) == [
            "command", "max_n", "seed", "trials"
        ]

    def test_bad_env_seed_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("UCLAB_SEED", "abc")
        out = tmp_path / "x.json"
        assert main(["families", "--n", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["uclab: error: UCLAB_SEED must be an integer, got 'abc'"]
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--seed", "UCLAB_SEED"])
    @pytest.mark.parametrize("command", sorted(uclab.cli._HANDLERS))
    def test_negative_seed_exits_two_before_any_work(self, command, source, tmp_path,
                                                     monkeypatch, capsys):
        def no_work(args, seed):
            raise AssertionError(f"{command} ran with seed {seed}")

        for name in uclab.cli._HANDLERS:
            monkeypatch.setitem(uclab.cli._HANDLERS, name, no_work)
        monkeypatch.delenv("UCLAB_SEED", raising=False)
        argv = [command, "--out", str(tmp_path / "x.json")]
        if source == "--seed":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("UCLAB_SEED", "-1")
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"uclab: error: {source} must be a non-negative integer, got -1"]
        assert not (tmp_path / "x.json").exists()

    def test_all_runs_in_one_process(self, tmp_path, monkeypatch):
        # the compact lemma runs every search point's restarts in one
        # local_search_rows call, in this process
        calls = []
        search = uclab.measures.local_search_rows

        def local_search_here(us, *args, **kwargs):
            calls.append((os.getpid(), len(us)))
            return search(us, *args, **kwargs)

        monkeypatch.setattr(uclab.measures, "local_search_rows", local_search_here)
        out = tmp_path / "all.json"
        assert main(["all", "--out", str(out)]) == 0
        lemma = json.loads(out.read_text())["results"]["suites"]["lemma"]
        assert calls == [(os.getpid(), lemma["search_points"])]

    def test_all_rejects_csv_before_any_suite(self, tmp_path, monkeypatch, capsys):
        def no_work(args, seed):
            raise AssertionError("all ran a suite before rejecting --format csv")

        for name in uclab.cli._COMPACT_SUITE:
            monkeypatch.setitem(uclab.cli._HANDLERS, name, no_work)
        out = tmp_path / "all.csv"
        assert main(["all", "--format", "csv", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "uclab: error: all writes JSON only; run a single subcommand for CSV"
        ]
        assert not out.exists()

    def test_report_round_trips(self, tmp_path):
        _, out = run(FAST_LEMMA, tmp_path)
        report = json.loads(out.read_text())
        from uclab.reportio import dumps_json

        assert json.loads(dumps_json(report)) == report


class TestLemmaCommand:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--u-steps", "0"], "u_steps, restarts, atom_grid and search_points must be positive"),
            (["--search-points", "0"], "u_steps, restarts, atom_grid and search_points must be positive"),
            (["--v-steps", "1"], "v_steps must be at least 2"),
        ],
    )
    def test_empty_grids_exit_two_before_any_work(self, flags, message, tmp_path, monkeypatch,
                                                  capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("lemma started work before its flags were bounded")

        monkeypatch.setattr(uclab.measures, "entropy_ratio_bound", no_work)
        monkeypatch.setattr(uclab.measures, "entropy_ratio_bound_array", no_work)
        monkeypatch.setattr(uclab.measures, "local_search_rows", no_work)
        out = tmp_path / "x.json"
        assert main(["lemma", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"uclab: error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, name, cap",
        [
            ("--u-steps", "u_steps", MAX_LEMMA_U_STEPS),
            ("--v-steps", "v_steps", MAX_LEMMA_V_STEPS),
            ("--restarts", "restarts", MAX_SEARCH_RESTARTS),
            ("--atom-grid", "atom_grid", MAX_ATOM_GRID),
        ],
    )
    def test_huge_flags_exit_two_before_any_work(self, flag, name, cap, tmp_path, monkeypatch,
                                                 capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("lemma started work before its flags were bounded")

        # the u grid is the first allocation; the rest would follow it
        monkeypatch.setattr(np, "arange", no_work)
        monkeypatch.setattr(uclab.measures, "entropy_ratio_bound_array", no_work)
        monkeypatch.setattr(uclab.measures, "local_search_rows", no_work)
        out = tmp_path / "x.json"
        huge = 10**12
        assert main(["lemma", flag, str(huge), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"uclab: error: {name} must be at most {cap}, got {huge}"
        ]
        assert not out.exists()


    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0", "-1", "1e308"])
    def test_bad_inflate_bound_exits_two_before_any_work(self, scale, tmp_path, monkeypatch,
                                                        capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("lemma started work before --inflate-bound was checked")

        monkeypatch.setattr(np, "arange", no_work)
        monkeypatch.setattr(uclab.measures, "entropy_ratio_bound_array", no_work)
        monkeypatch.setattr(uclab.measures, "local_search_rows", no_work)
        out = tmp_path / "x.json"
        assert main(["lemma", f"--inflate-bound={scale}", "--out", str(out)]) == 2
        # 1e308 is finite, but the bound factor (up to 2) times it is not
        rule = "at most 8.988465674311579e+307" if scale == "1e308" else "finite and positive"
        assert capsys.readouterr().err.splitlines() == [
            f"uclab: error: lam_scale must be {rule}, got {float(scale)}"
        ]
        assert not out.exists()

    def test_largest_inflate_bound_writes_finite_numbers(self, tmp_path):
        # twice the largest accepted scale is the largest float, so every
        # scaled factor, slack and margin stays finite and the scan fails
        scale = repr(uclab.measures.MAX_LAM_SCALE)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(FAST_LEMMA + ["--inflate-bound", scale], tmp_path)
        assert code == 1
        assert not caught

        def numbers(obj):
            if isinstance(obj, dict):
                obj = list(obj.values())
            if isinstance(obj, list):
                return [x for v in obj for x in numbers(v)]
            return [obj] if isinstance(obj, float) else []

        report = json.loads(out.read_text())
        values = numbers(report["results"])
        assert len(values) > 100 and all(np.isfinite(values))
        assert report["results"]["lam_scale"] == uclab.measures.MAX_LAM_SCALE
        assert not report["results"]["scan_ok"]


class TestTolerance:
    @pytest.mark.parametrize("command", [["lemma"], ["theorem2"]])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
    def test_bad_tol_exits_two_before_any_work(self, command, tol, tmp_path, monkeypatch,
                                               capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --tol was checked")

        monkeypatch.setattr(uclab.measures, "lemma_certificate", no_work)
        monkeypatch.setattr(np.random, "default_rng", no_work)
        out = tmp_path / "x.json"
        assert main([*command, f"--tol={tol}", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"uclab: error: --tol must be finite and nonnegative, got {float(tol)}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("command", [["scalar"], ["families"], ["counterexample"],
                                         ["coupling", "delta-search"], ["all"]])
    def test_tol_is_not_accepted_where_it_is_not_read(self, command, tmp_path, capsys):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--tol=1e-9", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol=1e-9" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_tol_is_allowed(self, tmp_path):
        code, out = run(["theorem2", "--trials", "5", "--max-n", "4", "--tol", "0"], tmp_path)
        assert code in (0, 1)
        assert json.loads(out.read_text())["config"]["tol"] == 0.0


class TestJobs:
    @pytest.mark.parametrize("command", [["scalar"], ["families"], ["theorem2"],
                                         ["counterexample"], ["coupling"], ["all"], ["lemma"]])
    def test_jobs_is_not_accepted_where_it_is_not_read(self, command, tmp_path, capsys):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs=1", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs=1" in capsys.readouterr().err
        assert not out.exists()


class TestReportWrite:
    def test_missing_out_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["families", "--n", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("uclab: error: "), err
        assert str(out) in err[0]
        assert not out.exists()

    def test_non_ascii_path_is_escaped_into_an_ascii_report(self, tmp_path):
        path = tmp_path / "caf\u00e9-\U0001d4b3.txt"
        save_distribution(product_bernoulli(3, 0.3), path)
        code, out = run(["theorem2", "--trials", "2", "--max-n", "3", "--dist-file", str(path)],
                        tmp_path)
        assert code == 0
        text = out.read_bytes().decode("ascii")
        assert "\\u00e9-\\ud835\\udcb3" in text
        report = json.loads(text)
        assert report["config"]["dist_file"] == report["results"]["dist_file"]["path"] == str(path)


def _input_files(tmp_path):
    """A distribution, a mixture and a family file, keyed as the argv
    placeholders below name them."""
    paths = {name: str(tmp_path / f"{name}.txt") for name in ("dist", "mix", "fam")}
    save_distribution(product_bernoulli(5, 0.3), paths["dist"])
    save_mixture(golden_threshold_mixture(0.5, 8), paths["mix"])
    save_family(Family.of(3, [2, 3, 4, 6, 7]), paths["fam"])
    return paths


def _captured_report(argv, tmp_path, monkeypatch):
    """Run main on argv (its {dist}, {mix} and {fam} filled in) and return
    the report it hands to emit_report and the bytes written to --out."""
    reports = []
    real_emit = uclab.cli.emit_report

    def emit(report, *args, **kwargs):
        reports.append(report)
        return real_emit(report, *args, **kwargs)

    monkeypatch.setattr(uclab.cli, "emit_report", emit)
    paths = _input_files(tmp_path)
    out = tmp_path / "report"
    main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
    [report] = reports
    return report, out.read_bytes()


class _Leaf(NamedTuple):
    x: float
    label: str


class _Node(NamedTuple):
    leaf: dict
    values: tuple


# every kind of value the one-pass writer takes, the spellings that need care
# (NaN, infinities, -0.0, escapes) and the empty containers
_SYNTHETIC_REPORT = {
    "specials": [float("nan"), float("inf"), -float("inf"), -0.0],
    "text": 'caf\u00e9 \U0001d4b3 \udcff "q" \\ \x01',
    "empty": [{}, [], ()],
    7: "an int key",
    "numpy": [np.float32(0.1), np.int64(-3), np.bool_(False), np.array([[1.5, np.nan]])],
    "record": _Node({"leaf": _Leaf(0.1, "a,b")}, (1, None, True, np.float64(-0.0))),
}

_TWO_STAGE_CASES = {
    "all": ["all"],
    "theorem2-files": ["theorem2", "--trials", "20", "--max-n", "4",
                       "--dist-file", "{dist}", "--mixture-file", "{mix}"],
    "counterexample-exact": ["counterexample", "--n", "8"],
    "dp": ["coupling", "dp", "--family", "{fam}"],
    "dp-literal-rates": ["coupling", "dp", "--family", "{fam}", "--literal-rates"],
    "synthetic": None,
}


@pytest.mark.parametrize("case", sorted(_TWO_STAGE_CASES))
def test_one_pass_writer_matches_the_two_stage_writer(case, tmp_path, monkeypatch):
    # the reference coerces the whole report to plain values, then writes those
    argv = _TWO_STAGE_CASES[case]
    if argv is None:
        report, written = _SYNTHETIC_REPORT, None
    else:
        report, written = _captured_report(argv, tmp_path, monkeypatch)
    text = reference_report_text(report, "json")
    assert dumps_json(report) + "\n" == text
    assert written in (None, text.encode("ascii"))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writer_failure_leaves_out_alone(fmt, tmp_path, monkeypatch):
    # the whole text is built before --out is opened
    out = tmp_path / "kept.txt"
    out.write_bytes(b"an earlier report\n")
    monkeypatch.setitem(uclab.cli._HANDLERS, "families",
                        lambda args, seed: ({"rows": [{"x": object()}]}, []))
    with pytest.raises(TypeError):
        main(["families", "--format", fmt, "--out", str(out)])
    assert out.read_bytes() == b"an earlier report\n"


# every subcommand that writes CSV; lemma's and scalar's results have rows,
# the others' are one row of scalar fields (theorem2 with an input file
# writes JSON only)
_CSV_CASES = {
    "scalar": ["scalar", "--grid", "2000"],
    "lemma": FAST_LEMMA,
    "families": ["families"],
    "theorem2": ["theorem2", "--trials", "20", "--max-n", "4"],
    "counterexample": ["counterexample"],
    "counterexample-exact": _TWO_STAGE_CASES["counterexample-exact"],
    "delta-search": ["coupling", "delta-search", "--delta-steps", "10", "--v-steps", "8",
                     "--mean-steps", "8", "--search-points", "3", "--search-restarts", "2"],
    "dp": _TWO_STAGE_CASES["dp"],
}


class TestCsvOutput:
    def test_lemma_sweep_one_row_per_u(self, tmp_path):
        code, out = run(FAST_LEMMA, tmp_path, "sweep.csv", fmt="csv")
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "u,ratio_bound,min_slack,argmin_v"
        assert len(lines) == 1 + 31  # header plus one row per grid u (incl. threshold)

    @pytest.mark.parametrize("case", sorted(_CSV_CASES))
    def test_every_subcommand_matches_the_two_stage_writer(self, case, tmp_path, monkeypatch):
        report, written = _captured_report([*_CSV_CASES[case], "--format", "csv"], tmp_path,
                                           monkeypatch)
        assert written == reference_report_text(report, "csv").encode("ascii")

    def test_internal_failure_writes_an_empty_table(self, tmp_path, monkeypatch):
        # a RuntimeError leaves the results empty: a blank header and row
        import uclab.coupling

        def failing_linprog(*args, **kwargs):
            raise RuntimeError("stub solver failure")

        monkeypatch.setattr(uclab.coupling, "linprog", failing_linprog)
        report, written = _captured_report(
            ["coupling", "--delta-steps", "10", "--v-steps", "8", "--mean-steps", "8",
             "--format", "csv"], tmp_path, monkeypatch)
        assert report["results"] == {}
        assert written == reference_report_text(report, "csv").encode("ascii") == b"\n\n"


class TestScalarCommand:
    def test_passes(self, tmp_path):
        code, out = run(["scalar", "--grid", "20000"], tmp_path)
        assert code == 0
        rows = json.loads(out.read_text())["results"]["rows"]
        assert all(r["ok"] for r in rows)
        names = {r["check"] for r in rows}
        assert "third_derivative_match" in names

    def test_third_derivative_worst_matches_point_loop(self, tmp_path):
        # bit identity: one ulp in a stencil value moves this worst by ~1e-4
        code, out = run(["scalar", "--grid", "1000"], tmp_path)
        assert code == 0
        rows = {r["check"]: r for r in json.loads(out.read_text())["results"]["rows"]}
        assert rows["third_derivative_match"]["worst"] == third_derivative_worst_loop()

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_non_positive_grid_exits_two(self, grid, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["scalar", f"--grid={grid}", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"uclab: error: --grid must be a positive integer of at most {MAX_SCALAR_GRID}"]
        assert not out.exists()

    def test_huge_grid_exits_two_before_allocating(self, tmp_path, monkeypatch, capsys):
        def no_arange(*args, **kwargs):
            raise AssertionError("np.arange ran before the grid was bounded")

        monkeypatch.setattr(np, "arange", no_arange)
        out = tmp_path / "x.json"
        assert main(["scalar", "--grid", "1000000000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("uclab: error: --grid must be")
        assert not out.exists()


class TestFamiliesCommand:
    def test_enumerate_n3(self, tmp_path):
        code, out = run(["families", "enumerate", "--n", "3"], tmp_path)
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["min_best_proportion"] == 0.5
        assert res["union_closed_count"] == 121
        assert res["degenerate_excluded"] == 1

    def test_bare_action_defaults_to_enumerate(self, tmp_path):
        code, _ = run(["families", "--n", "2"], tmp_path)
        assert code == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_is_the_scanned_families(self, n, tmp_path):
        code, out = run(["families", "--n", str(n)], tmp_path)
        assert code == 0
        assert json.loads(out.read_text())["results"]["union_closed_count"] == count_union_closed(n)

    @pytest.mark.parametrize("n", ["0", "-2", "5"])
    def test_n_bounded(self, n, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["families", "--n", n, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"uclab: error: exhaustive enumeration needs 1 <= n <= 4, got {n}"]
        assert not out.exists()


class TestTheorem2Command:
    def test_random_tables_pass(self, tmp_path):
        code, out = run(["theorem2", "--trials", "50", "--max-n", "6"], tmp_path)
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["worst_slack"] >= -1e-10
        assert res["product_sharpness_worst"] <= 1e-10

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trials", "0"], "--trials must be a positive integer"),
            (["--trials", "-1"], "--trials must be a positive integer"),
            (["--max-n", "1"], f"--max-n must lie in 2..{MAX_RANDOM_TABLE_N}"),
            (["--max-n", str(MAX_RANDOM_TABLE_N + 1)], f"--max-n must lie in 2..{MAX_RANDOM_TABLE_N}"),
        ],
    )
    def test_flags_bounded(self, flags, message, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["theorem2", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"uclab: error: {message}"]
        assert not out.exists()

    def test_no_table_checked_fails(self, tmp_path):
        # at this seed the one table drawn has an element in every set, so it is skipped
        code, out = run(["theorem2", "--trials", "1", "--max-n", "2", "--seed", "14"], tmp_path)
        assert code == 1
        report = json.loads(out.read_text())
        assert report["failures"] == ["theorem2.random_tables: no table checked"]
        assert report["results"]["worst_slack"] is None
        assert report["results"]["worst_case"] is None

    def test_dist_file(self, tmp_path):
        path = tmp_path / "dist.txt"
        save_distribution(product_bernoulli(5, 0.3), path)
        code, out = run(
            ["theorem2", "--trials", "5", "--max-n", "4", "--dist-file", str(path)],
            tmp_path,
        )
        assert code == 0
        res = json.loads(out.read_text())["results"]["dist_file"]
        assert abs(res["slack"]) < 1e-10

    def test_repeated_mask_exits_two(self, tmp_path, capsys):
        # the two lines for mask 0 bring the mass to 1.5
        path = tmp_path / "dist.txt"
        path.write_text("n=2\n0 0.5\n0 0.5\n1 0.5\n", encoding="ascii")
        out = tmp_path / "x.json"
        assert main(["theorem2", "--trials", "2", "--max-n", "3", "--dist-file", str(path),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "uclab: error: bad distribution line: a mask is listed twice"
        ]
        assert not out.exists()

    def test_mixture_file(self, tmp_path):
        path = tmp_path / "mix.txt"
        save_mixture(golden_threshold_mixture(0.5, 8), path)
        code, out = run(
            ["theorem2", "--trials", "5", "--max-n", "4", "--mixture-file", str(path)],
            tmp_path,
        )
        assert code == 0
        res = json.loads(out.read_text())["results"]["mixture_file"]
        assert res["slack"] >= -1e-10

    @pytest.mark.parametrize("flag", ["--dist-file", "--mixture-file"])
    def test_file_checks_refuse_csv_before_any_file_is_read(self, flag, tmp_path, capsys):
        # a one-row table would drop the nested file checks; the file does not
        # exist, so an attempt to read it would end in another message
        out = tmp_path / "x.csv"
        assert main(["theorem2", flag, str(tmp_path / "missing.txt"), "--format", "csv",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "uclab: error: theorem2 --dist-file/--mixture-file write JSON only; "
            "drop --format csv to see the file checks"
        ]
        assert not out.exists()

    def test_bad_file_exits_two_before_any_table_is_drawn(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a random table was drawn or checked")

        monkeypatch.setattr(uclab.setdist, "union_entropy_rows", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        path = tmp_path / "dist.txt"
        path.write_text("n=2\n0 nan\n3 1.0\n", encoding="ascii")
        out = tmp_path / "x.json"
        assert main(["theorem2", "--dist-file", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "uclab: error: probabilities must be finite"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "seed, max_n, trials",
        [(1729, 2, 60), (1, 3, 60), (2, 4, 60), (3, 5, 50), (4, 6, 50), (5, 7, 40),
         (6, 8, 40), (7, 9, 30), (8, 10, 20)],
    )
    def test_random_tables_equal_the_per_table_loop(self, seed, max_n, trials):
        rows, sharp = theorem2_loop(trials, max_n, seed)
        report = _theorem2_report(trials, max_n, seed)
        assert report["worst_case"] == min(rows, key=lambda row: row["slack"])
        assert report["worst_slack"] == report["worst_case"]["slack"]
        assert report["product_sharpness_worst"] == sharp

    def test_skipped_tables_equal_the_per_table_loop(self):
        # at this seed some n = 2 tables have an element in every set
        rows, _ = theorem2_loop(40, 2, 14)
        assert 0 < len(rows) < 40
        assert _theorem2_report(40, 2, 14)["worst_case"] == min(rows, key=lambda row: row["slack"])

    @pytest.mark.parametrize("cap", [64, 300, 1 << 10])
    def test_chunk_boundaries_do_not_change_the_worst_case(self, cap, monkeypatch):
        rows, sharp = theorem2_loop(60, 8, 21)
        monkeypatch.setattr(uclab.cli, "TABLE_STACK_CELLS", cap)
        report = _theorem2_report(60, 8, 21)
        assert report["worst_case"] == min(rows, key=lambda row: row["slack"])
        assert report["product_sharpness_worst"] == sharp

    def test_tied_minimum_goes_to_the_first_trial(self, monkeypatch):
        rows, _ = theorem2_loop(80, 6, 11)
        floor = sorted(row["slack"] for row in rows)[len(rows) // 3]
        real = uclab.setdist.union_entropy_rows

        def tied(probs, n):
            u, lhs, rhs, slack, lam = real(probs, n)
            return u, lhs, rhs, np.maximum(slack, floor), lam

        monkeypatch.setattr(uclab.setdist, "union_entropy_rows", tied)
        monkeypatch.setattr(uclab.cli, "TABLE_STACK_CELLS", 256)
        first = next(row for row in rows if row["slack"] <= floor)
        assert first is not rows[0]
        assert _theorem2_report(80, 6, 11)["worst_case"] == {**first, "slack": floor}

    @pytest.mark.parametrize(
        "cap, flags",
        [(1 << 16, ["--max-n", "16", "--trials", "40"]),
         (1 << 12, ["--max-n", "5", "--trials", "600"])],
    )
    def test_stacks_stay_within_the_cell_cap(self, cap, flags, tmp_path, monkeypatch):
        shapes = []
        real = uclab.setdist.union_entropy_rows

        def recording(probs, n):
            shapes.append(probs.shape)
            return real(probs, n)

        monkeypatch.setattr(uclab.setdist, "union_entropy_rows", recording)
        monkeypatch.setattr(uclab.cli, "TABLE_STACK_CELLS", cap)
        code, _ = run(["theorem2", *flags], tmp_path)
        assert code == 0
        assert max(rows * cells for rows, cells in shapes) <= cap
        # the random tables (every stack but the last, the product tables)
        # hold more cells than one stack may: the cap split them
        assert sum(rows * cells for rows, cells in shapes[:-1]) > cap


def _theorem2_report(trials, max_n, seed):
    args = uclab.cli.build_parser().parse_args(
        ["theorem2", "--trials", str(trials), "--max-n", str(max_n)]
    )
    report, _ = uclab.cli.cmd_theorem2(args, seed)
    return report


class TestCounterexampleCommand:
    def test_default_run(self, tmp_path):
        code, out = run(["counterexample"], tmp_path)
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["marginal_admissible"] and res["ratio_below_d"]
        assert res["kl_upper"] < 10.0

    def test_exact_small_n(self, tmp_path):
        # at n = 8 the level-entropy overhead is still large relative to
        # n, so the ratio budget must be looser than the large-n default
        code, out = run(
            ["counterexample", "--n", "8", "--theta", "0.1", "--trunc", "18",
             "--d", "1.5"],
            tmp_path,
        )
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["exact_within_bounds"] is True


    def test_tiny_theta_reports_finite_bounds(self, tmp_path):
        # the union's level pmf underflows to exact zeros at this theta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(["counterexample", "--theta", "1e-200"], tmp_path)
        assert code == 0
        res = json.loads(out.read_text(), parse_constant=_finite_only)["results"]
        # the large-n, small-theta limit H(0.36) / H(0.2)
        assert res["ratio_upper"] == pytest.approx(1.3057854320000842, rel=1e-12)
        assert res["ratio_below_d"] is True

    def test_huge_n_exits_two_before_any_work(self, tmp_path, monkeypatch, capsys):
        from uclab.counterexample import MAX_N

        def no_arange(*args, **kwargs):
            raise AssertionError("np.arange ran before n was bounded")

        monkeypatch.setattr(np, "arange", no_arange)
        out = tmp_path / "x.json"
        for n in (MAX_N + 1, 10**330):
            assert main(["counterexample", "--n", str(n), "--out", str(out)]) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"uclab: error: n must be a positive integer of at most {MAX_N}"
            ]
            assert not out.exists()

    def test_largest_n_runs(self, tmp_path):
        from uclab.counterexample import MAX_N

        code, out = run(["counterexample", "--n", str(MAX_N)], tmp_path)
        assert code == 0
        assert json.loads(out.read_text())["config"]["n"] == MAX_N

    @pytest.mark.parametrize("theta", ["0", "-0.5", "nan", "1", "inf"])
    def test_bad_theta_exits_two_before_any_work(self, theta, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("counterexample started work before theta was checked")

        monkeypatch.setattr(np, "arange", no_work)
        out = tmp_path / "x.json"
        assert main(["counterexample", f"--theta={theta}", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "uclab: error: theta must lie strictly inside (0, 1)"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, trunc",
        [(["--trunc", "100000000000"], 100_000_000_000),
         # derived from theta: ceil(30 / -log(theta))
         (["--theta", "0.99999"], 2_999_985)],
    )
    def test_huge_trunc_exits_two_before_allocating(self, flags, trunc, tmp_path, monkeypatch,
                                                    capsys):
        from uclab.counterexample import MAX_TRUNC

        def no_arange(*args, **kwargs):
            raise AssertionError("np.arange ran before trunc was bounded")

        monkeypatch.setattr(np, "arange", no_arange)
        out = tmp_path / "x.json"
        assert main(["counterexample", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"uclab: error: trunc must be at most {MAX_TRUNC}, got {trunc}"
        ]
        assert not out.exists()


class TestCouplingCommand:
    def test_dp_with_family_file(self, tmp_path):
        path = tmp_path / "fam.txt"
        save_family(Family.of(3, [2, 3, 4, 6, 7]), path)
        code, out = run(["coupling", "dp", "--family", str(path)], tmp_path)
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["marginals_uniform"] is True

    def test_dp_literal_rates_reported_not_asserted(self, tmp_path):
        path = tmp_path / "fam.txt"
        save_family(Family.of(3, [2, 3, 4, 6, 7]), path)
        code, out = run(
            ["coupling", "dp", "--family", str(path), "--literal-rates"], tmp_path
        )
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["max_marginal_deviation"] > 1e-3

    def test_dp_requires_family(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["coupling", "dp", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "uclab: error: coupling dp requires --family"
        ]
        assert not out.exists()

    def test_delta_search_delta_max_past_one_exits_two(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["coupling", "delta-search", "--delta-max", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "uclab: error: delta_max must keep GOLDEN_THRESHOLD + delta_max below 1, got 1.0"
        ]
        assert not out.exists()

    def test_delta_search_small(self, tmp_path):
        code, out = run(
            ["coupling", "delta-search", "--alpha", "0.05", "--delta-steps", "100",
             "--v-steps", "32", "--mean-steps", "24", "--search-points", "3",
             "--search-restarts", "12"],
            tmp_path,
        )
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["delta"] > 0.0

    def test_delta_search_grid_bounded(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(["coupling", "delta-search", "--delta-steps", "1000000000000",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("uclab: error: delta-search grid")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--search-points", "--search-restarts"])
    def test_delta_search_empty_search_exits_two(self, flag, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["coupling", "delta-search", flag, "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["uclab: error: u_cap_steps, search_points and search_restarts must be positive"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, name", [("--search-restarts", "search_restarts"),
                                            ("--search-points", "search_points")])
    def test_delta_search_huge_search_exits_two_before_any_work(self, flag, name, tmp_path,
                                                                 monkeypatch, capsys):
        import uclab.coupling

        def no_work(*args, **kwargs):
            raise AssertionError("delta-search started work before its flags were bounded")

        monkeypatch.setattr(np, "linspace", no_work)
        monkeypatch.setattr(uclab.coupling, "local_search_rows", no_work)
        out = tmp_path / "x.json"
        huge = 10**12
        assert main(["coupling", "delta-search", flag, str(huge), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"uclab: error: {name} must be at most {MAX_SEARCH_RESTARTS}, got {huge}"
        ]
        assert not out.exists()

    def test_stdout_when_no_out(self, capsys):
        code = main(["families", "--n", "2"])
        assert code == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["passed"] is True


def _fresh_python(*args, env_vars=None):
    """Run `python *args` in a fresh interpreter with this checkout's uclab,
    with neither UCLAB_SEED nor OPENBLAS_NUM_THREADS set unless env_vars
    sets them (importing uclab.cli in this process sets the latter)."""
    env = dict(os.environ)
    env.pop("UCLAB_SEED", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_vars or {})
    src = str(Path(uclab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_single_threaded_blas_is_set_before_numpy_loads():
    # OpenBLAS reads the variable once, when numpy loads it: `import uclab`
    # must not load numpy, and uclab.cli sets it before its own numpy import
    script = """
import json, os, sys
import uclab
numpy_at_import = "numpy" in sys.modules
import uclab.cli
print(json.dumps([numpy_at_import, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""
    assert json.loads(_fresh_python("-c", script)) == [False, "1"]
    preset = _fresh_python("-c", script, env_vars={"OPENBLAS_NUM_THREADS": "3"})
    assert json.loads(preset) == [False, "3"]


def test_runtime_never_imports_scipy(tmp_path):
    # a fresh interpreter: scipy may already sit in this one's sys.modules
    script = f"""
import json, sys
from uclab.cli import main
assert main(["coupling", "delta-search", "--delta-steps", "100", "--v-steps", "32",
             "--mean-steps", "24", "--search-points", "3", "--search-restarts", "12",
             "--out", {str(tmp_path / "delta.json")!r}]) == 0
assert main(["all", "--out", {str(tmp_path / "all.json")!r}]) == 0
# a lemma search over four points starts no process pool either
assert main(["lemma", "--u-steps", "20", "--v-steps", "20", "--restarts", "8",
             "--atom-grid", "50", "--search-points", "4",
             "--out", {str(tmp_path / "lemma.json")!r}]) == 0
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] in ("scipy", "concurrent", "multiprocessing"))))
"""
    assert json.loads(_fresh_python("-c", script)) == []
    delta = json.loads((tmp_path / "delta.json").read_text())["results"]
    suite = json.loads((tmp_path / "all.json").read_text())["results"]["suites"]["coupling"]
    assert delta["lp_solves"] > 0 and suite["lp_solves"] > 0


def test_delta_search_loads_only_the_modules_it_needs(tmp_path):
    # a fresh interpreter, as above; numpy.ma is what np.unique pulls in
    script = f"""
import json, sys
from uclab.cli import main
loaded = sorted(name for name in sys.modules if name.startswith("uclab"))
has_dataclasses = "dataclasses" in sys.modules
assert main(["coupling", "delta-search", "--delta-steps", "100", "--v-steps", "32",
             "--mean-steps", "24", "--search-points", "3", "--search-restarts", "12",
             "--out", {str(tmp_path / "delta.json")!r}]) == 0
print(json.dumps([loaded, has_dataclasses, sorted(sys.modules)]))
"""
    at_import, dataclasses_at_import, after = json.loads(_fresh_python("-c", script))
    assert at_import == ["uclab", "uclab.cli", "uclab.reportio"]
    # the report writer takes dicts and NamedTuples, so it needs no dataclasses
    assert not dataclasses_at_import
    for name in ("numpy.ma", "uclab.setdist", "uclab.families", "uclab.counterexample"):
        assert name not in after
    assert json.loads((tmp_path / "delta.json").read_text())["results"]["lp_solves"] > 0


def test_module_entry_point_writes_the_in_process_report(tmp_path):
    argv = ["families", "--n", "2", "--seed", "3"]
    _fresh_python("-m", "uclab", *argv, "--out", str(tmp_path / "fresh.json"))
    assert main([*argv, "--out", str(tmp_path / "here.json")]) == 0
    assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "here.json").read_bytes()


def test_console_main_freezes_the_heap_after_main_only(tmp_path, monkeypatch):
    # neither console_main nor main turns the collector on or off; only
    # importing uclab.__main__ does
    enabled = gc.isenabled()
    calls = []
    real_emit = uclab.cli.emit_report

    def emit(*args, **kwargs):
        calls.append("emit")
        return real_emit(*args, **kwargs)

    monkeypatch.setattr(uclab.cli, "emit_report", emit)
    monkeypatch.setattr(uclab.cli.gc, "freeze", lambda: calls.append("freeze"))
    out = tmp_path / "x.json"
    monkeypatch.setattr(sys, "argv", ["uclab", "families", "--n", "2", "--out", str(out)])
    assert uclab.cli.console_main() == 0
    assert calls == ["emit", "freeze"]
    assert gc.isenabled() is enabled
    calls.clear()
    assert main(["families", "--n", "2", "--out", str(out)]) == 0
    assert calls == ["emit"]
    try:
        for state in (not enabled, enabled):
            gc.enable() if state else gc.disable()
            assert main(["families", "--n", "2", "--out", str(out)]) == 0
            assert gc.isenabled() is state
    finally:
        gc.enable() if enabled else gc.disable()


def test_cli_processes_run_without_the_cyclic_collector():
    # the `uclab` script and `python -m uclab` run console_main of
    # uclab.__main__, whose import turns automatic collection off before
    # numpy loads: after an explicit collect, importing it runs no pass.
    # tomllib is missing on Python 3.10, so the script entry is read by regex
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]")[1]
    module, func = re.search(r'^uclab\s*=\s*"([\w.]+):(\w+)"', scripts, re.M).groups()
    script = f"""
import gc, importlib, json
gc.collect()
passes = gc.get_stats()[0]["collections"]
import uclab.__main__
target = getattr(importlib.import_module({module!r}), {func!r})
print(json.dumps([gc.isenabled(), gc.get_stats()[0]["collections"] - passes,
                  target is uclab.__main__.console_main]))
"""
    assert json.loads(_fresh_python("-c", script)) == [False, 0, True]


def _small(lo=-1, hi=4):
    return st.integers(min_value=lo, max_value=hi).map(str)


# every integer flag at small values, zero and negatives included, so each
# run is quick and the lower bounds are crossed from both sides
_FUZZ_ARGV = st.one_of(
    st.tuples(st.just("scalar"), st.just("--grid"), _small(-2, 50)),
    st.tuples(st.just("families"), st.just("--n"), _small(-1, 5)),
    st.tuples(st.just("theorem2"), st.just("--trials"), _small(-1, 3),
              st.just("--max-n"), _small(-1, MAX_RANDOM_TABLE_N + 1)),
    st.tuples(st.just("lemma"), st.just("--u-steps"), _small(), st.just("--v-steps"), _small(),
              st.just("--restarts"), _small(), st.just("--atom-grid"), _small(-1, 20),
              st.just("--search-points"), _small()),
    st.tuples(st.just("coupling"), st.just("delta-search"), st.just("--delta-steps"), _small(),
              st.just("--v-steps"), _small(), st.just("--mean-steps"), _small(),
              st.just("--search-points"), _small(-1, 2), st.just("--search-restarts"), _small()),
    st.tuples(st.just("counterexample"), st.just("--n"), _small(-1, 8),
              st.just("--trunc"), _small(-1, 12)),
)


def _finite_only(name):
    raise ValueError(f"non-finite float {name} in a report")


def _float(flag, valid):
    """`flag=value` for a bad float or the valid one; the = form lets
    argparse take values such as -inf that start with a dash."""
    values = st.sampled_from(["nan", "inf", "-inf", "0", "-1", valid])
    return values.map(lambda value: f"{flag}={value}")


# every float flag at bad values and a valid one, on small sizes
_FUZZ_FLOAT_ARGV = st.one_of(
    st.tuples(st.just("lemma"), st.just("--u-steps=3"), st.just("--v-steps=4"),
              st.just("--restarts=2"), st.just("--atom-grid=10"), st.just("--search-points=2"),
              _float("--tol", "1e-9"), _float("--inflate-bound", "1.0")),
    st.tuples(st.just("theorem2"), st.just("--trials=2"), st.just("--max-n=3"),
              _float("--tol", "1e-10")),
    st.tuples(st.just("coupling"), st.just("delta-search"), st.just("--delta-steps=4"),
              st.just("--v-steps=4"), st.just("--mean-steps=4"), st.just("--search-points=1"),
              st.just("--search-restarts=1"), _float("--alpha", "0.05"),
              _float("--delta-max", "0.02")),
    st.tuples(st.just("counterexample"), _float("--ubar", "0.2"), _float("--u", "0.25"),
              _float("--d", "1.35"), _float("--theta", "0.01")),
)


def _assert_clean_exit(argv, seed):
    """The exit contract: 0, 1 or 2; exit 2 prints exactly one
    `uclab: error:` line and no report; every report float is finite."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--seed", str(seed)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("uclab: error: "), lines
    else:
        report = json.loads(out.getvalue(), parse_constant=_finite_only)
        assert report["passed"] is (code == 0)


@given(argv=_FUZZ_ARGV, seed=st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None, database=None)
def test_fuzz_small_flags_exit_cleanly(argv, seed):
    _assert_clean_exit(argv, seed)


@given(argv=_FUZZ_FLOAT_ARGV, seed=st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None, database=None)
def test_fuzz_float_flags_exit_cleanly(argv, seed):
    _assert_clean_exit(argv, seed)


# a file that each loader reads well: masks {0, 1, 3} (union-closed), a
# distribution summing to 1, a mixture whose weights sum to 1
_GOOD_HEADER = b"n=2"
_LOADERS = (
    (("theorem2", "--trials=1", "--max-n=2", "--dist-file"), (b"0 0.25", b"1 0.25", b"3 0.5"),
     (b"2 nan", b"2 inf", b"0 0.25", b"3 0.5", b"4 0.5", b"-1 0.5", b"2", b"2 0.5 1",
      b"zz 0.5", b"2 O.5", b"2 0.5\xc3\xa9", b"\xff 0.5")),
    (("theorem2", "--trials=1", "--max-n=2", "--mixture-file"), (b"0.5 0.25", b"0.5 0.75"),
     (b"nan 0.5", b"0.5 nan", b"inf 0.5", b"0.5 -inf", b"0.5", b"0.5 0.5 0.5", b"x 0.5",
      b"0 1.5", b"0.5 0.5\xe9")),
    (("coupling", "dp", "--family"), (b"0", b"1", b"3"),
     (b"1", b"3", b"4", b"-1", b"1 3", b"zz", b"g", b"\xe9")),
)
_BAD_HEADERS = (b"", b"n=", b"n=abc", b"n=0", b"n=-1", b"n=2.5", b"x=2", b"N=2", b"n=40",
                b"n=" + b"9" * 30)


@st.composite
def _bad_record_file(draw):
    """(argv prefix, file bytes) with at least one defect: a bad header, a
    bad record among good ones, no records, or no bytes at all."""
    argv, good, bad = draw(st.sampled_from(_LOADERS))
    header = draw(st.one_of(st.just(_GOOD_HEADER), st.sampled_from(_BAD_HEADERS)))
    lines = list(good)
    defect = draw(st.sampled_from((None, *bad)))
    if defect is not None:
        lines.insert(draw(st.integers(0, len(lines))), defect)
    elif header == _GOOD_HEADER or draw(st.booleans()):
        lines = []
    if header:
        lines.insert(0, header)
    return argv, b"".join(ln + b"\n" for ln in lines)


@given(case=_bad_record_file())
@settings(max_examples=80, deadline=None, database=None)
def test_fuzz_bad_record_files_exit_two(case):
    argv, content = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.txt"
        path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
    assert code == 2, (content, err.getvalue())
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("uclab: error: "), lines
