import json
from types import SimpleNamespace

import numpy as np
import pytest

from uclab.cli import main
from uclab.families import Family, save_family
from uclab.setdist import golden_threshold_mixture, product_bernoulli, save_distribution, save_mixture

FAST_LEMMA = ["lemma", "--u-steps", "30", "--v-steps", "60", "--restarts", "8",
              "--atom-grid", "200", "--search-points", "3"]


def run(args, tmp_path, name="out.json", fmt=None):
    out = tmp_path / name
    argv = list(args) + ["--out", str(out), "--jobs", "1"]
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
                     "--out", str(out), "--jobs", "1"])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["uclab: error: explicit tables are limited to n <= 24"]

    def test_internal_failure_is_one_with_named_item(self, tmp_path, monkeypatch):
        import uclab.coupling

        def failing_linprog(*args, **kwargs):
            return SimpleNamespace(status=4, message="stub solver failure", x=None)

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


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        _, out1 = run(FAST_LEMMA, tmp_path, "a.json")
        _, out2 = run(FAST_LEMMA, tmp_path, "b.json")
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        out1 = tmp_path / "j1.json"
        out2 = tmp_path / "j2.json"
        assert main(FAST_LEMMA + ["--jobs", "1", "--out", str(out1)]) == 0
        assert main(FAST_LEMMA + ["--jobs", "2", "--out", str(out2)]) == 0
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

    def test_report_round_trips(self, tmp_path):
        _, out = run(FAST_LEMMA, tmp_path)
        report = json.loads(out.read_text())
        from uclab.reportio import dumps_json

        assert json.loads(dumps_json(report)) == report


class TestCsvOutput:
    def test_lemma_sweep_one_row_per_u(self, tmp_path):
        code, out = run(FAST_LEMMA, tmp_path, "sweep.csv", fmt="csv")
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "u,ratio_bound,min_slack,argmin_v"
        assert len(lines) == 1 + 31  # header plus one row per grid u (incl. threshold)


class TestScalarCommand:
    def test_passes(self, tmp_path):
        code, out = run(["scalar", "--grid", "20000"], tmp_path)
        assert code == 0
        rows = json.loads(out.read_text())["results"]["rows"]
        assert all(r["ok"] for r in rows)
        names = {r["check"] for r in rows}
        assert "third_derivative_match" in names


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


class TestTheorem2Command:
    def test_random_tables_pass(self, tmp_path):
        code, out = run(["theorem2", "--trials", "50", "--max-n", "6"], tmp_path)
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["worst_slack"] >= -1e-10
        assert res["product_sharpness_worst"] <= 1e-10

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

    def test_dp_requires_family(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["coupling", "dp", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

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

    def test_stdout_when_no_out(self, capsys):
        code = main(["families", "--n", "2", "--jobs", "1"])
        assert code == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["passed"] is True
