import argparse
import ast
import contextlib
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import os
import re
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
import uclab.coupling
import uclab.families
import uclab.measures
import uclab.setdist
from helpers import (
    fresh_python,
    reference_report_text,
    scale_bound_factor,
    takes,
    theorem2_loop,
    third_derivative_worst_loop,
    write_input_files,
)
from test_report_digests import DIGESTS, _key, host
from test_scalars import REFUSALS
from uclab.cli import MAX_RANDOM_TABLE_N, build_parser, main
from uclab.counterexample import MAX_N
from uclab.reportio import dumps_csv, dumps_json
from uclab.families import count_union_closed

# the action is named, as bench/workloads.py names it, so that it is parsed
FAST_LEMMA = ["lemma", "certify", "--u-steps", "30", "--v-steps", "60", "--restarts", "8",
              "--atom-grid", "200", "--search-points", "3"]


def run(args, tmp_path, name="out.json", fmt=None):
    out = tmp_path / name
    argv = list(args) + ["--out", str(out)]
    if fmt:
        argv += ["--format", fmt]
    code = main(argv)
    return code, out


def _subparsers():
    """{command: parser} of every command of build_parser() that runs, in
    the parser's order; a command with actions gives one per action, named
    by its words (`coupling delta-search`, `coupling dp`)."""
    def leaves(parser, words):
        sub = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not sub:
            return [(" ".join(words), parser)]
        return [leaf for name, p in sub[0].choices.items() for leaf in leaves(p, [*words, name])]

    return dict(leaves(build_parser(), []))


def _required_flags(parser):
    """A value for each flag that parser requires (dp's --family), so that a
    run is refused for what a test gives it, not for what it leaves out."""
    return [f"{action.option_strings[-1]}=x" for action in parser._actions
            if action.required and action.option_strings]


def _parser_options(kind):
    """(command, flag, default) of every option of build_parser() of type
    kind, in the parser's order, so a new flag is fuzzed with no edit."""
    return [(command, action.option_strings[0], action.default)
            for command, parser in _subparsers().items()
            for action in parser._actions if action.type is kind]


# the refusals of a flag given before the command and before the coupling action
_COMMAND_FIRST = "argument {}: the command comes first"
_ACTION_FIRST = "argument {}: the action (delta-search or dp) comes first"

# coupling dp at a family file; a run that exits 2 never reads it
_DP = ["coupling", "dp", "--family=fam.txt"]


@pytest.fixture
def no_handler_work(monkeypatch):
    """Every handler raises, so a run that exits 2 under this fixture
    refused before any handler work."""
    def no_work(args):
        raise AssertionError(f"{args.command} ran")

    for name in uclab.cli._HANDLERS:
        monkeypatch.setitem(uclab.cli._HANDLERS, name, no_work)


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        code, out = run(FAST_LEMMA, tmp_path)
        assert code == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_verification_failure_is_one_with_named_item(self, tmp_path, monkeypatch):
        scale_bound_factor(monkeypatch)
        code, out = run(FAST_LEMMA, tmp_path)
        assert code == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert any("lemma.two_atom_scan" in item for item in report["failures"])

    # argparse's texts, up to the list of choices, whose quoting varies
    # between Python versions
    @pytest.mark.parametrize("argv,message", [
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from "),
        ([], "the following arguments are required: command"),
        (["scalar", "--grid", "abc"], "argument --grid: invalid int value: 'abc'"),
        (["scalar", "--bogus"], "unrecognized arguments: --bogus"),
        (["lemma", "--u-steps"], "argument --u-steps: expected one argument"),
        (["theorem2", "--seed=--", "--seed", "0"], "argument --seed: expected one argument"),
        (["coupling"], "the following arguments are required: action"),
        (["coupling", "--seed", "3", "delta-search"], _ACTION_FIRST.format("--seed")),
        (["coupling", "--alpha=0.05", "delta-search"], _ACTION_FIRST.format("--alpha")),
        (["coupling", "--out", "r.json"], _ACTION_FIRST.format("--out")),
        (["coupling", "dp"], "the following arguments are required: --family"),
        (["--seed", "3", "lemma"], _COMMAND_FIRST.format("--seed")),
        (["--out=r.json", "lemma"], _COMMAND_FIRST.format("--out")),
        (["--bogus"], _COMMAND_FIRST.format("--bogus")),
        (["--alpha", "0.05", "coupling", "delta-search"], _COMMAND_FIRST.format("--alpha")),
        # no flag is abbreviated: a prefix of a flag is an unknown flag
        (["lemma", "--u=5"], "unrecognized arguments: --u=5"),
        (["counterexample", "--t=0.5"], "unrecognized arguments: --t=0.5"),
        (["coupling", "delta-search", "--delta=0.01"], "unrecognized arguments: --delta=0.01"),
        (["--he"], _COMMAND_FIRST.format("--he")),
        (["--vers"], _COMMAND_FIRST.format("--vers")),
        (["coupling", "--he"], _ACTION_FIRST.format("--he")),
        (["lemma", "bogus"], "argument action: invalid choice: 'bogus' (choose from "),
        (["families", "bogus"], "argument action: invalid choice: 'bogus' (choose from "),
    ], ids=["command", "no-command", "int", "flag", "no-value", "dashes-value", "no-action",
            "flag-before-action", "flag-value-before-action", "out-without-action", "dp-no-family",
            "flag-before-command", "flag-value-before-command", "unknown-flag-before-command",
            "action-flag-before-command", "abbrev-u-steps", "abbrev-theta", "abbrev-delta",
            "abbrev-help", "abbrev-version", "abbrev-help-before-action", "lemma-action",
            "families-action"])
    def test_bad_arguments_exit_two(self, argv, message, capsys, no_handler_work):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"uclab: error: {message}"), lines
        assert captured.out == ""

    def test_flag_before_the_command_is_refused_from_the_command_line(self, capsys, monkeypatch,
                                                                        no_handler_work):
        # main() with no argv, as the uclab script calls it, reads sys.argv
        monkeypatch.setattr(sys, "argv", ["uclab", "--seed", "3", "lemma"])
        assert main() == 2
        assert capsys.readouterr().err.splitlines() == [
            "uclab: error: " + _COMMAND_FIRST.format("--seed")]

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["-h"], ["lemma", "--help"],
                                      ["coupling", "--help"]])
    def test_help_and_version_still_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().err == ""

    # an unknown flag on every command that runs, its value joined or apart,
    # where argparse may take the value for the command's action (`families
    # --bogus 1`), is refused in one line that names the flag, not the value
    @pytest.mark.parametrize("argv", [
        [*command.split(), *_required_flags(parser), *given]
        for command, parser in _subparsers().items()
        for given in (["--bogus=1"], ["--bogus", "1"])
    ], ids=" ".join)
    def test_unknown_flag_with_a_value_exits_two(self, argv, tmp_path, capsys, no_handler_work):
        out = tmp_path / "x.json"
        assert main([*argv, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("uclab: error: unrecognized arguments: --bogus"), lines
        assert not out.exists()

    def test_oversized_table_file_exits_two_before_allocating(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("n=40\n0 1.0\n")
        out = tmp_path / "x.json"
        code = main(["theorem2", "--trials", "2", "--max-n", "3", "--dist-file", str(path),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["uclab: error: n of an explicit table must be at most 24, got 40"]

    @pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 128. MiB")])
    def test_out_of_memory_exits_two_with_one_line(self, error, tmp_path, monkeypatch, capsys):
        def exhausted(args):
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


def _failing_run(argv, item, tmp_path):
    """Run argv; it must exit 1, name item first in one of its failures and
    still write its report."""
    code, out = run(argv, tmp_path)
    assert code == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert any(f.startswith(item) for f in report["failures"]), report["failures"]
    return report["failures"]


class TestFailureItems:
    """Each exit-1 branch of a handler, made to fail with a patch where the
    mathematics cannot."""

    def test_families_below_the_threshold(self, tmp_path, monkeypatch):
        import uclab.families

        monkeypatch.setattr(uclab.families, "GOLDEN_THRESHOLD", 0.75)
        failures = _failing_run(["families", "--n", "3"], "families.min_best_proportion",
                                tmp_path)
        assert failures == ["families.min_best_proportion: 0.500000 < 0.750000"]

    def test_theorem2_random_table_below_the_bound(self, tmp_path, monkeypatch):
        real = uclab.setdist.union_entropy_rows

        def lowered(tables, n):
            u, lhs, rhs, slack, lam = real(tables, n)
            return u, lhs, rhs, slack - 1.0, lam

        monkeypatch.setattr(uclab.setdist, "union_entropy_rows", lowered)
        _failing_run(["theorem2", "--trials", "5", "--max-n", "4"],
                     "theorem2.random_tables: slack", tmp_path)

    @pytest.mark.parametrize("flag, label, name", [
        ("--dist-file", "dist_file", "dist"),
        ("--mixture-file", "mixture_file", "mix"),
    ])
    def test_theorem2_file_below_the_bound(self, flag, label, name, tmp_path, monkeypatch):
        real = uclab.setdist.union_entropy_check
        monkeypatch.setattr(uclab.setdist, "union_entropy_check",
                            lambda d: real(d)._replace(slack=-1.0))
        path = write_input_files(tmp_path)[name]
        failures = _failing_run(["theorem2", "--trials", "5", "--max-n", "4", flag, str(path)],
                                f"theorem2.{label}", tmp_path)
        assert f"theorem2.{label}: slack -1.000e+00 < -1e-10" in failures

    def test_counterexample_marginal_above_u(self, tmp_path):
        failures = _failing_run(["counterexample", "--theta", "0.5"],
                                "counterexample.marginal", tmp_path)
        assert failures == ["counterexample.marginal: 0.333333 exceeds u=0.25"]

    def test_counterexample_exact_values_escape_the_bounds(self, tmp_path, monkeypatch):
        import uclab.counterexample

        real = uclab.counterexample.exact_small_n_check
        monkeypatch.setattr(uclab.counterexample, "exact_small_n_check",
                            lambda params: real(params)._replace(exact_within_bounds=False))
        failures = _failing_run(["counterexample", "--n", "8", "--theta", "0.1", "--d", "1.5"],
                                "counterexample.exact", tmp_path)
        assert failures == ["counterexample.exact: exact values escape the bounds"]

    def test_coupling_dp_marginal_deviation(self, tmp_path, monkeypatch):
        import uclab.coupling

        real = uclab.coupling.greedy_coupling_dp
        monkeypatch.setattr(
            uclab.coupling, "greedy_coupling_dp",
            lambda fam, literal_rates: real(fam, literal_rates)._replace(
                max_marginal_deviation=0.25, marginals_uniform=False),
        )
        path = write_input_files(tmp_path)["fam"]
        failures = _failing_run(["coupling", "dp", "--family", str(path)], "coupling.dp",
                                tmp_path)
        assert failures == ["coupling.dp: marginal deviation 2.500e-01 > 1e-12"]

    @pytest.mark.parametrize("module, name, argv, item", [
        ("measures", "SEARCH_TOL", FAST_LEMMA, "lemma.local_search"),
        ("coupling", "MARGINAL_TOL", ["coupling", "dp", "--family", "{family}"], "coupling.dp"),
        ("cli", "THEOREM2_TOL", ["theorem2", "--trials", "2", "--max-n", "3"],
         "theorem2.product_sharpness"),
    ])
    def test_failure_text_reads_the_tolerance_that_decides_it(self, module, name, argv, item,
                                                              tmp_path, monkeypatch):
        # a negative tolerance fails a margin or deviation that is never below 0
        monkeypatch.setattr(getattr(uclab, module), name, -0.5)
        family = write_input_files(tmp_path)["fam"]
        argv = [a.format(family=family) for a in argv]
        (failure,) = [f for f in _failing_run(argv, item, tmp_path) if f.startswith(item)]
        assert failure.endswith(" > -5e-01")

    def test_lemma_scan_tolerance_is_one_constant(self, tmp_path, monkeypatch):
        # the failure text spells the SCAN_TOL that lemma_certificate compared with
        monkeypatch.setattr(uclab.measures, "SCAN_TOL", 2e-9)
        scale_bound_factor(monkeypatch)
        failures = _failing_run(FAST_LEMMA, "lemma.two_atom_scan", tmp_path)
        assert " < -2e-09 at u=" in failures[0]


def _slack_items(argv, tmp_path, monkeypatch, module, name, tol):
    """The failure items of argv, run with module.name patched to tol."""
    monkeypatch.setattr(getattr(uclab, module), name, tol)
    code, out = run(argv, tmp_path)
    assert code in (0, 1)
    return [f.split(":")[0] for f in json.loads(out.read_text())["failures"]]


class TestToleranceBoundary:
    """Each check of a reported value against its bound, run with the bound
    at exactly the value and one ulp to the other side: a check that uses
    the other of `<` and `<=`, or of `>` and `>=`, fails one of the two.
    Each slack check passes with its tolerance at exactly minus the worst
    slack of the run, and fails one ulp tighter."""

    @staticmethod
    def _one_ulp_tighter(worst):
        return float(np.nextafter(-worst, -np.inf))

    def test_lemma_scan(self, tmp_path, monkeypatch):
        _, out = run(FAST_LEMMA, tmp_path, "base.json")
        worst = json.loads(out.read_text())["results"]["worst_slack"]
        item = "lemma.two_atom_scan"
        assert item not in _slack_items(FAST_LEMMA, tmp_path, monkeypatch, "measures",
                                        "SCAN_TOL", -worst)
        assert item in _slack_items(FAST_LEMMA, tmp_path, monkeypatch, "measures", "SCAN_TOL",
                                    self._one_ulp_tighter(worst))

    # THEOREM2_TOL also bounds the product tables' |slack|, which a negative
    # tolerance fails, so only the item of the slack at hand is asserted on
    @pytest.mark.parametrize("label", ["random_tables", "dist_file"])
    def test_theorem2(self, label, tmp_path, monkeypatch):
        path = write_input_files(tmp_path)["dist"]
        argv = ["theorem2", "--trials", "5", "--max-n", "4", "--dist-file", str(path)]
        _, out = run(argv, tmp_path, "base.json")
        results = json.loads(out.read_text())["results"]
        worst = results["worst_slack"] if label == "random_tables" else results[label]["slack"]
        item = f"theorem2.{label}"
        assert item not in _slack_items(argv, tmp_path, monkeypatch, "cli", "THEOREM2_TOL",
                                        -worst)
        assert item in _slack_items(argv, tmp_path, monkeypatch, "cli", "THEOREM2_TOL",
                                    self._one_ulp_tighter(worst))

    # (argv, reported value, module and name of its bound, failure item, the
    # side of the value where the bound fails the check)
    @pytest.mark.parametrize("argv, key, module, name, item, fails", [
        (["families", "--n", "3"], "min_best_proportion", "families", "GOLDEN_THRESHOLD",
         "families.min_best_proportion", np.inf),
        ([*_DP[:2], "--family", "{fam}"], "max_marginal_deviation", "coupling", "MARGINAL_TOL",
         "coupling.dp", -np.inf),
        (FAST_LEMMA, "worst_search_margin", "measures", "SEARCH_TOL", "lemma.local_search",
         -np.inf),
        (["theorem2", "--trials", "5", "--max-n", "4"], "product_sharpness_worst", "cli",
         "THEOREM2_TOL", "theorem2.product_sharpness", -np.inf),
    ], ids=["families", "coupling-dp", "lemma-search", "theorem2-sharpness"])
    def test_bound_at_the_reported_value(self, argv, key, module, name, item, fails, tmp_path,
                                         monkeypatch):
        argv = [a.format(fam=write_input_files(tmp_path)["fam"]) for a in argv]
        _, out = run(argv, tmp_path, "base.json")
        value = json.loads(out.read_text())["results"][key]
        assert item not in _slack_items(argv, tmp_path, monkeypatch, module, name, value)
        assert item in _slack_items(argv, tmp_path, monkeypatch, module, name,
                                    float(np.nextafter(value, fails)))

    def test_counterexample_marginal(self, tmp_path):
        # --u reaches the marginal, which does not depend on it
        _, out = run(["counterexample"], tmp_path, "base.json")
        marginal = json.loads(out.read_text())["results"]["marginal"]
        items = []
        for u in (marginal, float(np.nextafter(marginal, -np.inf))):
            _, out = run(["counterexample", "--u", repr(u)], tmp_path)
            items.append([f.split(":")[0] for f in json.loads(out.read_text())["failures"]])
        assert items == [[], ["counterexample.marginal"]]

    def test_counterexample_ratio(self, tmp_path, monkeypatch):
        # --d must exceed the base ratio, and the ratio bound stays below
        # that, so no flag reaches it: with a lower bound of 1 the ratio is
        # the stand-in upper bound itself
        import uclab.counterexample

        monkeypatch.setattr(uclab.counterexample, "entropy_lower_bound", lambda params: 1.0)
        items = []
        for upper in (1.35, float(np.nextafter(1.35, -np.inf))):
            monkeypatch.setattr(uclab.counterexample, "union_entropy_upper_bound",
                                lambda params: upper)
            _, out = run(["counterexample", "--d", "1.35"], tmp_path)
            report = json.loads(out.read_text())
            assert report["results"]["ratio_upper"] == upper
            items.append([f.split(":")[0] for f in report["failures"]])
        assert items == [["counterexample.ratio"], []]

    # each bracket test of exact_small_n_check: the value on its left and
    # its bound from the other values
    _BRACKETS = {
        "entropy_lower": lambda v: v["entropy"] + 1e-10,
        "mix_lower": lambda v: v["entropy"] + 1e-10,
        "entropy": lambda v: v["mix_upper"] + 1e-10,
        "union_entropy": lambda v: v["union_entropy_upper"] + 1e-10,
        "kl": lambda v: v["kl_upper"] + 1e-10,
        "table_marginal": lambda v: 0.25 + 1e-12,  # --u at its default
    }

    @pytest.mark.parametrize("name", list(_BRACKETS))
    def test_counterexample_exact_bracket(self, name, tmp_path, monkeypatch):
        # no flag puts one exact value on its bound alone, so the check runs
        # on stand-in values, inside every other bracket
        import types

        import uclab.counterexample as ce

        values = {"entropy_lower": 4.0, "mix_lower": 4.0, "entropy": 5.0, "mix_upper": 6.0,
                  "union_entropy": 7.0, "union_entropy_upper": 8.0, "kl": 1.0, "kl_upper": 2.0,
                  "table_marginal": 0.2}

        def table(entropy, marginal=None):
            return types.SimpleNamespace(entropy=lambda: entropy, marginals=lambda: [marginal])

        real_bounds = ce.bounds_report
        monkeypatch.setattr(ce, "bounds_report", lambda params: real_bounds(params)._replace(
            entropy_lower=values["entropy_lower"], kl_upper=values["kl_upper"],
            union_entropy_upper=values["union_entropy_upper"]))
        monkeypatch.setattr(ce, "expand_mixture",
                            lambda mixture: table(values["entropy"], values["table_marginal"]))
        monkeypatch.setattr(ce, "union_of_independent",
                            lambda d1, d2: table(values["union_entropy"]))
        monkeypatch.setattr(ce, "kl_divergence", lambda d1, d2: values["kl"])
        monkeypatch.setattr(ce, "mixture_entropy_bounds",
                            lambda mixture: (values["mix_lower"], values["mix_upper"]))
        bound = self._BRACKETS[name](values)
        items = []
        for value in (bound, float(np.nextafter(bound, np.inf))):
            values[name] = value
            _, out = run(["counterexample", "--n", "10"], tmp_path)
            items.append([f.split(":")[0] for f in json.loads(out.read_text())["failures"]])
        assert items == [[], ["counterexample.exact"]]


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        _, out1 = run(FAST_LEMMA, tmp_path, "a.json")
        _, out2 = run(FAST_LEMMA, tmp_path, "b.json")
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_echo_does_not_depend_on_how_it_was_given(self, tmp_path):
        argv = ["theorem2", "--trials", "5", "--max-n", "4"]
        _, default = run(argv, tmp_path, "default.json")
        _, flag = run(argv + ["--seed", "1729"], tmp_path, "flag.json")
        assert default.read_bytes() == flag.read_bytes()
        assert list(json.loads(default.read_text())["config"]) == ["max_n", "seed", "trials"]
        _, other = run(argv + ["--seed", "5"], tmp_path, "other.json")
        assert json.loads(other.read_text())["config"]["seed"] == 5

    @pytest.mark.parametrize("command", [c.split() for c, parser in _subparsers().items()
                                         if "--seed" in parser._option_string_actions],
                             ids=" ".join)
    def test_negative_seed_exits_two_before_any_work(self, command, tmp_path, capsys,
                                                     no_handler_work):
        out = tmp_path / "x.json"
        assert main([*command, "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["uclab: error: --seed must be an integer of at least 0, got -1"]
        assert not out.exists()

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

    def test_report_round_trips(self, tmp_path):
        _, out = run(FAST_LEMMA, tmp_path)
        report = json.loads(out.read_text())
        from uclab.reportio import dumps_json

        assert json.loads(dumps_json(report)) == report


# (flag, default) of each number flag of coupling delta-search that coupling
# dp does not define, --seed among them
_DELTA_SEARCH_ONLY = [(flag, default) for command, flag, default in
                      _parser_options(int) + _parser_options(float)
                      if command == "coupling delta-search" and not takes(_DP, flag)]


# each command path with each flag that another command or action defines
# and it does not: `scalar --seed` (only lemma, theorem2, coupling
# delta-search and all draw), `all --format` (all writes JSON only),
# `coupling dp --alpha`
_UNREAD_FLAGS = [(command, flag) for command, parser in _subparsers().items()
                 for flag in sorted({f for p in _subparsers().values()
                                     for f in p._option_string_actions
                                     if f not in parser._option_string_actions})]


@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS,
                         ids=[f"{command} {flag}" for command, flag in _UNREAD_FLAGS])
def test_flag_is_not_accepted_where_it_is_not_read(command, flag, tmp_path, capsys,
                                                   no_handler_work):
    # the value joined to the flag and apart from it; the parsers with a
    # one-choice action (lemma, families) name the flag without its value
    path = [*command.split(), *_required_flags(_subparsers()[command])]
    out = tmp_path / "x.json"
    for given in ([f"{flag}=1"], [flag, "1"]):
        assert main([*path, *given, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"uclab: error: unrecognized arguments: {flag}")
        assert not out.exists()


_CLI_FUNCTIONS = {node.name: node for node in ast.parse(Path(uclab.cli.__file__).read_text()).body
                  if isinstance(node, ast.FunctionDef)}


def _args_read(statements):
    """The attributes of `args` that statements read."""
    return {node.attr for stmt in statements for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def _handler_statements(command):
    """The statements of cli.py's cmd_<name> that run for command: for an
    action, a branch `if args.action == "<action>":` that returns, and the
    statements outside every such branch for the other actions."""
    name, *action = command.split()
    statements = []
    for stmt in _CLI_FUNCTIONS[f"cmd_{name}"].body:
        branch = (isinstance(stmt, ast.If) and isinstance(stmt.body[-1], ast.Return)
                  and re.fullmatch(r"args\.action == '([\w-]+)'", ast.unparse(stmt.test)))
        if not branch:
            statements.append(stmt)
        elif [branch[1]] == action:
            return statements + stmt.body
    return statements


# the one-choice positional actions of lemma and families, which select
# nothing; bench/workloads.py runs `lemma certify` (ROADMAP, small residues)
_UNREAD_ACTIONS = {"lemma": ["action"], "families": ["action"]}


@pytest.mark.parametrize("command", list(_subparsers()))
def test_each_argument_is_read_by_the_code_that_runs_it(command):
    # an argument that its handler never reads is one that a run accepts and
    # ignores; main reads --out and --format for every command
    read = _args_read(_handler_statements(command)) | (
        {"out", "format"} & _args_read(_CLI_FUNCTIONS["main"].body))
    defined = [action.dest for action in _subparsers()[command]._actions if action.dest != "help"]
    assert [dest for dest in defined if dest not in read] == _UNREAD_ACTIONS.get(command, [])


class TestReportWrite:
    def test_missing_out_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["families", "--n", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("uclab: error: "), err
        assert str(out) in err[0]
        assert not out.exists()

    def test_non_ascii_path_is_escaped_into_an_ascii_report(self, tmp_path):
        path = write_input_files(tmp_path)["dist"].rename(tmp_path / "caf\u00e9-\U0001d4b3.txt")
        code, out = run(["theorem2", "--trials", "2", "--max-n", "3", "--dist-file", str(path)],
                        tmp_path)
        assert code == 0
        text = out.read_bytes().decode("ascii")
        assert "\\u00e9-\\ud835\\udcb3" in text
        report = json.loads(text)
        assert report["config"]["dist_file"] == str(path)


def _captured_report(argv, tmp_path, monkeypatch):
    """Run main on argv (its {dist}, {mix} and {fam} filled in) and return
    the report it hands to emit_report and the bytes written to --out."""
    reports = []
    real_emit = uclab.cli.emit_report

    def emit(report, *args, **kwargs):
        reports.append(report)
        return real_emit(report, *args, **kwargs)

    monkeypatch.setattr(uclab.cli, "emit_report", emit)
    paths = write_input_files(tmp_path)
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


# every kind of value the writer takes, the spellings that need care (NaN,
# infinities, -0.0, escapes) and the empty containers
_SYNTHETIC_REPORT = {
    "specials": [float("nan"), float("inf"), -float("inf"), -0.0],
    "text": 'caf\u00e9 \U0001d4b3 \udcff "q" \\ \x01',
    "empty": [{}, [], ()],
    7: "an int key",
    "numpy": [np.float32(0.1), np.int64(-3), np.bool_(False), np.array([[1.5, np.nan]])],
    "record": _Node({"leaf": _Leaf(0.1, "a,b")}, (1, None, True, np.float64(-0.0))),
}

_REFERENCE_CASES = {
    "all": ["all"],
    "theorem2-files": ["theorem2", "--trials", "20", "--max-n", "4",
                       "--dist-file", "{dist}", "--mixture-file", "{mix}"],
    "counterexample-exact": ["counterexample", "--n", "8"],
    "dp": ["coupling", "dp", "--family", "{fam}"],
    "dp-literal-rates": ["coupling", "dp", "--family", "{fam}", "--literal-rates"],
    "synthetic": None,
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_writer_matches_the_reference_writer(case, tmp_path, monkeypatch):
    # the reference coerces the whole report to plain values, then writes those
    argv = _REFERENCE_CASES[case]
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
                        lambda args: ({"rows": [{"x": object()}]}, []))
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
    "counterexample-exact": _REFERENCE_CASES["counterexample-exact"],
    "delta-search": ["coupling", "delta-search", "--delta-steps", "10", "--v-steps", "8",
                     "--mean-steps", "8", "--search-points", "3", "--search-restarts", "2"],
    "dp": _REFERENCE_CASES["dp"],
}


class TestCsvOutput:
    def test_lemma_sweep_one_row_per_u(self, tmp_path):
        code, out = run(FAST_LEMMA, tmp_path, "sweep.csv", fmt="csv")
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "u,ratio_bound,min_slack,argmin_v"
        assert len(lines) == 1 + 31  # header plus one row per grid u (incl. threshold)

    @pytest.mark.parametrize("case", sorted(_CSV_CASES))
    def test_every_subcommand_matches_the_reference_writer(self, case, tmp_path, monkeypatch):
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
            ["coupling", "delta-search", "--delta-steps", "10", "--v-steps", "8",
             "--mean-steps", "8", "--format", "csv"], tmp_path, monkeypatch)
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


class TestTheorem2Command:
    def test_random_tables_pass(self, tmp_path):
        code, out = run(["theorem2", "--trials", "50", "--max-n", "6"], tmp_path)
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["worst_slack"] >= -1e-10
        assert res["product_sharpness_worst"] <= 1e-10

    def test_no_table_checked_fails(self, tmp_path):
        # at this seed the one table drawn has an element in every set, so it is skipped
        code, out = run(["theorem2", "--trials", "1", "--max-n", "2", "--seed", "14"], tmp_path)
        assert code == 1
        report = json.loads(out.read_text())
        assert report["failures"] == ["theorem2.random_tables: no table checked"]
        assert report["results"]["worst_slack"] is None
        assert report["results"]["worst_case"] is None

    def test_dist_file(self, tmp_path):
        path = write_input_files(tmp_path)["dist"]
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
        path = write_input_files(tmp_path)["mix"]
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
            "uclab: error: probabilities must be finite, got nan"
        ]
        assert not out.exists()

    def test_mask_one_past_the_table_exits_two(self, tmp_path, capsys):
        path = tmp_path / "dist.txt"
        path.write_text("n=2\n4 1.0\n", encoding="ascii")
        out = tmp_path / "x.json"
        assert main(["theorem2", "--dist-file", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "uclab: error: mask 0x4 out of range for n=2"
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

    def test_zero_slack_tie_across_stacks_goes_to_the_first_trial(self):
        # at this seed three drawn tables reach slack exactly 0, with no
        # rounding to tell them apart; the n = 2 stack is checked first
        rows, _ = theorem2_loop(200, 6, 7)
        tied = [row for row in rows if row["slack"] == 0.0]
        assert [(row["trial"], row["n"]) for row in tied] == [(49, 3), (85, 2), (163, 3)]
        assert _theorem2_report(200, 6, 7)["worst_case"] == tied[0]

    @pytest.mark.parametrize(
        "cap, flags",
        [(1 << 16, ["--max-n", "16", "--trials", "40"]),
         (1 << 12, ["--max-n", "5", "--trials", "600"]),
         # a cap below the largest table: those tables go one to a stack
         (1 << 10, ["--max-n", "12", "--trials", "30"])],
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
        # the random tables are every stack but the last, the product tables
        random_stacks = shapes[:-1]
        assert all(rows == 1 for rows, cells in random_stacks if rows * cells > cap)
        assert any(cells > cap for _, cells in random_stacks) == (1 << int(flags[1]) > cap)
        # they hold more cells than one stack may: the cap split them
        assert sum(rows * cells for rows, cells in random_stacks) > cap


def _theorem2_report(trials, max_n, seed):
    args = uclab.cli.build_parser().parse_args(
        ["theorem2", "--trials", str(trials), "--max-n", str(max_n), "--seed", str(seed)]
    )
    report, _ = uclab.cli.cmd_theorem2(args)
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
        code, out = run(["counterexample", "--n", "8", "--theta", "0.1", "--d", "1.5"],
                        tmp_path)
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["exact_within_bounds"] is True

    # theta derives trunc = ceil(30 / -log theta): 44 at 0.5, 21 at 0.235
    # and 20 at 0.22; the exact check takes n and trunc up to EXACT_MAX_N =
    # 12 and EXACT_MAX_TRUNC = 20, and a run past either cap gets the bounds
    # alone
    @pytest.mark.parametrize("flags, failed, exact", [
        (["--n", "5", "--theta", "0.5"], ["marginal", "ratio"], False),
        (["--n", "5", "--theta", "0.235", "--d", "3"], [], False),
        (["--n", "13", "--theta", "0.5"], ["marginal"], False),
        (["--n", "12", "--theta", "0.22", "--d", "3"], [], True),
    ], ids=["trunc-44", "trunc-21", "n", "at-both-caps"])
    def test_exact_check_runs_within_both_caps(self, flags, failed, exact, tmp_path):
        code, out = run(["counterexample", *flags], tmp_path)
        assert code == (1 if failed else 0)
        report = json.loads(out.read_text())
        assert [f.split(":")[0] for f in report["failures"]] == [
            f"counterexample.{item}" for item in failed]
        assert (report["results"]["exact_within_bounds"] is not None) is exact
        assert (report["results"]["exact_entropy"] is not None) is exact

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

    def test_largest_n_runs(self, tmp_path):
        code, out = run(["counterexample", "--n", str(MAX_N)], tmp_path)
        assert code == 0
        assert json.loads(out.read_text())["config"]["n"] == MAX_N


class TestCouplingCommand:
    def test_dp_with_family_file(self, tmp_path):
        path = write_input_files(tmp_path)["fam"]
        code, out = run(["coupling", "dp", "--family", str(path)], tmp_path)
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["marginals_uniform"] is True

    def test_dp_literal_rates_reported_not_asserted(self, tmp_path):
        path = write_input_files(tmp_path)["fam"]
        code, out = run(
            ["coupling", "dp", "--family", str(path), "--literal-rates"], tmp_path
        )
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["max_marginal_deviation"] > 1e-3

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

    def test_delta_search_with_no_two_atom_candidate_keeps_its_report(self, tmp_path):
        # the grid holds only the threshold, where v < mean never holds, so
        # the scan is the point at the threshold and the search's measures.
        # The digest is of the report recorded before the scan ran in blocks,
        # less the inputs its results repeated (alpha, delta_max, delta_steps
        # and seed) and config's command; both x86 dispatch paths of
        # report_digests.json give these bytes
        code, out = run(["coupling", "delta-search", "--delta-steps", "1", "--v-steps", "0",
                         "--mean-steps", "0", "--seed", "1729"], tmp_path)
        report = json.loads(out.read_text())
        assert code == 1
        assert report["failures"] == ["coupling.delta_search: no positive margin certified"]
        assert (report["results"]["measures_scanned"], report["results"]["violations"]) == (5, 4)
        key = _key(host())
        if key not in {_key(block) for block in json.loads(DIGESTS.read_text())["blocks"]}:
            pytest.skip(f"no block recorded for {key}")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "c49c6abda81c1d8a0d635ae9a31e15780568d53524397b7f63456d92fe1cb4c2")

    def test_stdout_when_no_out(self, capsys):
        code = main(["families", "--n", "2"])
        assert code == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["passed"] is True


_SMALL_DELTA = ["coupling", "delta-search", "--delta-steps", "10", "--v-steps", "8",
                "--mean-steps", "8", "--search-points", "3"]


@pytest.mark.parametrize("restarts", ["1", "3", "8"])
@pytest.mark.parametrize("argv, flag", [(FAST_LEMMA, "--restarts"),
                                        (_SMALL_DELTA, "--search-restarts")],
                         ids=["lemma", "delta-search"])
def test_reported_restarts_are_the_restarts_run(argv, flag, restarts, tmp_path, monkeypatch):
    # fewer restarts than search points, as many, and more: each restart
    # draws from its own default_rng, so the generators made are the
    # restarts run, whatever the flag asked for
    real, seeds = np.random.default_rng, []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or real(seed))
    code, out = run([*argv, flag, restarts], tmp_path)
    assert code in (0, 1)
    assert json.loads(out.read_text())["results"]["search_restarts"] == len(seeds)


# every command path at small flags, its input files named {dist}, {mix} and {fam}
_SMALL_RUNS = {
    "scalar": ["scalar", "--grid", "50"],
    "lemma": FAST_LEMMA,
    "families": ["families", "--n", "2"],
    "theorem2": ["theorem2", "--trials", "3", "--max-n", "3", "--dist-file", "{dist}",
                 "--mixture-file", "{mix}"],
    "counterexample": ["counterexample", "--n", "10"],
    "coupling delta-search": _SMALL_DELTA,
    "coupling dp": [*_DP[:2], "--family", "{fam}", "--literal-rates"],
    "all": ["all"],
}
# the results keys of each command path that share a flag's name, each with
# a run where its value is not the flag's: a work count is the count that
# ran (the lemma grid gains the threshold and the search a point there; 8
# restarts over 3 points run 6), and a file check is the check of the file,
# not its path
_SHARED_KEYS = {
    "lemma": {"u_steps": FAST_LEMMA, "search_points": FAST_LEMMA},
    "coupling delta-search": {"search_restarts": [*_SMALL_DELTA, "--search-restarts", "8"]},
    "theorem2": {"dist_file": _SMALL_RUNS["theorem2"],
                 "mixture_file": _SMALL_RUNS["theorem2"]},
}


def _report(argv, tmp_path):
    paths = write_input_files(tmp_path)
    code, out = run([arg.format(**paths) for arg in argv], tmp_path)
    assert code in (0, 1)
    return json.loads(out.read_text())


@pytest.mark.parametrize("command", list(_subparsers()))
def test_no_report_states_an_input_twice(command, tmp_path):
    # config holds the parsed flags and results what the run computed; each
    # suite of `all` is checked against the flags it was parsed from
    report = _report(_SMALL_RUNS[command], tmp_path)
    config = report["config"]
    assert not config.keys() & {"command", "out", "format"}
    pairs = [(command, config, report["results"])]
    if command == "all":
        parser = build_parser()
        for name, flags in uclab.cli._COMPACT_SUITE.items():
            suite = vars(parser.parse_args([name, *flags]))
            suite = {k: config.get(k, v) for k, v in suite.items()
                     if k not in ("command", "out", "format")}
            path = name if name in _SMALL_RUNS else f"{name} {flags[0]}"
            pairs.append((path, suite, report["results"]["suites"][name]))
    for path, flags, results in pairs:
        shared = _SHARED_KEYS.get(path, {}).keys()
        assert sorted(flags.keys() & results.keys() - shared) == []
        # no input path is written again in results
        text = json.dumps(results)
        assert [v for v in flags.values() if isinstance(v, str) and os.sep in v
                and json.dumps(v)[1:-1] in text] == []


@pytest.mark.parametrize("command, key", [
    (command, key) for command, keys in _SHARED_KEYS.items() for key in keys])
def test_each_shared_key_differs_from_its_flag(command, key, tmp_path):
    argv = _SHARED_KEYS[command][key]
    assert argv[:len(command.split())] == command.split()
    report = _report(argv, tmp_path)
    assert key in report["config"]
    assert report["results"][key] != report["config"][key]


@pytest.mark.parametrize("argv, calls, restarts", [
    (["coupling", "delta-search"], 8, 112), (["all"], 10, 160), (["lemma"], 51, 990)],
    ids=["delta-search", "all", "lemma"])
def test_search_stacks_stay_within_their_cap(argv, calls, restarts, tmp_path, monkeypatch):
    # each stack of pool size m holds at most SEARCH_STACK_CELLS // m^2
    # restarts (at least one); at the defaults the full stacks hold exactly
    # that many, so one row more would show
    stacks, real = [], uclab.measures._exchange_descent

    def spy(x, w, lam, u):
        rows, m = x.shape
        stacks.append((rows, max(1, uclab.measures.SEARCH_STACK_CELLS // (m * m))))
        return real(x, w, lam, u)

    monkeypatch.setattr(uclab.measures, "_exchange_descent", spy)
    code, _ = run(argv, tmp_path)
    assert code == 0
    assert all(rows <= cap for rows, cap in stacks)
    assert any(rows == cap for rows, cap in stacks)
    assert (len(stacks), sum(rows for rows, _ in stacks)) == (calls, restarts)


@pytest.mark.parametrize("argv, fn, shared", [
    (["lemma"], "measures.lemma_certificate",
     ["atom_grid", "restarts", "search_points", "seed", "u_steps", "v_steps"]),
    (["coupling", "delta-search"], "coupling.delta_search",
     ["delta_max", "delta_steps", "mean_steps", "search_points", "search_restarts", "seed",
      "v_steps"]),
    (["counterexample"], "counterexample.CounterexampleParams",
     ["d", "n", "theta", "u", "ubar"]),
])
def test_cli_defaults_are_the_library_defaults(argv, fn, shared):
    import importlib
    import inspect

    module, *path = fn.split(".")
    target = importlib.import_module(f"uclab.{module}")
    for attr in path:
        target = getattr(target, attr)
    lib = {name: p.default for name, p in inspect.signature(target).parameters.items()
           if p.default is not p.empty}
    cli = vars(build_parser().parse_args(argv))
    assert sorted(lib.keys() & cli.keys()) == shared
    assert {k: cli[k] for k in shared} == {k: lib[k] for k in shared}


def _all_parsers(parser):
    """parser and every sub-parser under it, at any depth."""
    sub = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [parser, *(p for a in sub for child in a.choices.values() for p in _all_parsers(child))]


def test_removed_flags_stay_removed():
    # --tol (every tolerance is a constant), --trunc (counterexample derives
    # it from theta) and --jobs (no process pool) are read by no command
    flags = {flag for parser in _all_parsers(build_parser())
             for flag in parser._option_string_actions}
    assert flags and not flags & {"--tol", "--trunc", "--jobs"}


def test_no_option_is_hidden():
    # an option hidden from --help would be one that only tests pass
    hidden = [(parser.prog, action.dest) for parser in _all_parsers(build_parser())
              for action in parser._actions if action.help is argparse.SUPPRESS]
    assert hidden == []


def test_readme_names_exactly_the_parser_flags():
    # a flag README still advertises after it went, or one it never names,
    # fails here; --write and --no-build-isolation belong to other programs.
    # README lists each compact suite of `all` as it runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    defined = {flag for parser in _all_parsers(build_parser()) for action in parser._actions
               for flag in action.option_strings if flag.startswith("--")}
    assert named - {"--write", "--no-build-isolation"} == defined
    words = " ".join(readme.split())
    assert [command for command, flags in uclab.cli._COMPACT_SUITE.items()
            if f"`{' '.join([command, *flags])}`" not in words] == []


def _readme_sweeps():
    """The shell blocks under README's Experiment scripts, backslash line
    continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Experiment scripts\n")[1].split("\n## ")[0]
    return [block.replace("\\\n", " ") for block in re.findall(r"```sh\n(.*?)```", section, re.S)]


@pytest.mark.parametrize("block", _readme_sweeps(),
                         ids=lambda block: block.split()[1].split(",")[0])
def test_readme_sweeps_print_the_columns_they_name(block, tmp_path):
    # a sweep echoes its header, loops over the flag of its first label and
    # prints the loop's value, then the CSV fields the other labels name
    labels = re.search(r"^\s*echo (\S+)$", block, re.M).group(1).split(",")
    var, first = re.search(r"for (\w+) in (\S+)", block).groups()
    argv = re.search(r"uclab (.*?)\|", block, re.S).group(1).split()
    printed = re.search(r"NR == 2 \{print (\w+) (.*)\}", block).groups()
    assert (argv[argv.index(f"--{labels[0]}") + 1], printed[0]) == (f"${var}", var)
    code, out = run([first if arg == f"${var}" else arg for arg in argv], tmp_path)
    assert code == 0
    header, _ = out.read_text().splitlines()
    assert [header.split(",")[int(k) - 1] for k in re.findall(r"\$(\d+)", printed[1])] \
        == labels[1:]


def _abbreviations(parser):
    """(given, flag) for each long flag of parser that has a strict prefix no
    other of its flags starts with: the shortest such prefix, which argparse
    took for the flag where abbreviations were allowed, as the arguments
    that give it, with a value joined and a value apart if the flag takes
    one."""
    flags = [flag for flag in parser._option_string_actions if flag.startswith("--")]
    for flag in flags:
        prefix = next((flag[:end] for end in range(3, len(flag))
                       if sum(f.startswith(flag[:end]) for f in flags) == 1), None)
        if prefix and parser._option_string_actions[flag].nargs != 0:
            yield [f"{prefix}=1"], flag
            yield [prefix, "1"], flag
        elif prefix:
            yield [prefix], flag


@pytest.mark.parametrize("parser", _all_parsers(build_parser()), ids=lambda p: p.prog)
def test_no_flag_is_abbreviated(parser, capsys, no_handler_work):
    # each flag's shortest unique prefix is refused as an unknown flag, by
    # name where the parser wants its command or action first, and with its
    # value apart too (`lemma --u 5`, where lemma's action would take the 5);
    # argparse echoes a value given apart after the flag, which is dropped
    # here; a required flag (dp's --family) is given so that the prefix is
    # what is refused
    path = [*parser.prog.split()[1:], *_required_flags(parser)]
    seen, expected = [], []
    for given, flag in _abbreviations(parser):
        code = main([*path, *given])
        seen.append((flag, code, [line.removesuffix(" 1")
                                  for line in capsys.readouterr().err.splitlines()]))
        text = (f"argument {given[0].split('=')[0]}: {parser.first} comes first" if parser.first
                else f"unrecognized arguments: {given[0]}")
        expected.append((flag, 2, [f"uclab: error: {text}"]))
    assert seen and seen == expected


# One fresh CLI process, probed in stages.  It starts with
# OPENBLAS_NUM_THREADS unset and sets it to 3, as a user would, before it
# imports uclab.__main__.  Each stage records the loaded
# modules, OPENBLAS_NUM_THREADS, whether _hashlib is loaded and, where
# /proc/self/maps lists this process's mappings, whether OpenSSL's libcrypto
# is mapped (else None).  json is imported only to print the stages at the
# end, because whether uclab loads it is one of the things probed.
_CLI_PROBE = """
import gc, importlib, os, sys
stages = []

def stage(name, **seen):
    maps = "/proc/self/maps"
    mapped = any("libcrypto" in line for line in open(maps)) if os.path.exists(maps) else None
    stages.append(dict(name=name, modules=sorted(sys.modules),
                       blas=os.environ.get("OPENBLAS_NUM_THREADS"),
                       hashlib=sys.modules.get("_hashlib") is not None, libcrypto=mapped, **seen))

import uclab
stage("import uclab")
gc.collect()
passes = gc.get_stats()[0]["collections"]
os.environ["OPENBLAS_NUM_THREADS"] = "3"
import uclab.__main__
target = getattr(importlib.import_module({module!r}), {func!r})
stage("import uclab.__main__", gc=[gc.isenabled(), gc.get_stats()[0]["collections"] - passes,
                                   target is uclab.__main__.console_main])

import contextlib, io
from uclab.cli import main
from uclab.reportio import emit_report
codes = []
for argv in (["--version"], ["--help"], ["lemma", "--u-steps", "x"], ["coupling"],
             ["coupling", "--alpha", "0.05", "delta-search"], ["coupling", "--out", "r.json"],
             ["--seed", "3", "lemma"], ["--out=r.json", "lemma"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
emit_report({report}, path=os.path.join({out!r}, "plain.json"))
emit_report({report}, fmt="csv", path=os.path.join({out!r}, "plain.csv"))
stage("refusals and a plain report", codes=codes)

code = main(["coupling", "delta-search", "--delta-steps", "100", "--v-steps", "32",
             "--mean-steps", "24", "--search-points", "3", "--search-restarts", "12",
             "--out", os.path.join({out!r}, "delta.json")])
stage("delta-search", code=code)

# a lemma search over four points starts no process pool either
codes = [main(["all", "--out", os.path.join({out!r}, "all.json")]),
         main(["lemma", "--u-steps", "20", "--v-steps", "20", "--restarts", "8",
               "--atom-grid", "50", "--search-points", "4",
               "--out", os.path.join({out!r}, "lemma.json")])]
import hashlib
stage("all, lemma and hashlib", codes=codes, sha256=hashlib.sha256(b"").hexdigest())

import json
print(json.dumps(stages))
"""
# a report of plain Python values, which the probe writes before any
# handler has loaded numpy
_PLAIN_REPORT = ('{"results": {"x": [1.5, float("nan"), -2, None], "s": "\\u00e9", '
                 '"rows": [{"ok": True}]}}')


@pytest.fixture(scope="module")
def cli_probe(tmp_path_factory):
    """The stages of _CLI_PROBE by name, and the directory of its reports.
    The target of the `uclab` script is read from pyproject.toml by regex,
    because tomllib is missing on Python 3.10."""
    out = tmp_path_factory.mktemp("cli_probe")
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]")[1]
    module, func = re.search(r'^uclab\s*=\s*"([\w.]+):(\w+)"', scripts, re.M).groups()
    script = _CLI_PROBE.format(module=module, func=func, report=_PLAIN_REPORT, out=str(out))
    return {s.pop("name"): s for s in json.loads(fresh_python("-c", script))}, out


@pytest.fixture(scope="module")
def library_probe():
    """[numpy loaded by `import uclab`, OPENBLAS_NUM_THREADS after `import
    uclab.cli`, _hashlib loaded] in a fresh library caller that left the
    variable unset and imported hashlib."""
    script = """
import json, os, sys
import uclab
numpy_at_import = "numpy" in sys.modules
import hashlib, uclab.cli
print(json.dumps([numpy_at_import, os.environ.get("OPENBLAS_NUM_THREADS"),
                  sys.modules.get("_hashlib") is not None]))
"""
    return json.loads(fresh_python("-c", script))


def test_single_threaded_blas_is_set_before_numpy_loads(cli_probe, library_probe):
    # OpenBLAS reads the variable once, when numpy loads it: `import uclab`
    # must not load numpy, and importing uclab.cli, not only uclab.__main__,
    # sets it before its own numpy import; a value the caller set wins
    assert library_probe[:2] == [False, "1"]
    stages, _ = cli_probe
    assert "numpy" not in stages["import uclab"]["modules"]
    assert stages["import uclab"]["blas"] is None
    assert stages["import uclab.__main__"]["blas"] == "3"


def test_runtime_never_imports_scipy(cli_probe):
    # a fresh interpreter: scipy may already sit in this one's sys.modules
    stages, out = cli_probe
    assert stages["delta-search"]["code"] == 0
    assert stages["all, lemma and hashlib"]["codes"] == [0, 0]
    assert [name for name in stages["all, lemma and hashlib"]["modules"]
            if name.split(".")[0] in ("scipy", "concurrent", "multiprocessing")] == []
    delta = json.loads((out / "delta.json").read_text())["results"]
    suite = json.loads((out / "all.json").read_text())["results"]["suites"]["coupling"]
    assert delta["lp_solves"] > 0 and suite["lp_solves"] > 0


def test_delta_search_loads_only_the_modules_it_needs(cli_probe):
    # numpy.ma is what np.unique pulls in
    stages, out = cli_probe
    at_import = stages["import uclab.__main__"]["modules"]
    assert [name for name in at_import if name.startswith("uclab")] == [
        "uclab", "uclab.__main__", "uclab.cli", "uclab.reportio"]
    # the report writer takes dicts and NamedTuples, so it needs no dataclasses;
    # numpy loads when a handler starts work, and json when a report is written
    assert not {"dataclasses", "numpy", "json"} & set(at_import)
    assert stages["delta-search"]["code"] == 0
    after = stages["delta-search"]["modules"]
    for name in ("numpy.ma", "uclab.setdist", "uclab.families", "uclab.counterexample"):
        assert name not in after
    assert json.loads((out / "delta.json").read_text())["results"]["lp_solves"] > 0


def test_runs_that_end_before_any_handler_load_no_numpy(cli_probe):
    # --help, --version and every refusal of the arguments end before a
    # handler imports numpy, and writing a report of plain Python values
    # loads none either
    stages, out = cli_probe
    probed = stages["refusals and a plain report"]
    assert probed["codes"] == [0, 0, 2, 2, 2, 2, 2, 2]
    assert "numpy" not in probed["modules"]
    # the bytes the writer gave before, which the report's numpy twin gives
    # here, where numpy is loaded
    twin = {"results": {"x": [np.float64(1.5), np.array(np.nan), np.int64(-2), None],
                        "s": np.str_("\u00e9"), "rows": [{"ok": np.bool_(True)}]}}
    assert (out / "plain.json").read_text() == dumps_json(twin) + "\n" == (
        '{\n  "results": {\n    "x": [\n      1.5,\n      NaN,\n      -2,\n      null\n    ],\n'
        '    "s": "\\u00e9",\n    "rows": [\n      {\n        "ok": true\n      }\n    ]\n  }\n}\n')
    assert (out / "plain.csv").read_text() == dumps_csv(twin["results"]) == "ok\ntrue\n"


# the commands that draw random numbers run through uclab.__main__, where
# _hashlib is blocked, as well as through main() in this process, where
# hashlib is loaded; `all` runs each of them
def test_module_entry_point_writes_the_in_process_report(tmp_path):
    fresh_python("-m", "uclab", "all", "--out", str(tmp_path / "fresh.json"))
    assert main(["all", "--out", str(tmp_path / "here.json")]) == 0
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


def test_cli_processes_run_without_the_cyclic_collector(cli_probe):
    # the `uclab` script and `python -m uclab` run console_main of
    # uclab.__main__, whose import turns automatic collection off before
    # numpy loads: after an explicit collect, importing it runs no pass
    stages, _ = cli_probe
    assert stages["import uclab.__main__"]["gc"] == [False, 0, True]


def test_cli_processes_load_no_openssl(cli_probe):
    # numpy.random imports secrets, hmac and _hashlib, which maps libcrypto;
    # importing uclab.__main__ blocks _hashlib, and hashlib still works on
    # CPython's builtin hashes
    probed = cli_probe[0]["all, lemma and hashlib"]
    assert probed["sha256"] == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert probed["hashlib"] is False and probed["libcrypto"] in (False, None)


def test_library_callers_keep_openssl(library_probe):
    if importlib.util.find_spec("_hashlib") is None:
        pytest.skip("this Python has no _hashlib")
    assert library_probe[2] is True


def _small(lo=-1, hi=4):
    return st.integers(min_value=lo, max_value=hi).map(str)


def _flag(flag, values):
    """`flag=value` for each drawn value; the = form lets argparse take
    values such as -1 or -inf that start with a dash."""
    return values.map(lambda value: f"{flag}={value}")


def _by_command(parts):
    """{command: [part, ...]} of (command, part) pairs, in their order."""
    grouped = {}
    for command, part in parts:
        grouped.setdefault(command, []).append(part)
    return grouped


def _fuzz_argv(parts):
    """One argv per command of the (command, strategy) pairs parts: the
    command's words, then one draw of each of its strategies."""
    return st.one_of(*(st.tuples(*map(st.just, command.split()), *drawn)
                       for command, drawn in _by_command(parts).items()))


def _command(argv):
    """The command words an argv starts with, as _subparsers() names them."""
    return " ".join(itertools.takewhile(lambda word: not word.startswith("-"), argv))


# every integer flag but --seed, which each fuzz run draws itself, at small
# values, zero and negatives included, so each run is quick and the lower
# bounds are crossed from both sides: -1..4, or the range given here; in
# about one draw of four, at a value that its row of REFUSALS refuses or at
# a 400-digit integer, which must all be refused before any work
_SMALL_RANGES = {
    ("scalar", "--grid"): (-2, 50),
    ("families", "--n"): (-1, 5),
    ("theorem2", "--trials"): (-1, 3),
    ("theorem2", "--max-n"): (-1, MAX_RANDOM_TABLE_N + 1),
    ("lemma", "--atom-grid"): (-1, 20),
    ("coupling delta-search", "--search-points"): (-1, 2),
    ("counterexample", "--n"): (-1, 8),
}
_INT_FLAGS = [(command, flag) for command, flag, _ in _parser_options(int)]


def _int_values(command, flag, rows):
    past = st.sampled_from([str(value) for value, _ in rows] + ["9" * 400])
    small = _small(*_SMALL_RANGES.get((command, flag), (-1, 4)))
    return st.integers(min_value=0, max_value=3).flatmap(lambda k: past if k == 0 else small)


_FUZZ_ARGV = _fuzz_argv(
    (_command(argv), _flag(argv[-1], _int_values(_command(argv), argv[-1], rows)))
    for argv, rows in REFUSALS.values()
    if isinstance(argv, list) and (_command(argv), argv[-1]) in _INT_FLAGS)


def test_refusal_table_names_every_number_flag():
    # one CLI row per integer and float flag; --seed is checked on its own
    rows = sorted((_command(argv), argv[-1]) for argv, _ in REFUSALS.values()
                  if isinstance(argv, list))
    assert rows == sorted((command, flag) for kind in (int, float)
                          for command, flag, _ in _parser_options(kind) if flag != "--seed")


def _finite_only(name):
    raise ValueError(f"non-finite float {name} in a report")


# values of a float flag that its checks may refuse
_BAD_FLOATS = ["nan", "inf", "-inf", "0", "-1", "1e-300"]
# the small sizes a command with a float flag runs at, so each run is quick
_FLOAT_SIZES = {
    "coupling delta-search": ["--delta-steps=4", "--v-steps=4", "--mean-steps=4",
                              "--search-points=1", "--search-restarts=1"],
}
# a second valid value of every float flag, off its default, so that a bad
# value that bites only beside another flag's non-default gets drawn (a
# tiny --ubar beside a large --d)
_OTHER_FLOATS = {
    ("counterexample", "--ubar"): "0.1",
    ("counterexample", "--u"): "0.5",
    ("counterexample", "--d"): "3",
    ("counterexample", "--theta"): "0.1",
    ("coupling delta-search", "--alpha"): "0.5",
    ("coupling delta-search", "--delta-max"): "0.01",
}


# {command: [(flag, valid values)]}: each float flag at its default and at
# its other valid value
_FLOAT_FLAGS = _by_command(
    (command, (flag, [repr(default), _OTHER_FLOATS.get((command, flag), "nan")]))
    for command, flag, default in _parser_options(float))


def _float_cases(command):
    """The argvs of command at its small sizes, one per float flag of it
    and bad float: that flag at that value, every other float flag at its
    drawn valid value."""
    flags = [flag for flag, _ in _FLOAT_FLAGS[command]]

    def cases(valid):
        return [(*command.split(), *_FLOAT_SIZES.get(command, []),
                 *(f"{flag}={bad if flag == at else value}" for flag, value in zip(flags, valid)))
                for at in flags for bad in _BAD_FLOATS]

    return st.tuples(*(st.sampled_from(values) for _, values in _FLOAT_FLAGS[command])).map(cases)


# a command drawn in proportion to its float flags, with one valid value
# drawn per float flag, run with each flag in turn at each bad value: one
# draw in 4 (--d=3 on counterexample) puts a bad --ubar beside a
# large --d
_FUZZ_FLOAT_CASES = st.sampled_from([command for command, _, _ in
                                     _parser_options(float)]).flatmap(_float_cases)


def test_every_float_flag_has_a_second_valid_value():
    assert set(_OTHER_FLOATS) == {(command, flag) for command, flag, _ in _parser_options(float)}


# every integer flag at text with no digit in it, an unknown flag on every
# command, and coupling dp with a delta-search flag, at its default value
# too: all exit 2
_FUZZ_REFUSED_ARGV = st.one_of(
    st.tuples(st.sampled_from(_INT_FLAGS), st.text(alphabet="abxyz.+-_ e", max_size=6)).map(
        lambda t: (*t[0][0].split(), f"{t[0][1]}={t[1]}")),
    st.tuples(st.sampled_from(list(_subparsers())),
              st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=8)).map(
        lambda t: (*t[0].split(), f"--x{t[1]}")),
    st.tuples(st.sampled_from([flag for flag, _ in _DELTA_SEARCH_ONLY]),
              st.sampled_from(["0", "1", "-1", "nan", "5", "7", "0.05", "112"])).map(
        lambda t: (*_DP, f"{t[0]}={t[1]}")),
)


def _assert_clean_exit(argv, seed):
    """The exit contract: 0, 1 or 2; exit 2 prints exactly one
    `uclab: error:` line and leaves --out absent; exits 0 and 1 write a
    report to --out that parses, with every float finite and every
    failure named `<command>.<item>`.  The seed is given where the command
    takes --seed.  Returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    seeded = ["--seed", str(seed)] if takes(argv, "--seed") else []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, *seeded, "--out", str(path)])
        assert code in (0, 1, 2)
        assert out.getvalue() == ""
        if code == 2:
            assert not path.exists()
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("uclab: error: "), lines
        else:
            report = json.loads(path.read_text(), parse_constant=_finite_only)
            assert report["passed"] is (code == 0)
            assert all(f.startswith(f"{argv[0]}.") for f in report["failures"]), report
    return code


@given(argv=_FUZZ_ARGV, seed=st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None, database=None)
def test_fuzz_small_flags_exit_cleanly(argv, seed):
    _assert_clean_exit(argv, seed)


@given(cases=_FUZZ_FLOAT_CASES, seed=st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None, database=None)
def test_fuzz_float_flags_exit_cleanly(cases, seed):
    for argv in cases:
        _assert_clean_exit(argv, seed)


@given(argv=_FUZZ_REFUSED_ARGV, seed=st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None, database=None)
def test_fuzz_refused_arguments_exit_two(argv, seed):
    assert _assert_clean_exit(argv, seed) == 2


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
