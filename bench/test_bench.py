"""Self-tests of the benchmark harness:  python3 -m pytest bench -q"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_the_union_of_children():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],  # overlaps b: together they cover [1, 6]
        ["d", 2.0, 3.0, 1],
        ["e", 9.0, 11.0, 0],  # runs past its parent: only [9, 10] counts
        ["f", 12.0, 13.5, None],
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 2.0, 1.5])


def test_layer_self_times_and_unattributed_add_up_to_the_wall():
    t = tracer.Tracer()
    t.spans[:] = [
        ["cli.all", 0.5, 9.0, None],
        ["measures.lemma_certificate", 1.0, 5.0, 0],
        ["measures.two_atom_min_scan", 1.5, 2.0, 1],
        ["scalars.binary_entropy", 1.6, 1.7, 2],
        ["coupling.linprog", 6.0, 8.0, 0],
        ["reportio.emit_report", 9.0, 9.25, None],
    ]
    m = tracer.layer_metrics(tracer.TracedRun(0, "{}\n", "", 10.0, t))
    layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert m["trace.unattributed_s"] == pytest.approx(10.0 - 8.5 - 0.25)
    assert layers + m["trace.unattributed_s"] == pytest.approx(10.0)
    assert m["cli.all.self_s"] == pytest.approx(8.5 - 4.0 - 2.0)
    assert m["measures.self_s"] == pytest.approx(3.5 + 0.4)
    assert m["scalars.self_s"] == pytest.approx(0.1)
    assert m["coupling.linprog.calls"] == 1
    assert m["reportio.report_bytes"] == 3


def test_per_layer_metrics_come_from_the_median_repeat():
    runs = [{"metrics": {"trace.wall_s": w}} for w in (3.0, 1.0, 2.0, 4.0)]
    assert tracer.median_run(runs) == 2
    assert tracer.median_run(runs[:3]) == 2


def test_codes_scanned_counts_the_candidates_the_enumeration_builds():
    m = tracer.layer_metrics(tracer.traced_main(["families", "--n", "2"]))
    # the scan and the count each build the 2^(2^2) - 1 nonempty codes and
    # find 13 union-closed families among them
    assert m["families.codes_scanned"] == 2 * 15
    assert m["families.useful_ratio"] == pytest.approx(26 / 30)


def _put(node, keys, value):
    key = int(keys[0]) if isinstance(node, list) else keys[0]
    if isinstance(node, list):
        node.extend(None for _ in range(key + 1 - len(node)))
    if len(keys) == 1:
        node[key] = value
        return
    child = node[key] if isinstance(node, list) else node.get(key)
    if child is None:
        child = [] if keys[1].isdigit() else {}
        node[key] = child
    _put(child, keys[1:], value)


def _report(workload, seed, passed=True, **changes):
    fields = dict(workloads.load_reference()[workload], **changes)
    results: dict = {}
    for path, value in fields.items():
        _put(results, path.split("."), value)
    return json.dumps({
        "command": workloads.COMMANDS[workload][0],
        "config": {"seed": seed},
        "passed": passed,
        "failures": [] if passed else ["something failed"],
        "results": results,
    })


@pytest.mark.parametrize("workload", list(workloads.COMMANDS))
def test_validator_accepts_the_recorded_headlines(workload):
    assert workloads.validate(workload, 1729, 0, _report(workload, 1729)) == []


def test_validator_rejects_failed_or_wrong_reports():
    seed = workloads.DEFAULT_SEED
    assert workloads.validate("lemma", seed, 0, _report("lemma", seed, passed=False))
    assert workloads.validate("lemma", seed, 0, _report("lemma", seed, worst_u=0.5))
    assert workloads.validate("delta-search", seed, 0, _report("delta-search", seed, violations=2015))
    assert workloads.validate("suite", seed, 0, _report("suite", seed, **{"suites.coupling.delta": 0.0}))
    assert workloads.validate("lemma", seed, 1, _report("lemma", seed))
    assert workloads.validate("lemma", seed, 0, "{not json")
    assert workloads.validate("lemma", 7, 0, _report("lemma", seed))  # seed not echoed
    # headline values are only pinned at the default seed
    assert workloads.validate("lemma", 7, 0, _report("lemma", 7, worst_u=0.5)) == []


def test_table_inputs_follow_the_seed(tmp_path):
    a, b, c = (tmp_path / x for x in "abc")
    for d, seed in ((a, 5), (b, 5), (c, 6)):
        d.mkdir()
        workloads.write_table_inputs(seed, d)
    for name in ("dist.txt", "mixture.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() != (c / name).read_bytes()
    lines = (a / "dist.txt").read_text().split("\n")
    assert lines[0] == "n=22" and len(lines) == 1 + 4096 + 1


def _attribute_snapshot():
    cli = sys.modules["uclab.cli"]
    setdist = sys.modules["uclab.setdist"]
    snap = {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "uclab" or name.startswith("uclab.")
        for key, value in vars(module).items()
    }
    snap.update({("_HANDLERS", k): v for k, v in cli._HANDLERS.items()})
    snap.update({("ExplicitSetDistribution", k): v for k, v in vars(setdist.ExplicitSetDistribution).items()})
    return snap


@pytest.mark.parametrize(
    "argv",
    [
        ["families"],
        ["lemma", "--u-steps", "8", "--v-steps", "20", "--restarts", "4", "--atom-grid", "40",
         "--search-points", "2"],
        ["coupling", "delta-search", "--delta-steps", "50", "--v-steps", "12", "--mean-steps", "8",
         "--search-points", "2", "--search-restarts", "2"],
    ],
)
def test_traced_run_restores_every_attribute(argv):
    import uclab.cli

    before = _attribute_snapshot()
    traced = tracer.traced_main(argv)
    after = _attribute_snapshot()
    assert traced.exit_code == 0
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced.tracer.spans, "nothing was traced"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert uclab.cli.main(list(argv)) == 0
    assert out.getvalue() == traced.stdout


def test_traced_metrics_match_the_declared_per_layer_metrics():
    traced = tracer.traced_main(["families"])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = set(tracer.layer_metrics(traced)) | {"cli.import_s"}
    assert names == {m["name"] for m in declared}
    assert all(tracer.unit_of(m["name"]) == m["unit"] for m in declared)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lemma", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_refuses_a_different_cpu_count(tmp_path, capsys):
    base = {"env": {"cpu_count": 2}, "workloads": {}}
    (tmp_path / "a.json").write_text(json.dumps(base))
    (tmp_path / "b.json").write_text(json.dumps(dict(base, env={"cpu_count": 4})))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert "cpu_count" in capsys.readouterr().err


def test_compare_skips_workloads_with_only_a_traced_run(tmp_path, capsys):
    spread = {"median": 1.0, "q1": 1.0, "q3": 1.0, "spread": 0.0, "values": [1.0]}
    metrics = {m["name"]: spread for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    base = {"env": {"cpu_count": 2},
            "workloads": {"suite": {"end_to_end": metrics}, "lemma": {"per_layer": {}}}}
    (tmp_path / "a.json").write_text(json.dumps(base))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    out = capsys.readouterr().out
    assert "suite" in out and "lemma" not in out
