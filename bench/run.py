"""uclab benchmark: times `python -m uclab <subcommand>` as a user runs it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is delta-search, lemma, tables, suite, or `all` for the four in turn.
Run from anywhere; the program is taken from `src/` beside this directory.

With `--trace 0` the benchmark starts one fresh CLI process at a time for S
seconds and reports the end-to-end metrics (wall_s, setup_s, cpu_s,
peak_rss_mb, ok_ratio).  With `--trace 1` it runs the same argv in-process
under bench/tracer.py and reports the per-layer metrics instead.  Every
report is validated (bench/workloads.py); a failed or invalid run counts as
failed.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The full record of the run
(environment, every sample, every problem) goes to
.bench_work/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import workloads
from tracer import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# set-up is a fresh interpreter importing uclab.cli.  Between CLI
# invocations the run takes import samples until they have used
# SETUP_SHARE of its time so far, so the samples spread over the whole run
# as the machine's speed drifts; it takes at least SETUP_MIN of them.  One
# untimed import first writes the bytecode cache that a user's first run
# would write.
SETUP_SHARE = 0.3
SETUP_MIN = 12
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import uclab.cli; print(time.perf_counter() - t)"
)
# no CLI process is started, or left running, past this many seconds of a run
DEADLINE_S = 165.0

UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "ratio"}


class HarnessError(Exception):
    """The benchmark could not run the program at all."""


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("UCLAB_SEED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_process(argv, env, stdout_path, stderr_path, timeout):
    """Run argv to completion; returns (exit code, wall s, CPU s, peak RSS MiB).

    CPU time and peak RSS come from wait4, so they cover the process and
    the pool workers it reaped; the peak is the largest single process's."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def setup_once(env, tmp: Path) -> tuple:
    """(process wall s, in-process import s) of a fresh interpreter importing uclab.cli."""
    out, err = tmp / "setup.out", tmp / "setup.err"
    code, wall, _, _ = run_process([sys.executable, "-c", IMPORT_SNIPPET], env, out, err, 60.0)
    if code != 0:
        raise HarnessError(f"importing uclab.cli failed: {err.read_text(errors='replace')[-400:]}")
    return wall, float(out.read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_untraced(workload, seed, seconds, env, tmp, started, setup):
    argv = [sys.executable, "-m", "uclab", *workloads.cli_argv(workload, seed, tmp)]
    reference = workloads.load_reference()
    samples = []
    loop_start = time.perf_counter()
    while True:
        out, err = tmp / "report.json", tmp / "stderr.txt"
        remaining = DEADLINE_S - (time.perf_counter() - started)
        code, wall, cpu, rss = run_process(argv, env, out, err, remaining)
        text = out.read_text(encoding="utf-8", errors="replace")
        problems = workloads.validate(workload, seed, code, text, reference)
        if problems:
            problems.append("stderr: " + err.read_text(errors="replace")[-400:])
        samples.append(
            {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "ok": not problems, "problems": problems}
        )
        while sum(w for w, _ in setup) < SETUP_SHARE * (time.perf_counter() - loop_start):
            setup.append(setup_once(env, tmp))
        now = time.perf_counter()
        # one more invocation and the set-up samples that follow it
        typical = statistics.median(s["wall_s"] for s in samples) / (1.0 - SETUP_SHARE)
        if now - loop_start + typical > seconds or now - started + typical > DEADLINE_S:
            return argv, samples


def run_traced(workload, seed, seconds, env, tmp, started):
    argv = workloads.cli_argv(workload, seed, tmp)
    out = tmp / "trace.json"
    elapsed = time.perf_counter() - started
    # the set-up samples taken before the traced run count against the run's seconds
    tracer_argv = [sys.executable, str(HERE / "tracer.py"), "--seconds", str(max(seconds - elapsed, 1.0)),
                   "--out", str(out), "--", *argv]
    remaining = DEADLINE_S - elapsed
    code, _, _, _ = run_process(tracer_argv, env, tmp / "tracer.out", tmp / "tracer.err", remaining)
    if code != 0 or not out.exists():
        err = (tmp / "tracer.err").read_text(errors="replace")[-400:]
        return argv, [{"ok": False, "problems": [f"traced run exited {code}: {err}"], "metrics": {}}], None
    record = json.loads(out.read_text(encoding="utf-8"))
    reference = workloads.load_reference()
    samples = []
    for run in record["runs"]:
        problems = workloads.validate(workload, seed, run["exit_code"], run["report"], reference)
        samples.append({"ok": not problems, "problems": problems, "metrics": run["metrics"]})
    return argv, samples, record


def run_workload(workload, seed, seconds, trace, env, environment_record) -> dict:
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp_name:
        tmp = Path(tmp_name)
        setup_once(env, tmp)
        setup = []
        if trace:
            setup = [setup_once(env, tmp) for _ in range(SETUP_MIN)]
            argv, samples, trace_record = run_traced(workload, seed, seconds, env, tmp, started)
        else:
            argv, samples = run_untraced(workload, seed, seconds, env, tmp, started, setup)
            while len(setup) < SETUP_MIN:
                setup.append(setup_once(env, tmp))
        if trace and trace_record is not None:
            shutil.copyfile(tmp / "trace.json", results / f"spans-{workload}-seed{seed}.json")
    ok = [s for s in samples if s["ok"]]
    timed = ok or samples
    metrics = {}
    if trace:
        # every per-layer metric from the one repeat with the median traced
        # wall time, so its self times add up to its trace.wall_s
        if trace_record is not None:
            for name, value in samples[trace_record["median_run"]]["metrics"].items():
                metrics[name] = {"value": value, "unit": unit_of(name)}
        metrics["cli.import_s"] = {"value": statistics.median(i for _, i in setup), "unit": "s"}
    else:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            values = [s[name] for s in timed]
            q1, q3 = quartiles(values)
            metrics[name] = {"value": statistics.median(values), "unit": UNITS[name], "q1": q1, "q3": q3, "n": len(values)}
        walls = [w for w, _ in setup]
        q1, q3 = quartiles(walls)
        metrics["setup_s"] = {"value": statistics.median(walls), "unit": "s", "q1": q1, "q3": q3, "n": len(walls)}
        metrics["ok_ratio"] = {"value": len(ok) / len(samples), "unit": "ratio", "n": len(samples)}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment_record,
        "argv": argv,
        "attempted": len(samples),
        "failed": len(samples) - len(ok),
        "setup": [{"wall_s": w, "import_s": i} for w, i in setup],
        "samples": samples,
        "metrics": metrics,
    }
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="uclab benchmark")
    ap.add_argument("--workload", required=True, choices=[*workloads.COMMANDS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "uclab" / "cli.py").is_file():
        print(f"bench: no uclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.COMMANDS) if args.workload == "all" else [args.workload]
    env = cli_env()
    environment_record = environment()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace, env, environment_record) for w in names]
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(f"environment: {json.dumps(environment_record)}")
    for rec in records:
        print(f"{rec['workload']} (seed {args.seed}, trace {args.trace}): "
              f"{rec['attempted'] - rec['failed']}/{rec['attempted']} runs verified")
        for sample in rec["samples"]:
            for problem in sample["problems"]:
                print(f"  FAILED: {problem}")
        for name, m in rec["metrics"].items():
            print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
        prefix = f"{rec['workload']}." if len(records) > 1 else ""
        combined["attempted"] += rec["attempted"]
        combined["failed"] += rec["failed"]
        combined["correct"] = combined["correct"] and rec["failed"] == 0
        for name, m in rec["metrics"].items():
            combined["metrics"][prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
