"""Record a baseline: the benchmark over several seeds, with quartiles and spreads.

    python3 bench/baseline.py --seeds 1-10 --out bench/BASELINE.json

For every seed it runs each workload of BENCHMARK.json once for the
BENCHMARK.json run length (`bench/run.py --trace 0`, seeds in the outer
loop so drift spreads over all workloads).  It then makes two traced runs
of each of the four workloads at the default seed.  Per gated workload it
reports, for every end-to-end metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median
beside the metric's bound, and calls the set steady when every spread is
below a third of its bound.  Per workload it adds the per-layer table of
the first traced run and whether every count repeated exactly across the
two.  The traced wall time (`trace.wall_s`) sits beside the untraced
`wall_s`; their difference holds the serial pool of the traced run, the
tracing overhead, and interpreter start and import.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from run import ROOT, environment

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench_once(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: {result['attempted'] - result['failed']}/"
          f"{result['attempted']} verified, "
          + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if trace == 0),
          flush=True)
    return result


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    ap.add_argument("--out", help="write the baseline JSON here")
    args = ap.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            runs[w].append(bench_once(w, seed, seconds, 0))
    traces = {w: [bench_once(w, workloads.DEFAULT_SEED, seconds, 1) for _ in range(2)]
              for w in workloads.COMMANDS}

    out = {"env": environment(), "seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for w in workloads.COMMANDS:
        entry = {}
        if w in names:
            entry["attempted"] = sum(r["attempted"] for r in runs[w])
            entry["failed"] = sum(r["failed"] for r in runs[w])
            entry["end_to_end"] = {}
            print(f"{w}: {entry['attempted'] - entry['failed']}/{entry['attempted']} runs verified")
            print(f"  {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
            for name, m in bounds.items():
                s = summarize([r["metrics"][name]["value"] for r in runs[w]])
                s["unit"] = m["unit"]
                s["bound"] = m["bound"]
                entry["end_to_end"][name] = s
                flag = ""
                if s["spread"] > m["bound"] / 3:
                    flag = "  above a third of its bound"
                    steady = False
                print(f"  {name:14s} {s['median']:10.4g} {s['q1']:10.4g} {s['q3']:10.4g} "
                      f"{s['spread']:7.2%} {m['bound']:6.0%} {m['unit']}{flag}")
        layers = traces[w][0]["metrics"]
        counts = [k for k, v in layers.items() if v["unit"] == "count"]
        entry["per_layer"] = {k: v["value"] for k, v in layers.items()}
        entry["counts_repeat"] = all(
            t["metrics"][k]["value"] == layers[k]["value"] for t in traces[w] for k in counts
        )
        entry["traced_wall_s"] = layers["trace.wall_s"]["value"]
        beside = ""
        if w in names:
            beside = (f" beside untraced wall_s {entry['end_to_end']['wall_s']['median']:.4g} s"
                      " (the difference holds the serial pool, the tracing overhead,"
                      " and interpreter start and import)")
        print(f"{w} traced: wall {entry['traced_wall_s']:.4g} s{beside}; "
              f"counts repeat exactly: {entry['counts_repeat']}")
        out["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print("steady: every spread below a third of its bound" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
