"""Compare two baselines written by bench/baseline.py, metric by metric.

    python3 bench/compare.py OLD.json NEW.json

For every workload in both files and every end-to-end metric it prints the
two medians, the change in the metric's worse direction as a share of the
old median, and a verdict against the bound in BENCHMARK.json:
`regression` beyond the bound, `unresolved` when either side's own spread
is wider than the bound (unless every new run reads better than every old
run), `ok` otherwise.  It refuses (exit 2) to compare results taken with a
different `os.cpu_count()`, because that sets the CLI's default --jobs.
Exit status 1 means at least one regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(old: dict, new: dict, better: str, bound: float) -> tuple:
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (new["median"] - old["median"]) / old["median"] if old["median"] else 0.0
    if worse > bound:
        return worse, "regression"
    if max(old["spread"], new["spread"]) > bound:
        all_better = all(sign * (n - o) < 0 for n in new["values"] for o in old["values"])
        return worse, "ok" if all_better else "unresolved"
    return worse, "ok"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    old = json.loads(Path(args.old).read_text(encoding="utf-8"))
    new = json.loads(Path(args.new).read_text(encoding="utf-8"))
    if old["env"]["cpu_count"] != new["env"]["cpu_count"]:
        print(f"compare: refusing: os.cpu_count() is {old['env']['cpu_count']} in {args.old} "
              f"but {new['env']['cpu_count']} in {args.new}; it sets the CLI's default --jobs",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    regressions = 0
    # workloads that only have a traced run carry no end-to-end metrics
    gated = [w for w, e in old["workloads"].items()
             if "end_to_end" in e and "end_to_end" in new["workloads"].get(w, {})]
    for w in gated:
        print(w)
        for m in spec["end_to_end"]:
            o = old["workloads"][w]["end_to_end"][m["name"]]
            n = new["workloads"][w]["end_to_end"][m["name"]]
            worse, word = verdict(o, n, m["better"], m["bound"])
            regressions += word == "regression"
            print(f"  {m['name']:14s} {o['median']:10.4g} -> {n['median']:10.4g} {m['unit']:6s} "
                  f"worse by {worse:+7.2%} (bound {m['bound']:.0%}): {word}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
