"""Command-line entry point: verification suites and machine-readable reports.

Subcommands: scalar, lemma, families, theorem2, counterexample, coupling,
all.  Each run emits one JSON (default) or CSV report to --out or stdout;
progress and the pass/fail summary go to stderr.  Exit status is 0 when
every asserted inequality held, 1 when a verification failed or an internal
check tripped (the failing item is named in the report), and 2 on bad
arguments or inputs.

Reports are byte-stable for a fixed configuration and seed: floats are
printed with 17 significant digits and nothing run-dependent (such as wall
time, which is only logged to stderr) enters the file.  The seed defaults
to the documented constant 1729; the UCLAB_SEED environment variable
overrides the default, and --seed overrides both.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import sys
import time

# Every BLAS call uclab makes is small (matrix-vector products of at most
# 200 rows), so OpenBLAS's worker threads never speed one up; at numpy's
# import they start anyway and spin on a second core (about 0.1 s of CPU
# per process).  Set before numpy is loaded, here or through reportio, so
# it takes effect; a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import DEFAULT_SEED, __version__  # noqa: E402
from .reportio import emit_report  # noqa: E402

# Each handler imports the modules it uses, so a command loads only those:
# `coupling delta-search` never imports setdist, families or counterexample.

MAX_SCALAR_GRID = 1_000_000
# theorem2 draws tables on up to 2^max_n masks; a full table at n = 16
# takes about 0.06 s to draw, one at n = 24 about 20 s and GBs
MAX_RANDOM_TABLE_N = 16
# theorem2 checks its random tables in stacks of at most this many table
# cells in all, so its memory does not grow with --trials; at least
# 2^MAX_RANDOM_TABLE_N, so a stack can always take one more table
TABLE_STACK_CELLS = 1 << 16


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 1729, or UCLAB_SEED)")


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None,
                   help="override the subcommand's main failure tolerance")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The uclab parser, built once per process: `all` parses its compact
    suites with the same parser as main(), and parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="uclab",
        description="Numerical checks for union-closed families, entropy "
        "inequalities, and worst-case couplings.",
    )
    ap.add_argument("--version", action="version", version=f"uclab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scalar", help="closed-form scalar function checks")
    p.add_argument("--grid", type=int, default=100_000)
    _add_common(p)

    p = sub.add_parser("lemma", help="certify the variational inequality over measures")
    p.add_argument("action", nargs="?", choices=["certify"], default="certify")
    p.add_argument("--u-steps", type=int, default=1000)
    p.add_argument("--v-steps", type=int, default=1000)
    p.add_argument("--restarts", type=int, default=1000)
    p.add_argument("--atom-grid", type=int, default=1000)
    p.add_argument("--search-points", type=int, default=21)
    p.add_argument("--inflate-bound", type=float, default=1.0, help=argparse.SUPPRESS)
    _add_tol(p)
    _add_common(p)

    p = sub.add_parser("families", help="exhaustive union-closed family verification")
    p.add_argument("action", nargs="?", choices=["enumerate"], default="enumerate")
    p.add_argument("--n", type=int, default=4)
    _add_common(p)

    p = sub.add_parser("theorem2", help="union-entropy lower bound on explicit distributions")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-n", type=int, default=8,
                   help=f"largest ground set of the random tables, 2..{MAX_RANDOM_TABLE_N}")
    p.add_argument("--dist-file", help="also check the distribution in this file")
    p.add_argument("--mixture-file", help="also check the expanded mixture in this file")
    _add_tol(p)
    _add_common(p)

    p = sub.add_parser("counterexample", help="geometric mixture with bounded KL divergence")
    p.add_argument("--ubar", type=float, default=0.2)
    p.add_argument("--u", type=float, default=0.25)
    p.add_argument("--d", type=float, default=1.35)
    p.add_argument("--theta", type=float, default=0.01)
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--trunc", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("coupling", help="worst-coupling search and the coupling process")
    p.add_argument("action", nargs="?", choices=["delta-search", "dp"], default="delta-search")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--delta-max", type=float, default=0.02)
    p.add_argument("--delta-steps", type=int, default=200)
    p.add_argument("--v-steps", type=int, default=96)
    p.add_argument("--mean-steps", type=int, default=96)
    p.add_argument("--search-points", type=int, default=7)
    p.add_argument("--search-restarts", type=int, default=112)
    p.add_argument("--family", help="family file for the dp action")
    p.add_argument("--literal-rates", action="store_true",
                   help="dp only: condition each side's rate on the other side's prefix")
    _add_common(p)

    p = sub.add_parser("all", help="run a compact version of every suite")
    _add_common(p)
    return ap


def _resolve_seed(args) -> int:
    """--seed, else UCLAB_SEED, else DEFAULT_SEED; numpy's generators take
    only non-negative seeds, so a negative one is refused before any work."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get("UCLAB_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            seed, source = int(env), "UCLAB_SEED"
        except ValueError:
            raise ValueError(f"UCLAB_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _tol(args, default: float) -> float:
    """--tol, or the subcommand's default; a NaN tolerance would make every
    `slack < -tol` test false, so it must be finite and nonnegative."""
    if args.tol is None:
        return default
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and nonnegative, got {args.tol}")
    return args.tol


def cmd_scalar(args, seed: int):
    from .numdiff import scaled_step, third_derivative
    from .scalars import (
        GOLDEN_THRESHOLD,
        PHI,
        binary_entropy,
        d3_entropy_of_square,
        d3_s_entropy,
        entropy_ratio_bound,
        entropy_square_gap,
        entropy_square_ratio,
        union_prob,
    )

    grid = args.grid
    if not 0 < grid <= MAX_SCALAR_GRID:
        raise ValueError(f"--grid must be a positive integer of at most {MAX_SCALAR_GRID}")
    tol_sym = 1e-14
    rows = []
    failures = []

    def check(name, ok, worst, detail=""):
        rows.append({"check": name, "ok": bool(ok), "worst": float(worst), "detail": detail})
        if not ok:
            failures.append(f"scalar.{name}: worst={worst:.3e} {detail}")

    ps = np.arange(1, 10_000) / 10_000.0
    sym = float(np.abs(binary_entropy(ps) - binary_entropy(1.0 - ps)).max())
    check("entropy_symmetry", sym <= tol_sym, sym, "max |H(p)-H(1-p)| on 1e4 grid")

    u = GOLDEN_THRESHOLD
    branch_gap = abs(
        binary_entropy(union_prob(u, u)) / binary_entropy(u) - (1.0 - u) * PHI
    )
    at_one = abs(entropy_ratio_bound(u) - 1.0)
    check("ratio_bound_threshold", branch_gap <= 1e-12 and at_one <= 1e-12,
          max(branch_gap, at_one), "branch agreement and value 1 at the threshold")

    ss = np.arange(1, grid + 1) / (grid + 1.0)
    f_vals = entropy_square_ratio(ss)
    kmin = int(np.argmin(f_vals))
    knear = int(np.argmin(np.abs(ss - 1.0 / PHI)))
    min_gap = abs(f_vals[kmin] - PHI)
    # the approach to the limit 2 is logarithmic (2 - F ~ 1/log(1/s)), so
    # "near 2" at s = 1e-4 can only mean within ~0.15, not closer
    shape_ok = (
        kmin == knear
        and min_gap <= 1e-6
        and bool(np.all(np.diff(f_vals[: kmin + 1]) < 0.0))
        and bool(np.all(np.diff(f_vals[kmin:]) > 0.0))
        and bool(np.all(f_vals < 2.0))
        and abs(entropy_square_ratio(1e-4) - 2.0) <= 0.15
        and abs(entropy_square_ratio(1.0 - 1e-4) - 2.0) <= 0.15
        and entropy_square_ratio(1e-4) > entropy_square_ratio(1e-2)
        and entropy_square_ratio(1.0 - 1e-4) > entropy_square_ratio(1.0 - 1e-2)
    )
    check("square_ratio_shape", shape_ok, min_gap,
          "V-shape around 1/phi with minimum phi, below 2, rising toward 2 at the ends")

    s = np.linspace(0.05, 0.95, 181)
    h = scaled_step(s)
    fd1 = third_derivative(lambda t: binary_entropy(t * t), s, h)
    fd2 = third_derivative(lambda t: t * binary_entropy(t), s, h)
    rel1 = np.abs(fd1 - d3_entropy_of_square(s)) / np.abs(d3_entropy_of_square(s))
    rel2 = np.abs(fd2 - d3_s_entropy(s)) / np.abs(d3_s_entropy(s))
    worst_rel = float(max(rel1.max(), rel2.max()))
    check("third_derivative_match", worst_rel < 1e-4, worst_rel,
          "closed forms vs five-point differences on [0.05, 0.95]")

    gap_min = float(entropy_square_gap(ss).min())
    check("square_gap_positive", gap_min > 0.0, gap_min, "2sH(s) - H(s^2) > 0 on grid")

    return {"grid": grid, "rows": rows}, failures


def cmd_lemma(args, seed: int):
    from .measures import lemma_certificate

    tol = _tol(args, 1e-9)
    cert = lemma_certificate(
        u_steps=args.u_steps,
        v_steps=args.v_steps,
        restarts=args.restarts,
        atom_grid=args.atom_grid,
        search_points=args.search_points,
        seed=seed,
        lam_scale=args.inflate_bound,
        scan_tol=tol,
    )
    failures = []
    if not cert.scan_ok:
        failures.append(
            f"lemma.two_atom_scan: worst slack {cert.worst_slack:.3e} < -{tol:.0e} "
            f"at u={cert.worst_u:.6f}"
        )
    if not cert.search_ok:
        failures.append(
            f"lemma.local_search: beats the scan by {cert.worst_search_margin:.3e} > 1e-6"
        )
    return cert, failures


def cmd_families(args, seed: int):
    from .families import verify_frequency_threshold

    rep = verify_frequency_threshold(args.n)
    report = rep._asdict()
    report["witness"] = {
        "n": rep.witness.n,
        "sets": [f"{s:x}" for s in rep.witness.sets],
    }
    report["union_closed_count"] = rep.families_checked + rep.degenerate_excluded
    failures = []
    if not rep.passed:
        failures.append(
            f"families.min_best_proportion: {rep.min_best_proportion:.6f} "
            f"< {rep.threshold:.6f}"
        )
    return report, failures


def cmd_theorem2(args, seed: int):
    from .scalars import GOLDEN_THRESHOLD
    from .setdist import (
        expand_mixture,
        load_distribution,
        load_mixture,
        product_tables,
        union_entropy_check,
        union_entropy_rows,
    )

    if args.format == "csv" and (args.dist_file or args.mixture_file):
        # the file checks are nested records, which a one-row table drops
        raise ValueError("theorem2 --dist-file/--mixture-file write JSON only; "
                         "drop --format csv to see the file checks")
    if args.trials < 1:
        raise ValueError("--trials must be a positive integer")
    if not 2 <= args.max_n <= MAX_RANDOM_TABLE_N:
        raise ValueError(f"--max-n must lie in 2..{MAX_RANDOM_TABLE_N}")
    tol = _tol(args, 1e-10)
    # the input files are read and checked first, so a bad one exits 2
    # before any random table is drawn
    file_checks = {}
    for label, path, load in (
        ("dist_file", args.dist_file, load_distribution),
        ("mixture_file", args.mixture_file, lambda p: expand_mixture(load_mixture(p))),
    ):
        if path:
            file_checks[label] = (path, union_entropy_check(load(path)))

    rng = np.random.default_rng(seed)
    # each drawn table goes straight into row used[n] of a zero-filled stack
    # for its n, next to its trial and support size; the stacks hold at most
    # TABLE_STACK_CELLS table cells in all before they are checked
    stacks = {}  # n -> (tables, trials, supports)
    used = [0] * (args.max_n + 1)
    cells = 0
    worst_case = None
    for t in range(args.trials):
        n = int(rng.integers(2, args.max_n + 1))
        support = 1 << n
        k = int(rng.integers(2, support + 1))
        masks = rng.choice(support, size=k, replace=False)
        probs = rng.dirichlet(np.ones(k))
        if cells + support > TABLE_STACK_CELLS:
            worst_case = _check_random_tables(stacks, used, worst_case)
            cells = 0
        if n not in stacks:
            rows = min(max(1, TABLE_STACK_CELLS >> n), args.trials)
            stacks[n] = (np.zeros((rows, support)), np.empty(rows, dtype=np.int64),
                         np.empty(rows, dtype=np.int64))
        tabs, trials, supports = stacks[n]
        j = used[n]
        tabs[j, masks] = probs
        trials[j], supports[j] = t, k
        used[n] = j + 1
        cells += support
    worst_case = _check_random_tables(stacks, used, worst_case)

    us = np.linspace(0.02, GOLDEN_THRESHOLD, 50)
    sharp_worst = float(np.abs(union_entropy_rows(product_tables(6, us), 6)[3]).max())
    failures = []
    if worst_case is None:
        failures.append("theorem2.random_tables: no table checked")
    elif worst_case["slack"] < -tol:
        failures.append(f"theorem2.random_tables: slack {worst_case['slack']:.3e} < -{tol:.0e}")
    if sharp_worst > 1e-10:
        failures.append(f"theorem2.product_sharpness: |slack| {sharp_worst:.3e} > 1e-10")
    report = {
        "trials": args.trials,
        "max_n": args.max_n,
        "worst_slack": None if worst_case is None else worst_case["slack"],
        "worst_case": worst_case,
        "product_sharpness_worst": sharp_worst,
        "seed": seed,
    }
    for label, (path, rep) in file_checks.items():
        report[label] = {"path": path, **rep._asdict()}
        if rep.slack < -tol:
            failures.append(f"theorem2.{label}: slack {rep.slack:.3e} < -{tol:.0e}")
    return report, failures


def _check_random_tables(stacks, used, worst_case):
    """Check the first used[n] tables of each n's stack (see cmd_theorem2),
    empty the stacks, and return the worst case so far: the smallest slack,
    ties to the earliest trial, or None while every table was skipped for a
    0/1 marginal."""
    from .setdist import union_entropy_rows

    for n, (tabs, trials, supports) in sorted(stacks.items()):
        count, used[n] = used[n], 0
        if count == 0:
            continue
        u, _, _, slack, _ = union_entropy_rows(tabs[:count], n)
        tabs[:count] = 0.0
        live = np.flatnonzero((u > 0.0) & (u < 1.0))
        if live.size == 0:
            continue
        j = int(live[np.argmin(slack[live])])
        t = int(trials[j])
        if worst_case is None or (slack[j], t) < (worst_case["slack"], worst_case["trial"]):
            worst_case = {"trial": t, "n": n, "support": int(supports[j]),
                          "slack": float(slack[j]), "max_marginal": float(u[j])}
    return worst_case


def cmd_counterexample(args, seed: int):
    from dataclasses import asdict

    from .counterexample import CounterexampleParams, bounds_report, exact_small_n_check

    params = CounterexampleParams.with_defaults(
        ubar=args.ubar, u=args.u, d=args.d, theta=args.theta, n=args.n,
        trunc=args.trunc,
    )
    rep = exact_small_n_check(params) if params.n <= 12 else bounds_report(params)
    report = {"params": asdict(params), **rep._asdict()}
    failures = []
    if not rep.marginal_admissible:
        failures.append(
            f"counterexample.marginal: {rep.marginal:.6f} exceeds u={params.u}"
        )
    if not rep.ratio_below_d:
        failures.append(
            f"counterexample.ratio: bound {rep.ratio_upper:.6f} not below d={params.d}"
        )
    if rep.exact_within_bounds is False:
        failures.append("counterexample.exact: exact values escape the bounds")
    return report, failures


def cmd_coupling(args, seed: int):
    from .coupling import delta_search, greedy_coupling_dp

    if args.action == "dp":
        from .families import load_family

        if not args.family:
            raise ValueError("coupling dp requires --family")
        fam = load_family(args.family)
        rep = greedy_coupling_dp(fam, literal_rates=args.literal_rates)
        failures = []
        if not args.literal_rates and not rep.marginals_uniform:
            failures.append(
                f"coupling.dp: marginal deviation {rep.max_marginal_deviation:.3e} > 1e-12"
            )
        return rep, failures
    rep = delta_search(
        alpha=args.alpha,
        u_cap_steps=args.delta_steps,
        delta_max=args.delta_max,
        v_steps=args.v_steps,
        mean_steps=args.mean_steps,
        search_points=args.search_points,
        search_restarts=args.search_restarts,
        seed=seed,
    )
    failures = []
    if rep.failure_at_threshold:
        failures.append(
            "coupling.delta_search: nonpositive slack at or below the threshold"
        )
    elif rep.delta <= 0.0:
        failures.append("coupling.delta_search: no positive margin certified")
    return rep, failures


# The compact suite run by `all`: each entry is parsed as that subcommand's
# command line, so every flag it does not list keeps the subcommand default.
_COMPACT_SUITE = {
    "scalar": ["--grid", "20000"],
    "lemma": ["--u-steps", "200", "--v-steps", "400", "--restarts", "120",
              "--atom-grid", "400", "--search-points", "11"],
    "families": [],
    "theorem2": ["--trials", "200", "--max-n", "6"],
    "counterexample": [],
    "coupling": ["delta-search", "--delta-steps", "100", "--v-steps", "48",
                 "--mean-steps", "32", "--search-points", "5", "--search-restarts", "40"],
}


def cmd_all(args, seed: int):
    if args.format == "csv":
        # a CSV report holds one table, and all's results nest one per suite
        raise ValueError("all writes JSON only; run a single subcommand for CSV")
    parser = build_parser()
    suites = {}
    failures = []
    for command, flags in _COMPACT_SUITE.items():
        sub_args = parser.parse_args([command, *flags])
        suites[command], f = _HANDLERS[command](sub_args, seed)
        failures += f
    return {"suites": suites}, failures


_HANDLERS = {
    "scalar": cmd_scalar,
    "lemma": cmd_lemma,
    "families": cmd_families,
    "theorem2": cmd_theorem2,
    "counterexample": cmd_counterexample,
    "coupling": cmd_coupling,
    "all": cmd_all,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        seed = _resolve_seed(args)
        results, failures = _HANDLERS[args.command](args, seed)
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message, so name the type instead
        print(f"uclab: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # an internal guard tripped: still write a report that names it
        results, failures = {}, [f"{args.command}.internal: {exc}"]
    # the output routing stays out of the config echo; the resolved seed
    # takes its sorted place however it was given
    config = {
        k: v
        for k, v in sorted({**vars(args), "seed": seed}.items())
        if k not in ("out", "format") and v is not None
    }
    report = {
        "version": __version__,
        "command": args.command,
        "config": config,
        "passed": not failures,
        "failures": failures,
        "results": results,
    }
    try:
        emit_report(report, fmt=args.format, path=args.out)
    except OSError as exc:
        print(f"uclab: error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    status = "passed" if not failures else "FAILED"
    print(f"[uclab] {args.command}: {status} in {elapsed:.2f} s", file=sys.stderr)
    for item in failures:
        print(f"[uclab]   {item}", file=sys.stderr)
    return 0 if not failures else 1


def console_main() -> int:
    """Entry point of `python -m uclab` and of the `uclab` script, both
    through uclab.__main__, which turns the cyclic collector off first.

    Runs main(), then freezes every object it left: the collections the
    interpreter makes while it shuts down then skip the objects numpy and
    uclab created (40-55 ms per process), whose memory goes back with the
    process anyway.  main() itself leaves the collector alone, so callers
    that run it in-process are unaffected."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
