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
import os
import sys
import time

import numpy as np

from . import __version__
from .coupling import delta_search, greedy_coupling_dp
from .counterexample import CounterexampleParams, bounds_report, exact_small_n_check
from .families import (
    count_union_closed,
    load_family,
    verify_frequency_threshold,
)
from .measures import DEFAULT_SEED, lemma_certificate
from .numdiff import scaled_step, third_derivative
from .reportio import emit_report, to_jsonable
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
from .setdist import (
    ExplicitSetDistribution,
    expand_mixture,
    load_distribution,
    load_mixture,
    product_bernoulli,
    union_entropy_check,
)

MAX_SCALAR_GRID = 1_000_000


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 1729, or UCLAB_SEED)")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="parallel worker processes for sweeps")
    p.add_argument("--tol", type=float, default=None,
                   help="override the subcommand's main failure tolerance")


def build_parser() -> argparse.ArgumentParser:
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
    _add_common(p)

    p = sub.add_parser("families", help="exhaustive union-closed family verification")
    p.add_argument("action", nargs="?", choices=["enumerate"], default="enumerate")
    p.add_argument("--n", type=int, default=4)
    _add_common(p)

    p = sub.add_parser("theorem2", help="union-entropy lower bound on explicit distributions")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--dist-file", help="also check the distribution in this file")
    p.add_argument("--mixture-file", help="also check the expanded mixture in this file")
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
    if args.seed is not None:
        return args.seed
    env = os.environ.get("UCLAB_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"UCLAB_SEED must be an integer, got {env!r}") from None


def cmd_scalar(args, seed: int):
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

    worst_rel = 0.0
    for s in np.linspace(0.05, 0.95, 181):
        h = scaled_step(s)
        fd1 = third_derivative(lambda t: binary_entropy(t * t), s, h)
        fd2 = third_derivative(lambda t: t * binary_entropy(t), s, h)
        worst_rel = max(
            worst_rel,
            abs(fd1 - d3_entropy_of_square(s)) / abs(d3_entropy_of_square(s)),
            abs(fd2 - d3_s_entropy(s)) / abs(d3_s_entropy(s)),
        )
    check("third_derivative_match", worst_rel < 1e-4, worst_rel,
          "closed forms vs five-point differences on [0.05, 0.95]")

    gap_min = float(entropy_square_gap(ss).min())
    check("square_gap_positive", gap_min > 0.0, gap_min, "2sH(s) - H(s^2) > 0 on grid")

    return {"grid": grid, "rows": rows}, failures


def cmd_lemma(args, seed: int):
    tol = args.tol if args.tol is not None else 1e-9
    cert = lemma_certificate(
        u_steps=args.u_steps,
        v_steps=args.v_steps,
        restarts=args.restarts,
        atom_grid=args.atom_grid,
        search_points=args.search_points,
        seed=seed,
        jobs=args.jobs,
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
    return to_jsonable(cert), failures


def cmd_families(args, seed: int):
    rep = verify_frequency_threshold(args.n)
    report = to_jsonable(rep)
    report["witness"] = {
        "n": rep.witness.n,
        "sets": [f"{s:x}" for s in rep.witness.sets],
    }
    report["union_closed_count"] = count_union_closed(args.n)
    failures = []
    if not rep.passed:
        failures.append(
            f"families.min_best_proportion: {rep.min_best_proportion:.6f} "
            f"< {rep.threshold:.6f}"
        )
    return report, failures


def cmd_theorem2(args, seed: int):
    tol = args.tol if args.tol is not None else 1e-10
    rng = np.random.default_rng(seed)
    worst = np.inf
    worst_case = None
    for t in range(args.trials):
        n = int(rng.integers(2, args.max_n + 1))
        support = 1 << n
        k = int(rng.integers(2, support + 1))
        masks = rng.choice(support, size=k, replace=False)
        probs = rng.dirichlet(np.ones(k))
        d = ExplicitSetDistribution.from_mapping(
            n, {int(m): float(p) for m, p in zip(masks, probs)}
        )
        marg = d.marginals().max()
        if not 0.0 < marg < 1.0:
            continue
        rep = union_entropy_check(d)
        if rep.slack < worst:
            worst = rep.slack
            worst_case = {"trial": t, "n": n, "support": k, "slack": rep.slack,
                          "max_marginal": rep.max_marginal}
    sharp_worst = 0.0
    for u in np.linspace(0.02, GOLDEN_THRESHOLD, 50):
        rep = union_entropy_check(product_bernoulli(6, float(u)))
        sharp_worst = max(sharp_worst, abs(rep.slack))
    failures = []
    if worst < -tol:
        failures.append(f"theorem2.random_tables: slack {worst:.3e} < -{tol:.0e}")
    if sharp_worst > 1e-10:
        failures.append(f"theorem2.product_sharpness: |slack| {sharp_worst:.3e} > 1e-10")
    report = {
        "trials": args.trials,
        "max_n": args.max_n,
        "worst_slack": float(worst),
        "worst_case": worst_case,
        "product_sharpness_worst": float(sharp_worst),
        "seed": seed,
    }
    for label, path in (("dist_file", args.dist_file), ("mixture_file", args.mixture_file)):
        if not path:
            continue
        d = load_distribution(path) if label == "dist_file" else expand_mixture(load_mixture(path))
        rep = union_entropy_check(d)
        report[label] = {"path": path, **to_jsonable(rep)}
        if rep.slack < -tol:
            failures.append(f"theorem2.{label}: slack {rep.slack:.3e} < -{tol:.0e}")
    return report, failures


def cmd_counterexample(args, seed: int):
    params = CounterexampleParams.with_defaults(
        ubar=args.ubar, u=args.u, d=args.d, theta=args.theta, n=args.n,
        trunc=args.trunc,
    )
    rep = exact_small_n_check(params) if params.n <= 12 else bounds_report(params)
    report = {"params": to_jsonable(params), **to_jsonable(rep)}
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
    if args.action == "dp":
        if not args.family:
            raise SystemExit2("coupling dp requires --family")
        fam = load_family(args.family)
        rep = greedy_coupling_dp(fam, literal_rates=args.literal_rates)
        failures = []
        if not args.literal_rates and not rep.marginals_uniform:
            failures.append(
                f"coupling.dp: marginal deviation {rep.max_marginal_deviation:.3e} > 1e-12"
            )
        return to_jsonable(rep), failures
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
    return to_jsonable(rep), failures


class SystemExit2(SystemExit):
    def __init__(self, msg: str):
        print(f"uclab: error: {msg}", file=sys.stderr)
        super().__init__(2)


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
    parser = build_parser()
    suites = {}
    failures = []
    for command, flags in _COMPACT_SUITE.items():
        sub_args = parser.parse_args([command, *flags, f"--jobs={args.jobs}"])
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
    except (ValueError, OSError) as exc:
        print(f"uclab: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # an internal guard tripped: still write a report that names it
        results, failures = {}, [f"{args.command}.internal: {exc}"]
    # jobs only distributes work and may not change a single output byte,
    # so it stays out of the config echo along with the output routing
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("out", "format", "jobs") and v is not None
    }
    config["seed"] = seed
    report = {
        "version": __version__,
        "command": args.command,
        "config": to_jsonable(config),
        "passed": not failures,
        "failures": failures,
        "results": results,
    }
    emit_report(report, fmt=args.format, path=args.out)
    elapsed = time.perf_counter() - t0
    status = "passed" if not failures else "FAILED"
    print(f"[uclab] {args.command}: {status} in {elapsed:.2f} s", file=sys.stderr)
    for item in failures:
        print(f"[uclab]   {item}", file=sys.stderr)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
