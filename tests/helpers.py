"""Shared builders and independent oracles used across the test modules.

The oracles here deliberately avoid the library's fast paths: the binary
entropy is evaluated on a copy of the interior entries only, the union
convolution is the quadratic double loop over support pairs, entropies are
summed directly, the table kernels (marginal, conditional, chain profile)
are plain loops over every mask, union-closed families come from a
plain fixpoint closure, the transport LP is scipy's general HiGHS solver,
the delta search is the one-measure-at-a-time loop, the two-atom lemma
scan is one grid per u, the exchange-move search recomputes every term
each round, the third-derivative check runs one point at a time, the
theorem2 random tables are checked one dict-built table at a time, the
union-closed families are filtered out of every membership code, and a
report is written in two stages: the whole tree is coerced to plain values,
then those are written.
Anything the library computes cleverly is checked against these.

The last part holds checks of statements of the paper that no CLI command
runs: the convex-then-concave shape of F_mu behind the sharp estimate,
stationarity at the sharp measure, the sign pattern of the third-derivative
numerator, and the per-element chain-rule step of Gilmer's argument on
uniform union-closed families.
"""

import math
from dataclasses import dataclass

import numpy as np

from uclab.coupling import (
    DeltaSearchReport,
    _measure_summary,
    improved_slack,
    worst_coupling_value,
)
from uclab.families import Family, is_union_closed
from uclab.measures import (
    MEAN_SLACK,
    DiscreteMeasure,
    LocalSearchReport,
    _is_two_point_with_top,
    local_search_min,
)
from uclab.numdiff import third_derivative
from uclab.reportio import _escape, format_float
from uclab.scalars import (
    GOLDEN_THRESHOLD,
    _scalar_in,
    binary_entropy,
    d3_entropy_of_square,
    d3_s_entropy,
    entropy_ratio_bound,
    union_prob,
)
from uclab.setdist import (
    PROB_FLOOR,
    ExplicitSetDistribution,
    UnionBoundReport,
    _split,
    product_bernoulli,
    union_of_independent,
)


def binary_entropy_gather(p):
    """H of every entry of p, each interior entry evaluated in a contiguous
    copy of the interior entries alone and the ends set to 0, as
    binary_entropy did before its unchecked kernel."""
    flat = np.array(p, dtype=float).ravel()
    out = np.zeros_like(flat)
    inner = (flat > 0.0) & (flat < 1.0)
    q = flat[inner]
    out[inner] = -q * np.log(q) - (1.0 - q) * np.log1p(-q)
    return out.reshape(np.shape(p))


def random_explicit(rng, n, support=None):
    """Random distribution on subsets of [n] with Dirichlet weights."""
    total = 1 << n
    if support is None:
        support = int(rng.integers(2, total + 1))
    masks = rng.choice(total, size=support, replace=False)
    probs = rng.dirichlet(np.ones(support))
    return ExplicitSetDistribution.from_mapping(
        n, {int(m): float(p) for m, p in zip(masks, probs)}
    )


def naive_union_table(d1, d2):
    """Quadratic-time union convolution: the oracle for the transform path."""
    out = np.zeros_like(d1.probs)
    for a in range(out.size):
        pa = d1.probs[a]
        if pa == 0.0:
            continue
        for b in range(out.size):
            out[a | b] += pa * d2.probs[b]
    return out


def entropy_direct(probs):
    probs = np.asarray(probs)
    pos = probs[probs > 0]
    return float(-(pos * np.log(pos)).sum())


def _has(mask, elem):
    return (mask >> (elem - 1)) & 1 == 1


def _h(r):
    return -sum(x * math.log(x) for x in (r, 1.0 - r) if x > 0.0)


def marginal_loop(d, i):
    return sum(float(d.probs[m]) for m in range(1 << d.n) if _has(m, i))


def conditional_loop(d, i, prefix):
    """Pr[i in A | A restricted to [i-1] equals prefix], or None on a null prefix."""
    low = (1 << (i - 1)) - 1
    match = [m for m in range(1 << d.n) if m & low == prefix]
    denom = sum(float(d.probs[m]) for m in match)
    if denom == 0.0:
        return None
    return sum(float(d.probs[m]) for m in match if _has(m, i)) / denom


def chain_profile_loop(d):
    """Entry k - 1: average over the values of elements 1..k-1 of the
    binary entropy of element k's conditional inclusion rate."""
    out = []
    for elem in range(1, d.n + 1):
        groups = {}
        for m in range(1 << d.n):
            key = tuple(_has(m, e) for e in range(1, elem))
            tot_win = groups.setdefault(key, [0.0, 0.0])
            tot_win[0] += float(d.probs[m])
            if _has(m, elem):
                tot_win[1] += float(d.probs[m])
        out.append(sum(tot * _h(win / tot) for tot, win in groups.values() if tot > 0.0))
    return np.array(out)


def union_closure(f):
    """Smallest union-closed family containing f (idempotent, monotone)."""
    closed = set(f.sets)
    frontier = list(closed)
    while frontier:
        fresh = []
        for a in frontier:
            for b in closed.copy():
                u = a | b
                if u not in closed:
                    closed.add(u)
                    fresh.append(u)
        frontier = fresh
    return Family.of(f.n, closed)


def random_union_closed(rng, n, max_generators=4):
    """Union closure of a few random masks: a generic union-closed family."""
    k = int(rng.integers(1, max_generators + 1))
    masks = rng.choice(1 << n, size=k, replace=False)
    return union_closure(Family.of(n, [int(m) for m in masks]))


def brute_force_union_closed_count(n):
    """Second, direct implementation of the exhaustive family count."""
    total = 1 << n
    count = 0
    for code in range(1, 1 << total):
        members = [s for s in range(total) if (code >> s) & 1]
        ok = all((a | b) in set(members) for a in members for b in members)
        if ok:
            count += 1
    return count


def filter_union_closed_codes(n):
    """Every nonempty union-closed family on [n] as a uint32 membership
    code, kept by filtering all 2^(2^n) - 1 nonempty codes pair by pair."""
    p = 1 << n
    codes = np.arange(1, 1 << p, dtype=np.uint32)
    ok = np.ones(codes.size, dtype=bool)
    for a in range(p):
        for b in range(a + 1, p):
            u = a | b
            if u == a or u == b:
                continue
            both = ((codes >> a) & (codes >> b) & 1).astype(bool)
            missing = ((codes >> u) & 1) == 0
            ok &= ~(both & missing)
    return codes[ok]


def union_check_loop(d):
    """union_entropy_check on one table from its parts: the largest
    marginal(i), the scalar bound factor, the entropy of
    union_of_independent(d, d) and of d; None when the largest marginal is
    0 or 1."""
    u = max(d.marginal(i) for i in range(1, d.n + 1))
    if not 0.0 < u < 1.0:
        return None
    lam = entropy_ratio_bound(u)
    lhs = union_of_independent(d, d).entropy()
    rhs = lam * d.entropy()
    return UnionBoundReport(max_marginal=u, lhs=lhs, rhs=rhs, slack=lhs - rhs, ratio_bound=lam)


def theorem2_loop(trials, max_n, seed):
    """(rows, product sharpness) of `theorem2` one table at a time: the
    same draws per trial, a from_mapping dict per table and
    union_check_loop on it.  rows holds one worst-case record per checked
    trial, in trial order; the 50 product tables are checked one by one."""
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(trials):
        n = int(rng.integers(2, max_n + 1))
        support = 1 << n
        k = int(rng.integers(2, support + 1))
        masks = rng.choice(support, size=k, replace=False)
        probs = rng.dirichlet(np.ones(k))
        d = ExplicitSetDistribution.from_mapping(
            n, {int(m): float(p) for m, p in zip(masks, probs)}
        )
        rep = union_check_loop(d)
        if rep is not None:
            rows.append({"trial": t, "n": n, "support": k, "slack": rep.slack,
                         "max_marginal": rep.max_marginal})
    sharp_worst = 0.0
    for u in np.linspace(0.02, GOLDEN_THRESHOLD, 50):
        rep = union_check_loop(product_bernoulli(6, float(u)))
        sharp_worst = max(sharp_worst, abs(rep.slack))
    return rows, sharp_worst


def highs_transport_value(cost, w):
    """Optimal value of min sum_ij W_ij cost_ij over W >= 0 with both
    marginals w, from scipy's HiGHS (a test-only dependency): the general
    LP solver the in-package transportation simplex is checked against.

    HiGHS solves the dual LP: maximise w.a + w.b over free a, b subject to
    a_i + b_j <= cost_ij, with 2m variables instead of m^2, which HiGHS
    solves several times faster at MAX_LP_ATOMS = 200 atoms.
    HiGHS stops at absolute feasibility and optimality tolerances of about
    1e-7, so on costs and marginals of order 1 its objective can sit that
    far off the exact optimum.  The LP is homogeneous in the costs (through
    a and b) and in the objective weights w, so both are scaled by 1e6 and
    the value scaled back, which shrinks that error below 1e-12.  The
    constraint matrix is sparse.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    m = w.size
    scale = 1e6
    eye, ones = sparse.identity(m), sparse.csr_matrix(np.ones((m, 1)))
    res = linprog(
        -scale * np.concatenate([w, w]),
        A_ub=sparse.hstack([sparse.kron(eye, ones), sparse.kron(ones, eye)], format="csr"),
        b_ub=scale * cost.ravel(),
        bounds=(None, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun) / (scale * scale)


def delta_search_loop(alpha, u_cap_steps=200, delta_max=0.02, v_steps=96, mean_steps=64,
                      mean_margin=0.03, search_points=7, search_restarts=112,
                      atom_grid=400, seed=1729):
    """delta_search as a loop: one DiscreteMeasure and one improved_slack
    call per candidate, and one worst_coupling_value call per LP-sized
    measure for the counters."""
    u_star = GOLDEN_THRESHOLD
    candidates = []
    vs = np.unique(np.append(np.linspace(0.005, 0.995, v_steps), u_star))
    step = delta_max / u_cap_steps
    band = min(0.006, delta_max)
    means = np.unique(np.concatenate([
        np.linspace(u_star - mean_margin, u_star + delta_max, mean_steps),
        u_star + np.arange(0.0, band + 0.5 * step, step),
    ]))
    for mean in means:
        for v in vs:
            if v >= mean:
                continue
            w = (1.0 - mean) / (1.0 - v)
            if not 0.0 < w <= 1.0:
                continue
            candidates.append(DiscreteMeasure.two_atom(float(v), float(w)))
    candidates.append(DiscreteMeasure.point(u_star))
    search_us = np.linspace(u_star - 0.01, u_star + delta_max, search_points)
    per = max(1, search_restarts // search_points)
    for k, su in enumerate(search_us):
        rep = local_search_min(float(su), 1.0, atom_grid=atom_grid, restarts=per,
                               seed=seed + 7919 * k)
        candidates.append(rep.best_measure)
    candidates = [
        mu for mu in candidates
        if float(np.dot(mu.weights, binary_entropy(mu.locations))) > 1e-12
    ]
    slacks = [improved_slack(mu, alpha) for mu in candidates]
    lp = [mu for mu in candidates if mu.size() > 2] if alpha > 0.0 else []

    cutoff = 1e-12
    violating = [(mu, s) for mu, s in zip(candidates, slacks) if s <= cutoff]
    min_idx = int(np.argmin(slacks))
    failure = any(mu.mean() <= u_star + cutoff for mu, _ in violating)
    if failure:
        delta = 0.0
    elif violating:
        excess = min(mu.mean() - u_star for mu, _ in violating)
        delta = max(0.0, step * int(np.floor((excess - 1e-15) / step)))
    else:
        delta = delta_max
    binding = None
    if violating:
        binding = _measure_summary(*min(violating, key=lambda t: t[0].mean()))
    return DeltaSearchReport(
        alpha=float(alpha),
        delta=float(delta),
        delta_max=float(delta_max),
        delta_steps=int(u_cap_steps),
        measures_scanned=len(candidates),
        closed_form_couplings=len(candidates) - len(lp) if alpha > 0.0 else 0,
        lp_solves=len(lp),
        violations=len(violating),
        failure_at_threshold=failure,
        binding_measure=binding,
        min_slack=float(slacks[min_idx]),
        min_slack_measure=_measure_summary(candidates[min_idx], slacks[min_idx]),
        seed=seed,
    )


def two_atom_scan_loop(u, v_steps, lam):
    """(grid size, min slack, argmin v) of the two-atom scan at one u: the
    golden threshold inserted into the sorted grid, ties to the largest v."""
    vs = np.linspace(0.0, u, v_steps)
    if GOLDEN_THRESHOLD < u:
        vs = np.unique(np.append(vs, GOLDEN_THRESHOLD))
    w = (1.0 - u) / (1.0 - vs)
    slack = w * w * binary_entropy(union_prob(vs, vs)) - lam * w * binary_entropy(vs)
    lo = float(slack.min())
    near = np.nonzero(slack <= lo + 1e-12)[0]
    return int(vs.size), lo, float(vs[near[-1]])


def local_search_loop(u, lam, atom_grid=1000, restarts=100, seed=1729, pool_size=24,
                      max_rounds=200):
    """local_search_min with every move term recomputed each round and J
    evaluated after every move."""
    grid = np.linspace(0.0, 1.0, atom_grid + 1)
    specials = np.array([0.0, u, GOLDEN_THRESHOLD, 1.0])
    best_val = np.inf
    best_x = best_w = None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        picks = rng.choice(grid, size=min(pool_size, grid.size), replace=False)
        x = np.unique(np.concatenate([picks, specials]))
        w = random_feasible_start_loop(rng, x, u)
        val = exchange_descent_loop(x, w, lam, u, max_rounds)
        if val < best_val:
            best_val = val
            keep = w > 0.0
            best_x, best_w = x[keep], w[keep]
    measure = DiscreteMeasure.from_pairs(zip(best_x, best_w / best_w.sum()))
    return LocalSearchReport(
        best_value=float(best_val),
        best_measure=measure,
        mean_cap=u,
        two_point_with_top=_is_two_point_with_top(measure),
        restarts=restarts,
        seed=seed,
    )


def random_feasible_start_loop(rng, x, u):
    """The start draw of local_search_min, draining over numpy scalars."""
    m = x.size
    k = int(rng.integers(2, 6))
    idx = rng.choice(m, size=min(k, m), replace=False)
    w = np.zeros(m)
    w[idx] = rng.dirichlet(np.ones(idx.size))
    mean = float(np.dot(x, w))
    # drain mass into the lowest location (0 is always in the pool)
    for a in np.argsort(x)[::-1]:
        if mean <= u:
            break
        if x[a] <= 0.0 or w[a] <= 0.0:
            continue
        delta = min(w[a], (mean - u) / (x[a] - x[0]))
        w[a] -= delta
        w[0] += delta
        mean -= delta * (x[a] - x[0])
    return w


def exchange_descent_loop(x, w, lam, u, max_rounds=200):
    """One restart of the exchange-move descent from the pool x and the
    start weights w: w is moved to the final weights in place, and J of
    the final measure is returned."""
    big_h = binary_entropy(union_prob(x[:, None], x[None, :]))
    h = binary_entropy(x)
    val = float(w @ big_h @ w - lam * np.dot(w, h))
    for _ in range(max_rounds):
        move = _exchange_move_loop(x, w, big_h, h, lam, u)
        if move is None:
            break
        a, b, delta = move
        w[a] -= delta
        w[b] += delta
        if w[a] < 0.0:
            w[a] = 0.0
        val = float(w @ big_h @ w - lam * np.dot(w, h))
    return val


def _exchange_move_loop(x, w, big_h, h, lam, u):
    mw = big_h @ w
    mean = float(np.dot(x, w))
    diag = np.diag(big_h)
    d_cross = mw[None, :] - mw[:, None]
    d_quad_curv = diag[:, None] - 2.0 * big_h + diag[None, :]
    d_lin = h[None, :] - h[:, None]
    d_mean = x[None, :] - x[:, None]
    best = None
    best_val = -1e-14
    for frac in (1.0, 0.5):
        delta = frac * w[:, None]
        dval = delta * (2.0 * d_cross - lam * d_lin) + delta * delta * d_quad_curv
        feasible = (delta > 0.0) & (mean + delta * d_mean <= u + MEAN_SLACK)
        np.fill_diagonal(feasible, False)
        if not feasible.any():
            continue
        masked = np.where(feasible, dval, np.inf)
        lo = float(masked.min())
        if lo >= best_val:
            continue
        near = np.argwhere(masked <= lo + 1e-15)
        a, b = max(near, key=lambda ab: x[ab[1]])
        best = (int(a), int(b), float(delta[a, 0]))
        best_val = lo
    return best


def third_derivative_worst_loop(points=181):
    """Worst relative error of the five-point third derivatives of H(s^2)
    and s H(s) against their closed forms, one point of [0.05, 0.95] at a
    time with the step 1e-4 * min(1, d/0.05), d the distance to {0, 1}."""
    worst_rel = 0.0
    for s in np.linspace(0.05, 0.95, points):
        h = 1e-4 * min(1.0, min(s, 1.0 - s) / 0.05)
        fd1 = third_derivative(lambda t: binary_entropy(t * t), s, h)
        fd2 = third_derivative(lambda t: t * binary_entropy(t), s, h)
        worst_rel = max(
            worst_rel,
            abs(fd1 - d3_entropy_of_square(s)) / abs(d3_entropy_of_square(s)),
            abs(fd2 - d3_s_entropy(s)) / abs(d3_s_entropy(s)),
        )
    return worst_rel


def to_jsonable(obj):
    """Coerce report records (NamedTuple classes), numpy scalars/arrays,
    and containers to plain JSON-able Python values; a record becomes a
    dict in field order.  The first stage of the two-stage reference
    writer."""
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        return {k: to_jsonable(v) for k, v in obj._asdict().items()}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps_json(obj, indent=0):
    """JSON text of a plain value tree (the output of to_jsonable)."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{_escape(str(k))}": {reference_dumps_json(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [f"{inner}{reference_dumps_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _reference_csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if v is None:
        return ""
    s = str(v)
    if any(ch in s for ch in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def reference_dumps_csv(report):
    """CSV text of a plain report: its `rows` (list of flat dicts), else its
    results' rows, else one row of the results' (or report's) scalars."""
    rows = report.get("rows")
    if not rows and isinstance(report.get("results"), dict):
        rows = report["results"].get("rows")
    if not rows:
        flat = report.get("results") if isinstance(report.get("results"), dict) else report
        rows = [{k: v for k, v in flat.items() if not isinstance(v, (dict, list))}]
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_reference_csv_cell(row.get(k)) for k in header))
    return "\n".join(lines) + "\n"


def reference_report_text(report, fmt):
    """The text uclab.reportio.emit_report writes for `report`, by the
    two-stage writer: coerce the whole tree to plain values, then write."""
    plain = to_jsonable(report)
    return reference_dumps_json(plain) + "\n" if fmt == "json" else reference_dumps_csv(plain)


def f_mu(mu, lam, q):
    """F_mu(q) = 2 E_{p ~ mu}[H(p + q - pq)] - lam * H(q) for q in (0, 1).

    The second variation of J at mu: its curvature signature is read off
    from G(q) = q(1-q) F_mu''(q) (curvature_indicator).  G is strictly
    decreasing (outside measures supported on {0, 1}), so F_mu is convex on
    an initial interval and concave after the sign change, which is what
    pushes optimal mass onto two atoms.
    """
    arr = np.asarray(q, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
        raise ValueError("q must lie strictly inside (0, 1)")
    flat = np.atleast_1d(arr)
    u_mat = union_prob(mu.locations[:, None], flat[None, :])
    val = 2.0 * (mu.weights @ binary_entropy(u_mat)) - float(lam) * binary_entropy(flat)
    if np.ndim(q) == 0:
        return float(val[0])
    return val.reshape(arr.shape)


def curvature_indicator(mu, lam, q):
    """G(q) = q(1-q) F_mu''(q) = -2 E_p[(1-p) q / (p + q - pq)] + lam."""
    x, w = mu.locations[:, None], mu.weights[:, None]
    qq = q[None, :]
    frac = (1.0 - x) * qq / (x + qq - x * qq)
    return -2.0 * np.sum(w * frac, axis=0) + float(lam)


@dataclass(frozen=True)
class CurvatureReport:
    """Shape of F_mu read from the sign pattern of q(1-q) F_mu''(q)."""

    strictly_decreasing: bool
    inflection: float | None
    convex_then_concave: bool
    grid: int


def f_mu_structure_check(mu, lam, grid=10000):
    """Verify the curvature signature of F_mu on a grid of (0, 1).

    Evaluates G(q) = q(1-q) F_mu''(q) in closed form, checks it is strictly
    decreasing, and estimates the sign-change location (the boundary between
    the convex and concave regions of F_mu) by linear interpolation.
    Measures supported entirely on {0, 1} are rejected: G is constant there.
    """
    if np.all((mu.locations <= 0.0) | (mu.locations >= 1.0)):
        raise ValueError("measure supported on {0, 1} has no curvature signature")
    qs = np.arange(1, grid + 1) / (grid + 1.0)
    g = curvature_indicator(mu, lam, qs)
    decreasing = bool(np.all(np.diff(g) < 0.0))
    inflection = None
    sign_change = np.nonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))[0]
    if sign_change.size:
        k = sign_change[0]
        # linear interpolation of the zero crossing
        t = g[k] / (g[k] - g[k + 1])
        inflection = float(qs[k] + t * (qs[k + 1] - qs[k]))
    return CurvatureReport(
        strictly_decreasing=decreasing,
        inflection=inflection,
        convex_then_concave=decreasing and inflection is not None,
        grid=grid,
    )


def linearized_objective(mu, nu, lam):
    """The bilinear probe 2 E_{mu x nu}[H(p + q - pq)] - lam * E_nu[H(q)].

    At nu = mu this equals objective(mu, lam).value plus the quadratic part
    of mu; minimizing it over feasible nu at a minimizer mu is the
    first-order stationarity test for J.
    """
    cross_h = binary_entropy(union_prob(mu.locations[:, None], nu.locations[None, :]))
    cross = float(mu.weights @ cross_h @ nu.weights)
    lin = float(np.dot(nu.weights, binary_entropy(nu.locations)))
    return 2.0 * cross - float(lam) * lin


def second_derivative(f, x, h):
    """Five-point central estimate of f''(x), O(h^4) truncation error."""
    return (
        -f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h) - f(x + 2 * h)
    ) / (12.0 * h * h)


def third_deriv_numerator(s, beta):
    """The cubic -4 - 4 s^2 - beta (s - 2)(1 + s)^2.

    Numerator of the third derivative of H(s^2) - beta * s H(s) over the
    common denominator s (1 - s^2)^2.  Defined for all real s; equals
    2 beta - 4 at s = 0, so it is negative there whenever beta < 2, which
    caps its number of roots in [0, 1] at two.
    """
    a = np.asarray(s, dtype=float)
    b = np.asarray(beta, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("s and beta must be finite")
    val = -4.0 - 4.0 * a * a - b * (a - 2.0) * (1.0 + a) ** 2
    if _scalar_in(s) and _scalar_in(beta):
        return float(val)
    return val


def chain_profile(d):
    """Expected conditional entropy contributed by each element in turn.

    Entry i - 1 is the average of H(Pr[element i in A | prefix]) over the
    prefixes on elements 1..i-1, read from the table view `_split`; the
    entries sum to the total entropy by the chain rule.
    """
    out = np.empty(d.n)
    for i in range(1, d.n + 1):
        lack, win = _split(d.probs, i).sum(axis=0)
        tot = lack + win
        pos = tot > PROB_FLOOR
        rates = np.clip(win[pos] / tot[pos], 0.0, 1.0)
        out[i - 1] = float(np.dot(tot[pos], binary_entropy(rates)))
    return out


MARGINAL_ONE_TOL = 1e-12


@dataclass(frozen=True)
class EntropyDiagnostics:
    """Entropy comparison for uniform independent samples from a
    union-closed family, with the per-element chain decomposition."""

    family_size: int
    entropy: float
    union_entropy: float
    entropy_drop_ok: bool
    max_marginal: float
    ratio_bound: float
    step_slacks: tuple
    skipped_elements: tuple
    min_step_slack: float


def entropy_chain_diagnostics(f):
    """Exact entropy diagnostics for a union-closed family (n <= 12).

    For A, B independent uniform samples from a union-closed F, the union
    A u B stays inside F, so H(A u B) <= log|F| = H(A).  Builds the uniform
    distribution on f, checks that inequality, and decomposes both
    entropies element by element, reporting the slack of the per-step
    inequality

        H(union chain step) >= bound(u) * H(single-sample chain step)

    with u the largest marginal below 1.  Elements contained in every
    member are skipped: both chain entries vanish there and the bound
    factor degenerates.
    """
    if f.n > 12:
        raise ValueError("entropy diagnostics are limited to n <= 12")
    if not is_union_closed(f):
        raise ValueError("family is not union-closed")
    d = ExplicitSetDistribution.uniform_on(f.n, f.sets)
    u_dist = union_of_independent(d, d)
    h_a = d.entropy()
    h_u = u_dist.entropy()
    marg = d.marginals()
    active = [i for i in range(f.n) if marg[i] < 1.0 - MARGINAL_ONE_TOL]
    skipped = tuple(i + 1 for i in range(f.n) if i not in active)
    if active and max(marg[active]) > 0.0:
        u = float(max(marg[active]))
        lam = entropy_ratio_bound(u)
        chain_a = chain_profile(d)
        chain_u = chain_profile(u_dist)
        slacks = tuple(float(chain_u[i] - lam * chain_a[i]) for i in active)
    else:
        u = 0.0 if not active else float(max(marg[active]))
        lam = float("nan")
        slacks = ()
    return EntropyDiagnostics(
        family_size=f.size(),
        entropy=h_a,
        union_entropy=h_u,
        entropy_drop_ok=h_u <= h_a + 1e-12,
        max_marginal=u if active else 1.0,
        ratio_bound=lam,
        step_slacks=slacks,
        skipped_elements=skipped,
        min_step_slack=min(slacks) if slacks else 0.0,
    )
