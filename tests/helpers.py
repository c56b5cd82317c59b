"""Shared builders and independent oracles used across the test modules.

The oracles here deliberately avoid the library's fast paths: the union
convolution is the quadratic double loop over support pairs, entropies are
summed directly, the table kernels (marginal, conditional, chain profile)
are plain loops over every mask, union-closed families come from a
plain fixpoint closure, the transport LP is scipy's general HiGHS solver,
the delta search is the one-measure-at-a-time loop, the two-atom lemma
scan is one grid per u, the exchange-move search recomputes every term
each round, the third-derivative check runs one point at a time, the
theorem2 random tables are checked one dict-built table at a time, and the
union-closed families are filtered out of every membership code.
Anything the library computes cleverly is checked against these.
"""

import math

import numpy as np

from uclab.coupling import (
    DeltaSearchReport,
    _measure_summary,
    improved_slack,
    worst_coupling_value,
)
from uclab.families import Family, union_closure
from uclab.measures import (
    MEAN_SLACK,
    DiscreteMeasure,
    LocalSearchReport,
    _is_two_point_with_top,
    local_search_min,
)
from uclab.numdiff import third_derivative
from uclab.scalars import (
    GOLDEN_THRESHOLD,
    binary_entropy,
    d3_entropy_of_square,
    d3_s_entropy,
    entropy_ratio_bound,
    union_prob,
)
from uclab.setdist import (
    ExplicitSetDistribution,
    UnionBoundReport,
    product_bernoulli,
    union_of_independent,
)


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


def product_table(rates):
    """Table where element e enters independently with probability rates[e-1]."""
    n = len(rates)
    return np.array([
        math.prod(r if _has(m, e) else 1.0 - r for e, r in enumerate(rates, start=1))
        for m in range(1 << n)
    ])


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


def chain_profile_loop(d, order=None):
    """Entry k: average over the values of the earlier elements of the
    binary entropy of element order[k]'s conditional inclusion rate."""
    order = list(order) if order is not None else list(range(1, d.n + 1))
    out = []
    for k, elem in enumerate(order):
        groups = {}
        for m in range(1 << d.n):
            key = tuple(_has(m, e) for e in order[:k])
            tot_win = groups.setdefault(key, [0.0, 0.0])
            tot_win[0] += float(d.probs[m])
            if _has(m, elem):
                tot_win[1] += float(d.probs[m])
        out.append(sum(tot * _h(win / tot) for tot, win in groups.values() if tot > 0.0))
    return np.array(out)


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

    HiGHS stops at an absolute feasibility tolerance of about 1e-7, so on
    marginals summing to 1 its objective can sit that far below the exact
    optimum.  The LP is homogeneous in the marginals, so it is solved for
    w scaled by 1e6 and the value scaled back, which shrinks that error
    below 1e-12.  The constraint matrix is sparse: a dense one takes
    128 MB at MAX_LP_ATOMS = 200 atoms.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    m = w.size
    scale = 1e6
    eye, ones = sparse.identity(m), sparse.csr_matrix(np.ones((1, m)))
    res = linprog(
        cost.ravel(),
        A_eq=sparse.vstack([sparse.kron(eye, ones), sparse.kron(ones, eye)], format="csr"),
        b_eq=scale * np.concatenate([w, w]),
        bounds=(0.0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun) / scale


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
