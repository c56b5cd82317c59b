"""Couplings of two samples and the worst-case coupled union entropy.

Two identically distributed inclusion rates p and r can be coupled through
a single shared uniform draw: comonotone when either rate is at least 1/2
(the union indicator then fires with probability max(p, r)), and antithetic
with an offset when both are below 1/2 (probability min(p + r, 1/2)).  The
combined map, coupled_union_prob, is max(p, r, min(p + r, 1/2)); it never
falls below max(p, r), which is the entropy gain this construction buys.

For a measure mu on [0, 1], the smallest possible expected union entropy
over all couplings of two mu-samples (marginals both mu, cost ->
H(coupled_union_prob)) has a closed form for one or two atoms and is a
transportation linear program for three up to MAX_LP_ATOMS, solved exactly
by the in-package transportation simplex `linprog`; its value enters the
blended slack

    (1 - alpha) E_{mu x mu}[H(p + q - pq)] + alpha * worst - E_mu[H(p)]

whose positivity over measures with mean slightly above the golden
threshold is what delta_search probes for.  The search scores its two-atom
class (mass at v, rest at 1) in blocks of DELTA_BLOCK_CELLS grid cells, so
its working arrays do not grow with the grid.

greedy_coupling_dp realizes the same coupling step by step on a concrete
union-closed family as an exact dynamic program over prefix pairs, with
both one-sided marginals provably uniform.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import DEFAULT_SEED
from .measures import (
    MAX_SEARCH_RESTARTS,
    DiscreteMeasure,
    local_search_rows,
    objective,
    objective_rows,
    sorted_unique,
)
from .scalars import (
    GOLDEN_THRESHOLD,
    _check_count,
    _check_float,
    _check_unit_interval,
    _float_or_array,
    entropy_kernel,
)

if TYPE_CHECKING:
    from .families import Family

MAX_LP_ATOMS = 200
MAX_PIVOTS_PER_CELL = 10
MARGINAL_TOL = 1e-12
MAX_DELTA_GRID_CELLS = 1_000_000
# delta_search's lowest mean below the threshold, and its search's atom grid
DELTA_MEAN_MARGIN = 0.03
DELTA_ATOM_GRID = 400
# (mean, v) grid cells per block of delta_search's two-atom scan: a default
# `coupling delta-search` process peaks 1.0 MiB lower than with its 15,229
# cells in one block, and 0.1-0.3 MiB lower than with 2^10, 2^12 or 2^13
DELTA_BLOCK_CELLS = 1 << 11


def coupled_union_prob(p, r):
    """Union-indicator probability under the shared-uniform coupling.

    max(p, r) when either rate is at least 1/2, else min(p + r, 1/2);
    symmetric, and equal to max(p, r, min(p + r, 1/2)) in every case.
    """
    return _float_or_array(
        coupled_union_kernel(_check_unit_interval(p, "rates"), _check_unit_interval(r, "rates"))
    )


def coupled_union_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """coupled_union_prob of two float arrays in [0, 1] (broadcast against
    each other), without the argument check."""
    both_small = (a < 0.5) & (b < 0.5)
    return np.where(both_small, np.minimum(a + b, 0.5), np.maximum(a, b))


class WorstCouplingReport(NamedTuple):
    """Minimum expected coupled-union entropy over all couplings of mu,
    and the (m, m) coupling matrix that attains it.

    repaired is always True for two or more atoms and False for one;
    bench/tracer.py reads it for coupling.repaired_ratio, and it is to be
    removed together with that metric.
    """

    value: float
    weights: np.ndarray
    repaired: bool


def worst_coupling_value(mu: DiscreteMeasure) -> WorstCouplingReport:
    """Solve min_W sum_ij W_ij H(coupled_union_kernel(x_i, x_j)) over couplings
    W with both marginals mu.

    Two atoms have a closed form, _two_atom_coupling.  Three or more atoms
    (at most MAX_LP_ATOMS) go to the exact transportation simplex `linprog`,
    whose optimal vertex is returned as it is.  A vertex with an entry below
    -1e-15, or whose row and column sums, clipped at 0, miss mu's weights
    by more than MARGINAL_TOL, is an internal fault and raises RuntimeError.
    """
    x, w = mu.locations, mu.weights
    m = x.size
    _check_count(m, "atoms of the worst-coupling LP", high=MAX_LP_ATOMS)
    cost = entropy_kernel(coupled_union_kernel(x[:, None], x[None, :]))
    if m == 1:
        weights = np.ones((1, 1))
    elif m == 2:
        t, _ = _two_atom_coupling(w[0], w[1], cost[0, 0], cost[0, 1], cost[1, 1])
        weights = np.array([[w[0] - t, t], [t, w[1] - t]])
    else:
        weights = linprog(cost, w)
    fault = "transportation simplex vertex is not a coupling"
    if np.any(weights < -1e-15):
        raise RuntimeError(f"{fault}: coupling weights must be nonnegative")
    clipped = np.clip(weights, 0.0, None)
    err = max(np.abs(clipped.sum(axis=1) - w).max(), np.abs(clipped.sum(axis=0) - w).max())
    if err > MARGINAL_TOL:
        raise RuntimeError(f"{fault}: coupling marginals deviate by {err:.3e} "
                           f"(> {MARGINAL_TOL:.0e})")
    return WorstCouplingReport(value=float((weights * cost).sum()), weights=weights,
                               repaired=m > 1)


def linprog(cost: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Optimal basic solution of min sum_ij W_ij cost_ij over W >= 0 with
    row and column sums both w, as an (m, m) array.

    A transportation simplex.  The basis is a spanning tree of 2m - 1 cells
    on the row/column graph, started from the north-west-corner staircase,
    with potentials u_i + v_j = cost_ij on every tree cell.  Each pivot
    enters the cell of most negative reduced cost (below -1e-12 max|cost|)
    and pushes flow around the cycle it closes; the leaving cell is the
    decreasing cell of smallest flow, ties going to the lowest basis index,
    and only the subtree it cuts off gets new potentials.  Raises
    RuntimeError after MAX_PIVOTS_PER_CELL * m * m pivots.

    The name is kept from the general LP solver this replaced:
    bench/tracer.py wraps uclab.coupling.linprog by that name to count the
    transport solves (coupling.linprog.calls).
    """
    m = w.size
    c = cost.tolist()
    basis, flow = [], []
    row_res, col_res = w.tolist(), w.tolist()
    i = j = 0
    while True:
        # one residual drops to exactly 0 and the other stays nonnegative
        f = min(row_res[i], col_res[j])
        basis.append((i, j))
        flow.append(f)
        row_res[i] -= f
        col_res[j] -= f
        if i == m - 1 and j == m - 1:
            break
        if j == m - 1 or (i < m - 1 and row_res[i] <= col_res[j]):
            i += 1
        else:
            j += 1
    enter_below = -1e-12 * float(np.abs(cost).max())
    # tree nodes: rows 0..m-1, columns m..2m-1, rooted at row 0;
    # adj[a][b] is the basis index of the tree edge a-b, up[a] that of the
    # edge from a to its parent
    adj = [{} for _ in range(2 * m)]
    for k, (r, s) in enumerate(basis):
        adj[r][m + s] = adj[m + s][r] = k
    pot = [0.0] * (2 * m)
    parent, up, depth = [-1] * (2 * m), [-1] * (2 * m), [0] * (2 * m)

    def hang(root):
        # parents, depths and potentials of the subtree below root
        stack = [root]
        while stack:
            a = stack.pop()
            for b, k in adj[a].items():
                if b != parent[a]:
                    r, s = basis[k]
                    pot[b] = c[r][s] - pot[a]
                    parent[b], up[b], depth[b] = a, k, depth[a] + 1
                    stack.append(b)

    hang(0)
    for _ in range(MAX_PIVOTS_PER_CELL * m * m):
        pot_arr = np.array(pot)
        reduced = cost - pot_arr[:m, None] - pot_arr[None, m:]
        e = int(np.argmin(reduced))
        if reduced.flat[e] >= enter_below:
            out = np.zeros((m, m))
            rows, cols = zip(*basis)
            out[rows, cols] = flow
            return out
        i, j = divmod(e, m)
        # the tree path from row i to column j closes the cycle; its edges
        # alternate -theta (first, at row i) and +theta
        a, b = i, m + j
        from_row, from_col = [], []
        while a != b:
            if depth[a] >= depth[b]:
                from_row.append(up[a])
                a = parent[a]
            else:
                from_col.append(up[b])
                b = parent[b]
        path = from_row + from_col[::-1]
        theta, leave = min((flow[k], k) for k in path[0::2])
        for k in path[0::2]:
            flow[k] -= theta
        for k in path[1::2]:
            flow[k] += theta
        r, s = basis[leave]
        del adj[r][m + s], adj[m + s][r]
        adj[i][m + j] = adj[m + j][i] = leave
        basis[leave] = (i, j)
        flow[leave] = theta
        # the leaving edge cut off the subtree holding row i or column j;
        # hang it from the entering edge and re-derive it
        a, b = (i, m + j) if leave in from_row else (m + j, i)
        pot[a] = c[i][j] - pot[b]
        parent[a], up[a], depth[a] = b, leave, depth[b] + 1
        hang(a)
    raise RuntimeError(
        f"transportation LP failed: no optimum within {MAX_PIVOTS_PER_CELL * m * m} pivots"
    )


def improved_slack(mu: DiscreteMeasure, alpha: float) -> float:
    """Blended slack (1-alpha) * quadratic + alpha * worst_coupling - linear.

    Positive slack certifies the blended union-entropy inequality for mu
    against every coupling of the second sample.  alpha = 0 collapses to
    objective(mu, 1).value and solves no coupling.  This is the scoring
    path of delta_search for every measure it builds one at a time.
    """
    alpha = float(_check_unit_interval(alpha, "alpha"))
    rep = objective(mu, 1.0)
    if alpha == 0.0:
        return rep.value
    return (1.0 - alpha) * rep.quadratic + alpha * worst_coupling_value(mu).value - rep.linear


def _two_atom_coupling(w0, w1, c00, c01, c11):
    """(t, value) of the worst coupling [[w0-t, t], [t, w1-t]] of two atoms of
    weights w0, w1 under the cost [[c00, c01], [c01, c11]], elementwise.

    The cost is linear in t on [0, min(w0, w1)], so the optimum sits at an
    endpoint.  value adds the four cells in row-major order, as the sum
    over the (2, 2) matrix does.
    """
    t = np.where(2.0 * c01 < c00 + c11, np.minimum(w0, w1), 0.0)
    return t, (w0 - t) * c00 + t * c01 + t * c01 + (w1 - t) * c11


def _two_atom_class(v: np.ndarray, w: np.ndarray, alpha: float):
    """Mean, linear part and blended slack of every mu = w delta_v + (1-w) delta_1.

    Each entry is bit-equal to mu.mean(), objective(mu, 1).linear and
    improved_slack(mu, alpha) for DiscreteMeasure.two_atom(v, w): objective_rows
    and _two_atom_coupling run on the full 2x2 matrices (union_prob(v, 1) is
    not always exactly 1), and at alpha = 0 the blend gives the bits of quad - lin.
    """
    x = np.stack([v, np.ones_like(v)], axis=1)
    wt = np.stack([w, 1.0 - w], axis=1)
    mean, lin, quad = objective_rows(x, wt)
    cost = entropy_kernel(coupled_union_kernel(x[:, :, None], x[:, None, :]))
    _, worst = _two_atom_coupling(wt[:, 0], wt[:, 1], cost[:, 0, 0], cost[:, 0, 1], cost[:, 1, 1])
    return mean, lin, (1.0 - alpha) * quad + alpha * worst - lin


class DeltaSearchReport(NamedTuple):
    """Largest mean excess over the golden threshold that survives the scan.

    closed_form_couplings counts worst couplings evaluated without the LP
    (measures with one or two atoms), lp_solves the transportation LPs and
    search_restarts the local-search restarts run: search_restarts //
    search_points, at least 1, at each of the search_points points.
    """

    delta: float
    measures_scanned: int
    closed_form_couplings: int
    lp_solves: int
    search_restarts: int
    violations: int
    failure_at_threshold: bool
    binding_measure: dict | None
    min_slack: float
    min_slack_measure: dict


def _measure_summary(mu: DiscreteMeasure, slack: float) -> dict:
    return {
        "locations": [float(v) for v in mu.locations],
        "weights": [float(v) for v in mu.weights],
        "mean": mu.mean(),
        "slack": float(slack),
    }


def delta_search(
    alpha: float,
    delta_steps: int = 200,
    delta_max: float = 0.02,
    v_steps: int = 96,
    mean_steps: int = 96,
    search_points: int = 7,
    search_restarts: int = 112,
    seed: int = DEFAULT_SEED,
) -> DeltaSearchReport:
    """Estimate how far above the golden threshold the blended inequality
    keeps holding, over a scanned class of measures.

    The scan covers the two-atom family (mass at v, rest at 1) with means
    ranging from DELTA_MEAN_MARGIN below the threshold to delta_max above it -
    densely, at the delta-grid step, in a narrow band just above the
    threshold where the margin actually closes - augmented with the worst
    measures local search can find for the plain (alpha = 0) functional
    near the threshold.  The reported delta is the largest multiple of
    delta_max / delta_steps such that no scanned measure with mean <=
    threshold + delta has nonpositive blended slack; measures at or below
    the threshold with nonpositive slack force delta = 0 and raise the
    failure flag.  This certifies only the scanned class - it is a numeric
    estimate, not a proof over all measures.

    The (mean, v) grid is limited to MAX_DELTA_GRID_CELLS cells and
    search_points and search_restarts to MAX_SEARCH_RESTARTS each, checked
    before anything is allocated.  Two-atom candidates are scored as array
    expressions over blocks of about DELTA_BLOCK_CELLS grid cells, each
    holding whole mean rows, which give the bits of one pass over the grid;
    only the point at the threshold and the local-search measures are built
    one at a time, and each of them is scored by improved_slack.
    """
    alpha = float(_check_unit_interval(alpha, "alpha"))
    _check_count(delta_steps, "delta_steps")
    _check_count(v_steps, "v_steps", low=0)
    _check_count(mean_steps, "mean_steps", low=0)
    # at most MAX_SEARCH_RESTARTS local-search restarts in all
    _check_count(search_points, "search_points", high=MAX_SEARCH_RESTARTS)
    _check_count(search_restarts, "search_restarts", high=MAX_SEARCH_RESTARTS)
    # the band just above the threshold holds at most delta_steps + 1 means
    cells = (mean_steps + delta_steps + 1) * (v_steps + 1)
    _check_count(cells, "cells of the delta-search grid", high=MAX_DELTA_GRID_CELLS)
    step = _check_float(delta_max / delta_steps, "delta_max / delta_steps", low=0)
    u_star = GOLDEN_THRESHOLD
    # the local search runs at mean caps up to u_star + delta_max, which
    # must stay below 1
    if not u_star + delta_max < 1.0:
        raise ValueError(f"delta_max must keep GOLDEN_THRESHOLD + delta_max below 1, "
                         f"got {delta_max}")
    band = min(0.006, delta_max)

    vs = np.linspace(0.005, 0.995, v_steps)
    vs = sorted_unique(np.append(vs, u_star))
    means = sorted_unique(np.concatenate([
        np.linspace(u_star - DELTA_MEAN_MARGIN, u_star + delta_max, mean_steps),
        u_star + np.arange(0.0, band + 0.5 * step, step),
    ]))
    # measures supported on {0, 1} make every entropy in the blended
    # inequality vanish, so their slack is identically zero at any alpha;
    # the strict inequality is vacuous for that degenerate class and it is
    # excluded from the scan rather than reported as a violation.
    # Candidates go in (mean, v) row-major order, which the argmin tie-break
    # depends on, a block of mean rows at a time; each row's products run
    # alone, so the blocks give the bits of one pass.  means always holds the
    # threshold, so there is at least one block, if an empty one.
    rows = max(1, DELTA_BLOCK_CELLS // vs.size)
    parts = []
    for lo in range(0, means.size, rows):
        v_grid, mean_grid = np.meshgrid(vs, means[lo : lo + rows])
        w_grid = (1.0 - mean_grid) / (1.0 - v_grid)
        # every mean is below 1, so v < mean gives 0 < w <= 1
        on = v_grid < mean_grid
        v, w = v_grid[on], w_grid[on]
        two_means, two_lin, two_slacks = _two_atom_class(v, w, alpha)
        scanned = two_lin > 1e-12
        parts.append((v[scanned], w[scanned], two_means[scanned], two_slacks[scanned]))
    v, w, two_means, two_slacks = (np.concatenate(col) for col in zip(*parts))

    extras = [DiscreteMeasure.point(u_star)]
    search_us = np.linspace(u_star - 0.01, u_star + delta_max, search_points)
    per = max(1, search_restarts // search_points)
    seeds = [seed + 7919 * k for k in range(search_points)]
    searches = local_search_rows(search_us, [1.0] * search_points, DELTA_ATOM_GRID, per, seeds)
    extras += [rep.best_measure for rep in searches]

    extras = [mu for mu in extras if objective(mu, 1.0).linear > 1e-12]
    extra_slacks = [improved_slack(mu, alpha) for mu in extras]
    lp_solves = sum(mu.size() > 2 for mu in extras) if alpha > 0.0 else 0
    closed_form = v.size + len(extras) - lp_solves if alpha > 0.0 else 0

    def measure(i):
        if i < v.size:
            return DiscreteMeasure.two_atom(float(v[i]), float(w[i]))
        return extras[i - v.size]

    scanned_means = np.concatenate([two_means, [mu.mean() for mu in extras]])
    slacks = np.concatenate([two_slacks, extra_slacks])
    cutoff = 1e-12
    violating = np.flatnonzero(slacks <= cutoff)
    min_idx = int(np.argmin(slacks))
    failure, delta, binding = False, delta_max, None
    if violating.size:
        # the violation of least mean decides the verdict: rounding is
        # monotone, so its mean is the least of the means compared
        first = int(violating[np.argmin(scanned_means[violating])])
        binding = _measure_summary(measure(first), slacks[first])
        failure = bool(scanned_means[first] <= u_star + cutoff)
        excess = scanned_means[first] - u_star
        delta = 0.0 if failure else step * int(np.floor((excess - 1e-15) / step))
    return DeltaSearchReport(
        delta=float(delta),
        measures_scanned=int(slacks.size),
        closed_form_couplings=closed_form,
        lp_solves=lp_solves,
        search_restarts=per * search_points,
        violations=int(violating.size),
        failure_at_threshold=failure,
        binding_measure=binding,
        min_slack=float(slacks[min_idx]),
        min_slack_measure=_measure_summary(measure(min_idx), slacks[min_idx]),
    )


class CouplingProcessReport(NamedTuple):
    """Exact law of the greedily coupled pair of uniform samples."""

    n: int
    family_size: int
    max_marginal_deviation: float
    marginals_uniform: bool
    union_entropy: float
    independent_union_entropy: float
    joint: tuple


def greedy_coupling_dp(f: Family, literal_rates: bool = False) -> CouplingProcessReport:
    """Run the shared-uniform coupling of two uniform samples from f as an
    exact dynamic program over prefix pairs.

    At step i, each side's inclusion rate is the fraction of members
    matching that side's own prefix that contain i; the two indicator bits
    are then coupled comonotonically when either rate reaches 1/2 and
    antithetically (with the 1/2 offset) otherwise.  Conditioning each
    side's rate on its own prefix is what makes both marginals exactly
    uniform on f; literal_rates=True swaps the conditioning prefixes (each
    side's rate read off the other side's prefix) for comparison, which
    breaks uniformity in general.

    Reports the full joint law, the worst marginal deviation from uniform,
    and the exact entropy of the coupled union next to the independent
    convolution's.
    """
    # imported here so that delta-search loads neither module
    from .families import is_union_closed
    from .setdist import ExplicitSetDistribution, _entropy_rows, union_of_independent

    _check_count(f.n, "n of the coupling DP", high=10)
    _check_count(f.size(), "sets of the coupling DP", high=64)
    if not is_union_closed(f):
        raise ValueError("family is not union-closed")
    n = f.n
    sets = f.sets
    states = {(0, 0): 1.0}
    for i in range(n):
        bit = 1 << i
        low = bit - 1
        rates = {}
        for s in sets:
            pref = s & low
            cnt, hit = rates.get(pref, (0, 0))
            rates[pref] = (cnt + 1, hit + ((s >> i) & 1))
        rate = {pref: hit / cnt for pref, (cnt, hit) in rates.items()}
        nxt = {}
        for (a, c), prob in states.items():
            if literal_rates:
                # cross-conditioned rates can reach prefixes no member
                # matches; an empty match group contributes rate 0
                pa, pc = rate.get(c, 0.0), rate.get(a, 0.0)
            else:
                pa, pc = rate.get(a), rate.get(c)
                if pa is None or pc is None:
                    if prob > 1e-12:
                        raise RuntimeError("positive mass on an unrealizable prefix")
                    continue
            # transition masses (p11, p10, p01, p00) in cancellation-free
            # form, so impossible moves are exact zeros and no phantom
            # prefixes appear
            if pa >= 0.5 or pc >= 0.5:
                masses = (min(pa, pc), max(pa - pc, 0.0), max(pc - pa, 0.0), 1.0 - max(pa, pc))
            else:
                masses = (max(0.0, pa + pc - 0.5), min(pa, 0.5 - pc), min(pc, 0.5 - pa),
                          max(1.0 - pa - pc, 0.5))
            for (da, dc), p in zip(((bit, bit), (bit, 0), (0, bit), (0, 0)), masses):
                if p <= 0.0:
                    continue
                key = (a | da, c | dc)
                nxt[key] = nxt.get(key, 0.0) + prob * p
        states = nxt
    size = len(sets)
    # each side's marginal against its target: 1/size on members, 0 elsewhere
    uniform = dict.fromkeys(sets, 1.0 / size)
    dev = 0.0
    for side in (0, 1):
        marg = dict.fromkeys(sets, 0.0)
        for pair, p in states.items():
            marg[pair[side]] = marg.get(pair[side], 0.0) + p
        dev = max(dev, *(abs(p - uniform.get(s, 0.0)) for s, p in marg.items()))
    union_law = {}
    for (a, c), p in states.items():
        union_law[a | c] = union_law.get(a | c, 0.0) + p
    h_union = float(_entropy_rows(np.fromiter(union_law.values(), float))) + 0.0
    d = ExplicitSetDistribution.uniform_on(n, sets)
    h_indep = union_of_independent(d, d).entropy()
    joint = tuple(
        (f"{a:x}", f"{c:x}", float(p)) for (a, c), p in sorted(states.items())
    )
    return CouplingProcessReport(
        n=n,
        family_size=size,
        max_marginal_deviation=float(dev),
        marginals_uniform=bool(dev <= MARGINAL_TOL),
        union_entropy=h_union,
        independent_union_entropy=float(h_indep),
        joint=joint,
    )
