"""Couplings of two samples and the worst-case coupled union entropy.

Two identically distributed inclusion rates p and r can be coupled through
a single shared uniform draw: comonotone when either rate is at least 1/2
(the union indicator then fires with probability max(p, r)), and antithetic
with an offset when both are below 1/2 (probability min(p + r, 1/2)).  The
combined map coupled_union_prob(p, r) = max(p, r, min(p + r, 1/2)) never
falls below max(p, r), which is the entropy gain this construction buys.

For a measure mu on [0, 1], the smallest possible expected union entropy
over all couplings of two mu-samples (marginals both mu, cost ->
H(coupled_union_prob)) has a closed form for one or two atoms and is a
transportation linear program for three up to MAX_LP_ATOMS, solved exactly
by the in-package transportation simplex `linprog`; its value enters the
blended slack

    (1 - alpha) E_{mu x mu}[H(p + q - pq)] + alpha * worst - E_mu[H(p)]

whose positivity over measures with mean slightly above the golden
threshold is what delta_search probes for.  The search evaluates its whole
two-atom class (mass at v, rest at 1) as one array expression.

greedy_coupling_dp realizes the same coupling step by step on a concrete
union-closed family as an exact dynamic program over prefix pairs, with
both one-sided marginals provably uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import DEFAULT_SEED
from .measures import (
    MAX_SEARCH_RESTARTS,
    DiscreteMeasure,
    local_search_rows,
    objective,
    sorted_unique,
)
from .scalars import (
    GOLDEN_THRESHOLD,
    _check_unit_interval,
    binary_entropy,
    entropy_kernel,
    union_kernel,
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


def coupled_union_prob(p, r):
    """Union-indicator probability under the shared-uniform coupling.

    max(p, r) when either rate is at least 1/2, else min(p + r, 1/2);
    symmetric, and equal to max(p, r, min(p + r, 1/2)) in every case.
    """
    a = _check_unit_interval(p, "rates")
    b = _check_unit_interval(r, "rates")
    both_small = (a < 0.5) & (b < 0.5)
    out = np.where(both_small, np.minimum(a + b, 0.5), np.maximum(a, b))
    if np.ndim(p) == 0 and np.ndim(r) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class JointMeasure:
    """Coupling of two discrete measures: nonnegative weight matrix whose
    row and column sums reproduce the two marginals."""

    row_marginal: DiscreteMeasure
    col_marginal: DiscreteMeasure
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m, k = self.row_marginal.size(), self.col_marginal.size()
        if w.shape != (m, k):
            raise ValueError(f"weight matrix must have shape {(m, k)}")
        if np.any(w < -1e-15):
            raise ValueError("coupling weights must be nonnegative")
        w = np.clip(w, 0.0, None)
        row_err = np.abs(w.sum(axis=1) - self.row_marginal.weights).max()
        col_err = np.abs(w.sum(axis=0) - self.col_marginal.weights).max()
        if max(row_err, col_err) > MARGINAL_TOL:
            raise ValueError(
                f"coupling marginals deviate by {max(row_err, col_err):.3e} (> {MARGINAL_TOL:.0e})"
            )
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


class WorstCouplingReport(NamedTuple):
    """Minimum expected coupled-union entropy over all couplings of mu.

    repaired is always True for two or more atoms and False for one;
    bench/tracer.py reads it for coupling.repaired_ratio, and it is to be
    removed together with that metric.
    """

    value: float
    coupling: JointMeasure
    independent_value: float
    repaired: bool


def worst_coupling_value(mu: DiscreteMeasure) -> WorstCouplingReport:
    """Solve min_W sum_ij W_ij H(coupled_union_prob(x_i, x_j)) over couplings
    W with both marginals mu.

    Two atoms have a closed form: every coupling is [[w0-t, t], [t, w1-t]]
    with t in [0, min(w0, w1)], and the cost is linear in t, so the optimum
    sits at an endpoint.  Three or more atoms (at most MAX_LP_ATOMS) go to
    the exact transportation simplex `linprog`, whose optimal vertex is
    returned as it is.  A vertex that misses the marginals by more than
    MARGINAL_TOL is an internal fault and raises RuntimeError.
    The value can never exceed the independent coupling's, which is also
    reported.
    """
    x, w = mu.locations, mu.weights
    m = x.size
    if m > MAX_LP_ATOMS:
        raise ValueError(f"worst-coupling LP is limited to {MAX_LP_ATOMS} atoms")
    cost = entropy_kernel(coupled_union_prob(x[:, None], x[None, :]))
    independent = float(w @ cost @ w)
    if m == 1:
        weights = np.ones((1, 1))
    elif m == 2:
        t = min(w[0], w[1]) if 2.0 * cost[0, 1] < cost[0, 0] + cost[1, 1] else 0.0
        weights = np.array([[w[0] - t, t], [t, w[1] - t]])
    else:
        weights = linprog(cost, w)
    try:
        coupling = JointMeasure(mu, mu, weights)
    except ValueError as exc:
        raise RuntimeError(f"transportation simplex vertex is not a coupling: {exc}") from exc
    return WorstCouplingReport(
        value=float((weights * cost).sum()),
        coupling=coupling,
        independent_value=independent,
        repaired=m > 1,
    )


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
        f = max(min(row_res[i], col_res[j]), 0.0)
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


def _blended_slack(mu: DiscreteMeasure, alpha: float):
    """improved_slack(mu, alpha) and the worst-coupling report it used
    (None at alpha = 0, where no coupling enters)."""
    rep = objective(mu, 1.0)
    if alpha == 0.0:
        return rep.value, None
    worst = worst_coupling_value(mu)
    return (1.0 - alpha) * rep.quadratic + alpha * worst.value - rep.linear, worst


def improved_slack(mu: DiscreteMeasure, alpha: float) -> float:
    """Blended slack (1-alpha) * quadratic + alpha * worst_coupling - linear.

    Positive slack certifies the blended union-entropy inequality for mu
    against every coupling of the second sample.  alpha = 0 collapses to
    objective(mu, 1).value.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return _blended_slack(mu, alpha)[0]


def _two_atom_class(v: np.ndarray, w: np.ndarray, alpha: float):
    """Mean, linear part and blended slack of every mu = w delta_v + (1-w) delta_1.

    Each entry is bit-equal to mu.mean(), objective(mu, 1).linear and
    improved_slack(mu, alpha) for DiscreteMeasure.two_atom(v, w): the
    batched matmuls run the same BLAS dot/gemv per measure as the 1-d
    products there, over the full 2x2 union-entropy matrix (union_prob(v, 1)
    is not always exactly 1).  The cost row and column of the atom at 1 are
    exactly 0, so the worst coupling is
    max(0, 2w - 1) * H(coupled_union_prob(v, v)).
    """
    x = np.stack([v, np.ones_like(v)], axis=1)
    wt = np.stack([w, 1.0 - w], axis=1)
    row, col = wt[:, None, :], wt[:, :, None]
    mean = (x[:, None, :] @ col)[:, 0, 0]
    lin = (row @ entropy_kernel(x)[:, :, None])[:, 0, 0]
    quad = (row @ entropy_kernel(union_kernel(x[:, :, None], x[:, None, :])) @ col)[:, 0, 0]
    if alpha == 0.0:
        return mean, lin, quad - lin
    worst = np.maximum(0.0, 2.0 * w - 1.0) * entropy_kernel(coupled_union_prob(v, v))
    return mean, lin, (1.0 - alpha) * quad + alpha * worst - lin


class DeltaSearchReport(NamedTuple):
    """Largest mean excess over the golden threshold that survives the scan.

    closed_form_couplings counts worst couplings evaluated without the LP
    (measures with one or two atoms) and lp_solves the transportation LPs.
    """

    alpha: float
    delta: float
    delta_max: float
    delta_steps: int
    measures_scanned: int
    closed_form_couplings: int
    lp_solves: int
    violations: int
    failure_at_threshold: bool
    binding_measure: dict | None
    min_slack: float
    min_slack_measure: dict
    seed: int


def _measure_summary(mu: DiscreteMeasure, slack: float) -> dict:
    return {
        "locations": [float(v) for v in mu.locations],
        "weights": [float(v) for v in mu.weights],
        "mean": mu.mean(),
        "slack": float(slack),
    }


def delta_search(
    alpha: float,
    u_cap_steps: int = 200,
    delta_max: float = 0.02,
    v_steps: int = 96,
    mean_steps: int = 64,
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
    delta_max / u_cap_steps such that no scanned measure with mean <=
    threshold + delta has nonpositive blended slack; measures at or below
    the threshold with nonpositive slack force delta = 0 and raise the
    failure flag.  This certifies only the scanned class - it is a numeric
    estimate, not a proof over all measures.

    The (mean, v) grid is limited to MAX_DELTA_GRID_CELLS cells and
    search_points and search_restarts to MAX_SEARCH_RESTARTS each, checked
    before anything is allocated.  Two-atom candidates are evaluated as one
    array expression; only the point at the threshold and the local-search
    measures are built one at a time.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if min(u_cap_steps, search_points, search_restarts) < 1:
        raise ValueError("u_cap_steps, search_points and search_restarts must be positive")
    if min(v_steps, mean_steps) < 0:
        raise ValueError("v_steps and mean_steps must be nonnegative")
    # at most MAX_SEARCH_RESTARTS local-search restarts in all
    for name, value in (("search_points", search_points), ("search_restarts", search_restarts)):
        if value > MAX_SEARCH_RESTARTS:
            raise ValueError(f"{name} must be at most {MAX_SEARCH_RESTARTS}, got {value}")
    # the band just above the threshold holds at most u_cap_steps + 1 means
    cells = (mean_steps + u_cap_steps + 1) * (v_steps + 1)
    if cells > MAX_DELTA_GRID_CELLS:
        raise ValueError(
            f"delta-search grid of up to {cells} (mean, v) cells exceeds {MAX_DELTA_GRID_CELLS}"
        )
    step = delta_max / u_cap_steps
    if not 0.0 < step < np.inf:
        raise ValueError("delta_max / u_cap_steps must be a positive finite step")
    u_star = GOLDEN_THRESHOLD
    # the local search runs at mean caps up to u_star + delta_max, which
    # must stay below 1
    if not u_star + delta_max < 1.0:
        raise ValueError(
            f"delta_max must keep GOLDEN_THRESHOLD + delta_max below 1, got {delta_max}"
        )
    band = min(0.006, delta_max)

    vs = np.linspace(0.005, 0.995, v_steps)
    vs = sorted_unique(np.append(vs, u_star))
    means = sorted_unique(
        np.concatenate(
            [
                np.linspace(u_star - DELTA_MEAN_MARGIN, u_star + delta_max, mean_steps),
                u_star + np.arange(0.0, band + 0.5 * step, step),
            ]
        )
    )
    # candidates in (mean, v) row-major order; the argmin tie-break depends on it
    v_grid, mean_grid = np.meshgrid(vs, means)
    w_grid = (1.0 - mean_grid) / (1.0 - v_grid)
    on = (v_grid < mean_grid) & (0.0 < w_grid) & (w_grid <= 1.0)
    v, w = v_grid[on], w_grid[on]
    two_means, two_lin, two_slacks = _two_atom_class(v, w, alpha)

    extras = [DiscreteMeasure.point(u_star)]
    search_us = np.linspace(u_star - 0.01, u_star + delta_max, search_points)
    per = max(1, search_restarts // search_points)
    seeds = [seed + 7919 * k for k in range(search_points)]
    searches = local_search_rows(search_us, [1.0] * search_points, DELTA_ATOM_GRID, per, seeds)
    extras += [rep.best_measure for rep in searches]

    # measures supported on {0, 1} make every entropy in the blended
    # inequality vanish, so their slack is identically zero at any alpha;
    # the strict inequality is vacuous for that degenerate class and it is
    # excluded from the scan rather than reported as a violation
    scanned = two_lin > 1e-12
    v, w = v[scanned], w[scanned]
    extras = [
        mu
        for mu in extras
        if float(np.dot(mu.weights, binary_entropy(mu.locations))) > 1e-12
    ]
    closed_form = v.size if alpha > 0.0 else 0
    lp_solves = 0
    extra_slacks = []
    for mu in extras:
        slack, worst = _blended_slack(mu, alpha)
        extra_slacks.append(slack)
        if worst is None:
            continue
        if mu.size() <= 2:
            closed_form += 1
        else:
            lp_solves += 1

    def measure(i):
        if i < v.size:
            return DiscreteMeasure.two_atom(float(v[i]), float(w[i]))
        return extras[i - v.size]

    scanned_means = np.concatenate([two_means[scanned], [mu.mean() for mu in extras]])
    slacks = np.concatenate([two_slacks[scanned], extra_slacks])
    cutoff = 1e-12
    violating = np.flatnonzero(slacks <= cutoff)
    min_idx = int(np.argmin(slacks))
    failure = bool(np.any(scanned_means[violating] <= u_star + cutoff))
    if failure:
        delta = 0.0
    elif violating.size:
        excess = np.min(scanned_means[violating] - u_star)
        delta = max(0.0, step * int(np.floor((excess - 1e-15) / step)))
    else:
        delta = delta_max
    binding = None
    if violating.size:
        first = int(violating[np.argmin(scanned_means[violating])])
        binding = _measure_summary(measure(first), slacks[first])
    return DeltaSearchReport(
        alpha=alpha,
        delta=float(delta),
        delta_max=float(delta_max),
        delta_steps=int(u_cap_steps),
        measures_scanned=int(slacks.size),
        closed_form_couplings=closed_form,
        lp_solves=lp_solves,
        violations=int(violating.size),
        failure_at_threshold=failure,
        binding_measure=binding,
        min_slack=float(slacks[min_idx]),
        min_slack_measure=_measure_summary(measure(min_idx), slacks[min_idx]),
        seed=seed,
    )


class CouplingProcessReport(NamedTuple):
    """Exact law of the greedily coupled pair of uniform samples."""

    n: int
    family_size: int
    max_marginal_deviation: float
    marginals_uniform: bool
    union_entropy: float
    independent_union_entropy: float
    literal_rates: bool
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
    from .setdist import ExplicitSetDistribution, _plogp, union_of_independent

    if f.n > 10 or f.size() > 64:
        raise ValueError("coupling DP is limited to n <= 10 and at most 64 sets")
    if not is_union_closed(f):
        raise ValueError("family is not union-closed")
    n = f.n
    sets = f.sets
    states = {(0, 0): 1.0}
    for i in range(n):
        low = (1 << i) - 1
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
            # transition masses in cancellation-free form, so impossible
            # moves are exact zeros and no phantom prefixes appear
            if pa >= 0.5 or pc >= 0.5:
                p11 = min(pa, pc)
                p10 = max(pa - pc, 0.0)
                p01 = max(pc - pa, 0.0)
                p00 = 1.0 - max(pa, pc)
            else:
                p11 = max(0.0, pa + pc - 0.5)
                p10 = min(pa, 0.5 - pc)
                p01 = min(pc, 0.5 - pa)
                p00 = max(1.0 - pa - pc, 0.5)
            bit = 1 << i
            for (da, dc, p) in (
                (bit, bit, p11),
                (bit, 0, p10),
                (0, bit, p01),
                (0, 0, p00),
            ):
                if p <= 0.0:
                    continue
                key = (a | da, c | dc)
                nxt[key] = nxt.get(key, 0.0) + prob * p
        states = nxt
    size = len(sets)
    uniform = 1.0 / size
    marg_a = {}
    marg_c = {}
    for (a, c), p in states.items():
        marg_a[a] = marg_a.get(a, 0.0) + p
        marg_c[c] = marg_c.get(c, 0.0) + p
    dev = 0.0
    for side in (marg_a, marg_c):
        for s in sets:
            dev = max(dev, abs(side.get(s, 0.0) - uniform))
        for s, p in side.items():
            if s not in sets:
                dev = max(dev, p)
    union_law = {}
    for (a, c), p in states.items():
        union_law[a | c] = union_law.get(a | c, 0.0) + p
    h_union = float(-_plogp(np.fromiter(union_law.values(), float)).sum()) + 0.0
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
        literal_rates=literal_rates,
        joint=joint,
    )
