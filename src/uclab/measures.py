"""Discrete measures on [0, 1] and the variational inequality they certify.

The central object is the functional

    J(mu; lam) = E_{(p,q) ~ mu x mu}[H(p + q - pq)] - lam * E_{p ~ mu}[H(p)]

over probability measures mu on [0, 1] with mean at most u, evaluated at
lam = entropy_ratio_bound(u).  The analysis shows the minimizers are
supported on at most two atoms, one of them at 1, so certification splits
into (a) an exact scan of that two-atom family and (b) an independent local
search over measures on a location grid that must not find anything
materially below the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import DEFAULT_SEED
from .scalars import (
    GOLDEN_THRESHOLD,
    binary_entropy,
    entropy_kernel,
    entropy_ratio_bound,
    entropy_ratio_bound_array,
    union_kernel,
    union_prob,
)

WEIGHT_TOL = 1e-12
MEAN_SLACK = 1e-12
# restarts of one pool size m descend together in stacks of at most this
# many R * m * m cells (at least one row), across every search point of a
# call; a fresh `all` peaks 0.6 MiB higher at this size than at 12,544
# cells (16 rows of 28 locations), 1.1 MiB at 32,768 and 2.2 MiB at 65,536
SEARCH_STACK_CELLS = 1 << 14
# grid locations per restart's pool, and descent rounds per restart
SEARCH_POOL_SIZE = 24
SEARCH_MAX_ROUNDS = 200
# grid points per block of the two-atom scan's u rows
SCAN_BLOCK_CELLS = 1 << 14
# how far lemma_certificate's search may beat the scan minimum
SEARCH_TOL = 1e-6
# lemma_certificate bounds, checked before any work: the u grid becomes one
# report row per u, and the v grid and restart count set the work
MAX_LEMMA_U_STEPS = 100_000
MAX_LEMMA_V_STEPS = 100_000
MAX_SEARCH_RESTARTS = 100_000
MAX_ATOM_GRID = 1_000_000
# the bound factor is below 2 on (0, 1), so up to this lam_scale every
# scaled factor stays finite: twice it is the largest float
MAX_LAM_SCALE = float(np.finfo(float).max) / 2.0


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-d array, as np.unique returns them.

    np.unique is avoided at run time because in numpy 2.4 its first call
    imports numpy.ma (about 15-19 ms of a fresh process)."""
    out = np.sort(values)
    keep = np.empty(out.size, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on [0, 1]."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float)
        ws = np.asarray(self.weights, dtype=float)
        if locs.ndim != 1 or ws.shape != locs.shape or locs.size == 0:
            raise ValueError("locations and weights must be matching 1-d arrays")
        if not (np.all(np.isfinite(locs)) and np.all(np.isfinite(ws))):
            raise ValueError("atoms must be finite")
        if np.any(locs < 0.0) or np.any(locs > 1.0):
            raise ValueError("locations must lie in [0, 1]")
        if np.any(np.diff(locs) <= 0.0):
            raise ValueError("locations must be strictly increasing")
        if np.any(ws < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(ws.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError("weights must sum to 1")
        locs = locs.copy()
        ws = ws.copy()
        locs.setflags(write=False)
        ws.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", ws)

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteMeasure":
        """Build from (location, weight) pairs; sorts, merges duplicate
        locations, and drops zero-weight atoms."""
        acc = {}
        for x, w in pairs:
            acc[float(x)] = acc.get(float(x), 0.0) + float(w)
        locs = sorted(x for x, w in acc.items() if w > 0.0)
        if not locs:
            raise ValueError("measure needs positive total mass")
        return cls(np.array(locs), np.array([acc[x] for x in locs]))

    @classmethod
    def point(cls, x: float) -> "DiscreteMeasure":
        return cls(np.array([float(x)]), np.array([1.0]))

    @classmethod
    def two_atom(cls, v: float, w: float) -> "DiscreteMeasure":
        """Mass w at v and mass 1 - w at 1."""
        if not 0.0 <= w <= 1.0:
            raise ValueError("w must lie in [0, 1]")
        return cls.from_pairs([(v, w), (1.0, 1.0 - w)])

    def mean(self) -> float:
        return float(np.dot(self.locations, self.weights))

    def size(self) -> int:
        return int(self.locations.size)


class ObjectiveReport(NamedTuple):
    """Value and parts of the quadratic-minus-linear entropy functional."""

    quadratic: float
    linear: float
    lam: float
    value: float
    mean: float


def objective(mu: DiscreteMeasure, lam: float) -> ObjectiveReport:
    """Evaluate J(mu; lam) together with its two parts.

    quadratic = sum_ij w_i w_j H(x_i + x_j - x_i x_j);
    linear    = sum_i w_i H(x_i);
    value     = quadratic - lam * linear.
    """
    x, w = mu.locations, mu.weights
    quad = float(w @ binary_entropy(union_prob(x[:, None], x[None, :])) @ w)
    lin = float(np.dot(w, binary_entropy(x)))
    return ObjectiveReport(
        quadratic=quad,
        linear=lin,
        lam=float(lam),
        value=quad - float(lam) * lin,
        mean=mu.mean(),
    )


class TwoAtomScanReport(NamedTuple):
    """Minimum of the two-atom objective along the binding mean constraint."""

    u: float
    lam: float
    v_steps: int
    min_slack: float
    argmin_v: float


def two_atom_min_scan(u: float, v_steps: int = 1000, lam: float | None = None) -> TwoAtomScanReport:
    """Scan two-atom measures (mass at v and at 1) with mean pinned to u.

    For each v in a grid on [0, u] the weight w = (1 - u)/(1 - v) makes the
    mean exactly u, which is the binding case of the constraint mean <= u;
    the scan reports the minimum slack and its location.  The grid contains
    u and the golden threshold exactly so the analytic equality cases land
    on grid points; among slacks tied within 1e-12 the largest v is
    reported, since the trivial zero at v = 0 would otherwise mask them.
    This is the one-row case of _two_atom_scan_rows.
    """
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie strictly inside (0, 1)")
    if v_steps < 2:
        raise ValueError("v_steps must be at least 2")
    if lam is None:
        lam = entropy_ratio_bound(u)
    sizes, slacks, argmins = _two_atom_scan_rows(np.array([u]), np.array([float(lam)]), v_steps)
    return TwoAtomScanReport(
        u=u,
        lam=float(lam),
        v_steps=int(sizes[0]),
        min_slack=float(slacks[0]),
        argmin_v=float(argmins[0]),
    )


def _two_atom_scan_rows(us: np.ndarray, lams: np.ndarray, v_steps: int):
    """two_atom_min_scan for every u of `us` (with factor lams[k] at us[k]),
    as arrays: grid sizes, minimum slacks and tie-broken argmin v.

    Row k scans the grid linspace(0, us[k], v_steps), plus the golden
    threshold when it lies below us[k]: the threshold is one more column,
    kept out of the minimum (infinite slack) in the other rows, and the
    largest-v tie-break is a max over values, so the column order does not
    matter.  Rows go through in blocks of about SCAN_BLOCK_CELLS grid points
    so peak memory does not grow with the number of rows.
    """
    sizes = np.full(us.size, v_steps, dtype=np.int64)
    slacks = np.empty(us.size)
    argmins = np.empty(us.size)
    block = max(1, SCAN_BLOCK_CELLS // v_steps)
    for lo in range(0, us.size, block):
        u = us[lo : lo + block, None]
        lam = lams[lo : lo + block, None]
        vs = np.linspace(0.0, u[:, 0], v_steps, axis=1)
        golden = u > GOLDEN_THRESHOLD
        sizes[lo : lo + block] += golden[:, 0] & ~(vs == GOLDEN_THRESHOLD).any(axis=1)
        # the threshold column is evaluated only where it lies below u: at
        # the other rows its weight exceeds 1, and a huge lam would overflow
        gold = np.full_like(u, np.inf)
        gold[golden] = _two_atom_slack(u[golden], GOLDEN_THRESHOLD, lam[golden])
        slack = np.hstack([_two_atom_slack(u, vs, lam), gold])
        vs = np.hstack([vs, np.full_like(u, GOLDEN_THRESHOLD)])
        low = slack.min(axis=1, keepdims=True)
        slacks[lo : lo + block] = low[:, 0]
        argmins[lo : lo + block] = np.where(slack <= low + 1e-12, vs, -np.inf).max(axis=1)
    return sizes, slacks, argmins


def _two_atom_slack(u, vs, lam):
    """J(w delta_v + (1 - w) delta_1) with w = (1 - u)/(1 - v), elementwise."""
    w = (1.0 - u) / (1.0 - vs)
    return w * w * entropy_kernel(union_kernel(vs, vs)) - lam * w * entropy_kernel(vs)


class LocalSearchReport(NamedTuple):
    """Best measure found by seeded exchange-move descent."""

    best_value: float
    best_measure: DiscreteMeasure
    mean_cap: float
    two_point_with_top: bool
    restarts: int
    seed: int


def local_search_min(
    u: float,
    lam: float,
    atom_grid: int = 1000,
    restarts: int = 100,
    seed: int = DEFAULT_SEED,
) -> LocalSearchReport:
    """Minimize J over measures on a location grid with mean at most u.

    Each restart draws a random sparse start from a pool of SEARCH_POOL_SIZE
    grid locations (the pool always contains 0, u, the golden threshold, and
    1, so the analytic candidates are reachable), then repeatedly applies
    the best feasible exchange move - shifting some or all of one atom's
    mass onto another location without pushing the mean above u - until no
    move improves the value or SEARCH_MAX_ROUNDS moves are made.  Restart r
    uses seed + r, so runs are reproducible, and among equal final values
    the first restart wins.

    This is the one-point case of local_search_rows, which runs the
    descent on stacks of restarts; every restart ends with the measure a
    restart-by-restart loop would reach.

    The report flags whether the best measure concentrates at least
    1 - 1e-3 of its mass on at most two locations, one of them 1, which is
    the structure the two-atom analysis predicts for minimizers.
    """
    return local_search_rows([u], [lam], atom_grid, restarts, [seed])[0]


def local_search_rows(
    us,
    lams,
    atom_grid: int = 1000,
    restarts: int = 100,
    seeds=(DEFAULT_SEED,),
) -> list:
    """local_search_min at every point k of us, with factor lams[k] and
    restart r seeded by seeds[k] + r: one LocalSearchReport per point.

    The draws run point by point, restart by restart, in the order of a
    loop of local_search_min calls.  Each start joins the pending stack of
    its pool size m, shared by all points, and a stack descends
    (_exchange_descent) as soon as it holds SEARCH_STACK_CELLS // m^2 rows
    (at least one); what is left descends at the end.  So memory does not
    grow with the restarts: only each point's best restart so far is kept.
    The lower value wins, and among equal values the lower restart index,
    the choice np.argmin makes over one point's values; lam must be finite,
    so no NaN value can make the two rules differ.
    """
    us = [float(u) for u in us]
    lams = [float(lam) for lam in lams]
    if not len(us) == len(lams) == len(seeds):
        raise ValueError("us, lams and seeds must have the same length")
    for u, lam in zip(us, lams):
        if not 0.0 < u < 1.0:
            raise ValueError("u must lie strictly inside (0, 1)")
        if not math.isfinite(lam):
            raise ValueError(f"lam must be finite, got {lam}")
    if restarts < 1 or atom_grid < 1:
        raise ValueError("restarts and atom_grid must be positive")
    grid = np.linspace(0.0, 1.0, atom_grid + 1)
    u_rows, lam_rows = np.array(us), np.array(lams)
    # per point: (value, restart, kept locations, kept weights)
    best = [None] * len(us)

    def descend(stack):
        points, rs, pools, starts = (list(part) for part in zip(*stack))
        w = np.stack(starts)
        vals = _exchange_descent(np.stack(pools), w, lam_rows[points], u_rows[points],
                                  SEARCH_MAX_ROUNDS)
        for k, r, x, row, val in zip(points, rs, pools, w, vals):
            b = best[k]
            if b is None or val < b[0] or (val == b[0] and r < b[1]):
                keep = row > 0.0
                best[k] = (val, r, x[keep], row[keep])

    pending = {}  # pool size -> [(point, restart, pool, start), ...]
    for k, (u, seed) in enumerate(zip(us, seeds)):
        specials = np.array([0.0, u, GOLDEN_THRESHOLD, 1.0])
        for r in range(restarts):
            rng = np.random.default_rng(seed + r)
            picks = rng.choice(grid, size=min(SEARCH_POOL_SIZE, grid.size), replace=False)
            x = sorted_unique(np.concatenate([picks, specials]))
            stack = pending.setdefault(x.size, [])
            stack.append((k, r, x, _random_feasible_start(rng, x, u)))
            if len(stack) >= max(1, SEARCH_STACK_CELLS // (x.size * x.size)):
                descend(pending.pop(x.size))
    for stack in pending.values():
        descend(stack)

    reports = []
    for k, (u, seed) in enumerate(zip(us, seeds)):
        val, _, x, w = best[k]
        best[k] = None
        measure = DiscreteMeasure.from_pairs(zip(x, w / w.sum()))
        reports.append(LocalSearchReport(
            best_value=float(val),
            best_measure=measure,
            mean_cap=u,
            two_point_with_top=_is_two_point_with_top(measure),
            restarts=restarts,
            seed=seed,
        ))
    return reports


def _random_feasible_start(rng, x: np.ndarray, u: float) -> np.ndarray:
    m = x.size
    k = int(rng.integers(2, 6))
    idx = rng.choice(m, size=min(k, m), replace=False)
    w = np.zeros(m)
    w[idx] = rng.dirichlet(np.ones(idx.size))
    mean = float(np.dot(x, w))
    # drain mass into the lowest location, x[0] = 0 (0 is always in the
    # sorted pool), from the top down; plain floats, as numpy scalars cost
    # more per step than the arithmetic
    xs, ws = x.tolist(), w.tolist()
    for a in range(m - 1, 0, -1):
        if mean <= u:
            break
        if xs[a] <= 0.0 or ws[a] <= 0.0:
            continue
        delta = min(ws[a], (mean - u) / (xs[a] - xs[0]))
        ws[a] -= delta
        ws[0] += delta
        mean -= delta * (xs[a] - xs[0])
    return np.array(ws)


def _exchange_descent(x, w, lam, u, max_rounds):
    """Exchange-move descent of local_search_rows on a stack of restarts.

    x and w are (R, m): each row is one restart's sorted pool and start
    weights, and w is moved to the final weights in place; lam and u are
    (R,), each row's factor and mean cap, so one stack can hold restarts of
    several search points.  Returns J of each final measure.

    Each round, every restart that still moves takes its best
    value-decreasing transfer of the full or half mass of one atom onto
    another location, with the change in J evaluated in closed form from
    the union-entropy matrix and the weight-free terms (the curvature
    H_aa - 2 H_ab + H_bb, lam times the change in the linear term, the
    change in location).  A restart stops when no move improves J by more
    than 1e-14.  Near-ties (within 1e-15) go to the largest target location,
    mirroring the push-to-the-boundary structure of the minimizers, and
    among those to the first in row-major order.

    Only atoms of positive weight can give mass away, so each round works on
    those rows, gathered in ascending order and padded with zero-weight
    rows, which are never feasible.  Every term is computed row by row with
    that row's own lam and u, the stacked matmuls run the same BLAS
    gemv/dot per restart as the 1-d products of a one-restart loop, and a
    move onto its own location changes J by exactly 0, so the result is
    bit-identical to that loop (tests/helpers.exchange_descent_loop),
    whatever else the stack holds.
    """
    stack, m = x.shape
    # one entropy call: each restart's union-entropy matrix on top, H(x) below it
    ent = entropy_kernel(
        np.concatenate([union_kernel(x[:, :, None], x[:, None, :]), x[:, None, :]], axis=1)
    )
    big_h, h = ent[:, :-1], ent[:, -1]
    diag = np.diagonal(big_h, axis1=1, axis2=2)
    # the weight-free terms of moving mass from location a to location b,
    # on axis 2 of terms[:, a, :, b], so one gather a round takes all three
    terms = np.stack([
        lam[:, None, None] * (h[:, None, :] - h[:, :, None]),
        diag[:, :, None] - 2.0 * big_h + diag[:, None, :],
        x[:, None, :] - x[:, :, None],
    ], axis=2)
    cap = u + MEAN_SLACK
    # the full and the half move run together on a leading axis of length 2
    fracs = np.array([1.0, 0.5])[:, None, None, None]
    active = np.arange(stack)
    for _ in range(max_rounds):
        wa, xa = w[active], x[active]
        mw = (big_h[active] @ wa[:, :, None])[:, :, 0]
        mean = (xa[:, None, :] @ wa[:, :, None])[:, 0, 0]
        # the source rows: positive weights first, each part in ascending order
        pos = wa > 0.0
        rows = np.argsort(~pos, axis=1, kind="stable")[:, : int(pos.sum(axis=1).max())]
        i = np.arange(active.size)[:, None]
        lam_d_lin, curv, shift = terms[active[:, None], rows].transpose(2, 0, 1, 3)
        slope = 2.0 * (mw[:, None, :] - mw[i, rows][:, :, None]) - lam_d_lin
        delta = fracs * wa[i, rows][:, :, None]
        dval = delta * slope + delta * delta * curv
        cap_a = cap[active][:, None, None]
        feasible = (delta > 0.0) & (mean[:, None, None] + delta * shift <= cap_a)
        masked = np.where(feasible, dval, np.inf)
        low = masked.min(axis=(2, 3))
        near = masked <= low[:, :, None, None] + 1e-15
        # argmax returns the first (row-major) of the largest targets
        k = np.argmax(np.where(near, xa[:, None, :], -np.inf).reshape(2, active.size, -1), axis=2)
        row, col = np.divmod(k, m)
        # the half move replaces the full one only when it is strictly better
        half = low[1] < np.minimum(low[0], -1e-14)
        moved = half | (low[0] < -1e-14)
        if not moved.any():
            break
        j = np.flatnonzero(moved)
        f = half[j].astype(np.intp)
        src, dst, amount = rows[j, row[f, j]], col[f, j], delta[f, j, row[f, j], 0]
        active = active[j]
        w[active, src] = np.maximum(w[active, src] - amount, 0.0)
        w[active, dst] += amount
    quad = ((w[:, None, :] @ big_h) @ w[:, :, None])[:, 0, 0]
    return quad - lam * (w[:, None, :] @ h[:, :, None])[:, 0, 0]


def _is_two_point_with_top(mu: DiscreteMeasure) -> bool:
    order = np.argsort(mu.weights)[::-1]
    top_two = set(np.asarray(mu.locations)[order[:2]])
    covered = float(mu.weights[order[:2]].sum())
    if mu.size() == 1:
        return True
    if covered < 1.0 - 1e-3:
        return False
    return 1.0 in top_two or float(mu.weights[order[1]]) <= 1e-3


class LemmaCertificate(NamedTuple):
    """Grid certificate that J stays nonnegative along the bound factor."""

    u_steps: int
    v_steps: int
    worst_slack: float
    worst_u: float
    argmin_v_at_worst: float
    scan_ok: bool
    search_points: int
    search_restarts: int
    worst_search_margin: float
    search_ok: bool
    seed: int
    lam_scale: float
    rows: tuple


def lemma_certificate(
    u_steps: int = 1000,
    v_steps: int = 1000,
    restarts: int = 1000,
    atom_grid: int = 1000,
    search_points: int = 21,
    seed: int = DEFAULT_SEED,
    lam_scale: float = 1.0,
    scan_tol: float = 1e-9,
) -> LemmaCertificate:
    """Certify min J >= 0 over a u-grid by scan plus independent search.

    For every u in an interior grid (the golden threshold is injected
    exactly) the two-atom scan must stay above -scan_tol, and on a coarser
    sub-grid the local search - restarts split evenly across the sub-grid -
    must not beat the scan minimum by more than SEARCH_TOL.  lam_scale
    multiplies the bound factor and exists so a deliberately inflated
    factor can be seen to fail; it is at most MAX_LAM_SCALE, so every
    scaled factor is finite.  All search points' restarts go to one
    local_search_rows call.
    """
    if min(u_steps, restarts, atom_grid, search_points) < 1:
        raise ValueError("u_steps, restarts, atom_grid and search_points must be positive")
    if v_steps < 2:
        raise ValueError("v_steps must be at least 2")
    for name, value, cap in (
        ("u_steps", u_steps, MAX_LEMMA_U_STEPS),
        ("v_steps", v_steps, MAX_LEMMA_V_STEPS),
        ("restarts", restarts, MAX_SEARCH_RESTARTS),
        ("atom_grid", atom_grid, MAX_ATOM_GRID),
    ):
        if value > cap:
            raise ValueError(f"{name} must be at most {cap}, got {value}")
    if not 0.0 <= scan_tol < np.inf:
        raise ValueError(f"scan_tol must be finite and nonnegative, got {scan_tol}")
    if not 0.0 < lam_scale < np.inf:
        raise ValueError(f"lam_scale must be finite and positive, got {lam_scale}")
    if lam_scale > MAX_LAM_SCALE:
        raise ValueError(f"lam_scale must be at most {MAX_LAM_SCALE}, got {lam_scale}")
    us = np.arange(1, u_steps + 1) / (u_steps + 1.0)
    us = sorted_unique(np.append(us, GOLDEN_THRESHOLD))
    lams = entropy_ratio_bound_array(us) * lam_scale

    _, slacks, argmins = _two_atom_scan_rows(us, lams, v_steps)
    worst_idx = int(np.argmin(slacks))

    pick = np.linspace(0, us.size - 1, min(search_points, us.size)).astype(int)
    star = int(np.argmin(np.abs(us - GOLDEN_THRESHOLD)))
    pick = sorted_unique(np.append(pick, star))
    per = max(1, restarts // pick.size)
    searches = local_search_rows(us[pick], lams[pick], atom_grid=atom_grid, restarts=per,
                                 seeds=[seed + 1_000_003 * int(k) for k in pick])
    margins = [slacks[k] - s.best_value for k, s in zip(pick, searches)]
    worst_margin = float(max(margins))

    rows = tuple(
        {
            "u": float(u),
            "ratio_bound": float(lam),
            "min_slack": float(slack),
            "argmin_v": float(v),
        }
        for u, lam, slack, v in zip(us, lams, slacks, argmins)
    )
    return LemmaCertificate(
        u_steps=int(us.size),
        v_steps=v_steps,
        worst_slack=float(slacks[worst_idx]),
        worst_u=float(us[worst_idx]),
        argmin_v_at_worst=float(argmins[worst_idx]),
        scan_ok=bool(slacks[worst_idx] >= -scan_tol),
        search_points=int(pick.size),
        search_restarts=per * int(pick.size),
        worst_search_margin=worst_margin,
        search_ok=bool(worst_margin <= SEARCH_TOL),
        seed=seed,
        lam_scale=float(lam_scale),
        rows=rows,
    )


def parallel_map(fn, items, jobs: int):
    """Serial map that nothing in uclab calls; jobs is ignored.

    bench/tracer.py looks it up by name and wraps it with this signature,
    and it is to be removed together with that wrapper.
    """
    return [fn(it) for it in items]
