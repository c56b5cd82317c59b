"""Exact probability distributions over subsets of a small ground set [n].

Subsets are n-bit masks (bit i-1 set iff element i is in the set, elements
numbered 1..n).  An ExplicitSetDistribution stores the full table of 2^n
probabilities, so every quantity here - entropy, marginals, the union of
two independent samples, KL divergence - is computed exactly up to
floating point, with no sampling.

Every table kernel reads the table through one view, `_split(probs, i)`:
the reshape to (..., 2^(n-i), 2, 2^(i-1)), indexed (tables, higher
elements, element i, lower elements).  Its last axis is the prefix mask on
elements 1..i-1, so marginals and the zeta transform are slices and axis
sums of it, and no mask array is ever built.  The leading axes
hold a stack of tables: the union-entropy check and the marginals run on a
(T, 2^n) stack with the same arithmetic per row as on one table, so a row
of the stack gives the same bits as the table alone.

The union of independent samples is a convolution under the union
operation; it is evaluated in O(n 2^n) through the subset zeta transform
(zeta(P * Q) = zeta(P) zeta(Q) pointwise) rather than the quadratic
double sum.  Zeta and its inverse, the Moebius transform, are one pass over
the elements that adds or subtracts the "element absent" half into the
"element present" half.

A ProductMixture is a convex combination of product (independent
coordinate) distributions.  It stays symbolic, so entropy bounds remain
available at ground-set sizes where the explicit table would not fit: the
exact entropy is bracketed between the mixture's average conditional
entropy and that average plus the entropy of the mixing weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scalars import (
    GOLDEN_THRESHOLD,
    PHI,
    _check_count,
    _check_distribution,
    _check_open_unit_interval,
    _check_unit_interval,
    entropy_kernel,
    entropy_ratio_bound_array,
)

# Explicit tables are capped here; beyond it only mixture bound arithmetic
# stays exact, and pretending otherwise would be dishonest about memory.
MAX_EXPLICIT_N = 24

# Probabilities below this are treated as exact zeros inside entropy and KL
# sums, so log() is never fed a denormal-or-zero value.
PROB_FLOOR = 1e-300


def _split(probs: np.ndarray, i: int) -> np.ndarray:
    """View of a stack of 2^n tables as (..., higher elements, element i,
    lower elements)."""
    return probs.reshape(*probs.shape[:-1], -1, 2, 1 << (i - 1))


def _marginal_rows(probs: np.ndarray, n: int) -> np.ndarray:
    """(..., n) inclusion probabilities of a stack of 2^n tables.  Entry
    i - 1 sums the row's element-i-present half, copied out in mask order,
    so a row of the stack gives the bits of its table alone."""
    lead = probs.shape[:-1]
    out = np.empty((*lead, n))
    for i in range(1, n + 1):
        out[..., i - 1] = _split(probs, i)[..., 1, :].reshape(*lead, -1).sum(axis=-1)
    return out


def _entropy_rows(probs: np.ndarray) -> np.ndarray:
    """-sum p log p along the last axis, in nats, with every entry at or
    below PROB_FLOOR counted as 0."""
    plogp = np.zeros_like(probs)
    pos = probs > PROB_FLOOR
    plogp[pos] = probs[pos] * np.log(probs[pos])
    return -plogp.sum(axis=-1)


@dataclass(frozen=True, eq=False)
class ExplicitSetDistribution:
    """Full probability table over the 2^n subsets of [n]; equal only to itself."""

    n: int
    probs: np.ndarray

    def __post_init__(self):
        _check_count(self.n, "n of an explicit table", high=MAX_EXPLICIT_N)
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (1 << self.n,):
            raise ValueError(f"probs must have length 2^{self.n}")
        _check_distribution(probs, "probabilities")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_mapping(cls, n: int, mapping) -> "ExplicitSetDistribution":
        """Build from {mask: probability}; omitted masks get probability 0."""
        _check_count(n, "n of an explicit table", high=MAX_EXPLICIT_N)
        probs = np.zeros(1 << n)
        for mask, p in mapping.items():
            if not 0 <= mask < (1 << n):
                raise ValueError(f"mask {mask:#x} out of range for n={n}")
            probs[mask] = p
        return cls(n, probs)

    @classmethod
    def uniform_on(cls, n: int, masks) -> "ExplicitSetDistribution":
        masks = list(masks)
        if not masks:
            raise ValueError("support must be nonempty")
        if len(set(masks)) != len(masks):
            raise ValueError("support masks must be distinct")
        return cls.from_mapping(n, {m: 1.0 / len(masks) for m in masks})

    def support(self) -> np.ndarray:
        return np.nonzero(self.probs > PROB_FLOOR)[0]

    def entropy(self) -> float:
        """Shannon entropy -sum p log p in nats."""
        return float(_entropy_rows(self.probs))

    def marginals(self) -> np.ndarray:
        """Inclusion probability of every element: entry i - 1 is the
        probability that element i lies in the sampled set."""
        return _marginal_rows(self.probs, self.n)


def _subset_transform(values: np.ndarray, n: int, op) -> np.ndarray:
    """Subset zeta (op = np.add: out[S] = sum over T subset of S of values[T])
    or its inverse, the Moebius transform (op = np.subtract)."""
    t = values.copy()
    for i in range(n, 0, -1):
        v = _split(t, i)
        op(v[..., 1, :], v[..., 0, :], out=v[..., 1, :])
    return t


def _union_tables(z: np.ndarray, n: int) -> np.ndarray:
    """Union tables from the pointwise product z of two zeta transforms:
    the Moebius transform of each row, clipped and renormalized."""
    out = _subset_transform(z, n, np.subtract)
    if out.min() < -1e-9:
        raise RuntimeError("union convolution produced significantly negative mass")
    out = np.clip(out, 0.0, None)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def union_of_independent(
    d1: ExplicitSetDistribution, d2: ExplicitSetDistribution
) -> ExplicitSetDistribution:
    """Distribution of S1 | S2 for independent S1 ~ d1, S2 ~ d2.

    Computed through the subset zeta transform in O(n 2^n).  The output is
    renormalized after clipping the tiny negative masses the inverse
    transform can produce; its marginal at every element equals
    union_prob of the input marginals.
    """
    if d1.n != d2.n:
        raise ValueError("distributions must share the same ground set size")
    n = d1.n
    z = _subset_transform(d1.probs, n, np.add) * _subset_transform(d2.probs, n, np.add)
    return ExplicitSetDistribution(n, _union_tables(z, n))


def kl_divergence(p: ExplicitSetDistribution, q: ExplicitSetDistribution) -> float:
    """KL divergence sum P log(P/Q) in nats; +inf when P escapes Q's support.

    Nonnegative, and zero exactly when the two tables agree; tiny negative
    roundoff is clamped to zero.
    """
    if p.n != q.n:
        raise ValueError("distributions must share the same ground set size")
    mask = p.probs > PROB_FLOOR
    if np.any(q.probs[mask] <= PROB_FLOOR):
        return float("inf")
    pm = p.probs[mask]
    qm = q.probs[mask]
    val = float(np.dot(pm, np.log(pm) - np.log(qm)))
    return max(val, 0.0)


@dataclass(frozen=True)
class ProductMixture:
    """Convex combination of product distributions over subsets of [n].

    components is a sequence of (weight, inclusion) pairs: with probability
    `weight`, each element enters the set independently with probability
    `inclusion`.
    """

    n: int
    components: tuple

    def __post_init__(self):
        _check_count(self.n, "n")
        comps = tuple((float(w), float(r)) for w, r in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        _check_distribution([w for w, _ in comps], "weights")
        _check_unit_interval([r for _, r in comps], "inclusion probabilities")
        object.__setattr__(self, "components", comps)

    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.components])

    def inclusions(self) -> np.ndarray:
        return np.array([r for _, r in self.components])


def mixture_entropy_bounds(m: ProductMixture) -> tuple:
    """(lower, upper) bracket on the exact entropy of the mixture.

    lower is the average conditional entropy sum_k w_k * n * H(r_k); upper
    adds the entropy of the mixing weights, so upper - lower <= log(K) for
    K components (log 2 for two).
    """
    ws = m.weights()
    lower = float(m.n * np.dot(ws, entropy_kernel(m.inclusions())))
    upper = lower + float(_entropy_rows(ws))
    return lower, upper


def expand_mixture(m: ProductMixture) -> ExplicitSetDistribution:
    """Exact 2^n table of the mixture (small n only)."""
    _check_count(m.n, "n of an explicit table", high=MAX_EXPLICIT_N)
    probs = np.zeros(1 << m.n)
    for w, r in m.components:
        probs += w * product_tables(m.n, r)
    probs /= probs.sum()
    return ExplicitSetDistribution(m.n, probs)


def product_tables(n: int, u) -> np.ndarray:
    """Product-Bernoulli table on 2^n masks for a float u, or a (len(u), 2^n)
    stack with one table per entry of an array u; u is not range-checked."""
    u = np.asarray(u, dtype=float)[..., None]
    table = np.ones(u.shape)
    for _ in range(n):
        table = np.concatenate([table * (1.0 - u), table * u], axis=-1)
    return table


def product_bernoulli(n: int, u: float) -> ExplicitSetDistribution:
    """Each element included independently with probability u.

    Entropy is exactly n H(u); this is the equality case of the union
    entropy bound whenever u stays at or below the golden threshold.
    """
    _check_unit_interval(u, "u")
    _check_count(n, "n of an explicit table", high=MAX_EXPLICIT_N)
    return ExplicitSetDistribution(n, product_tables(n, u))


def golden_threshold_mixture(u: float, n: int) -> ProductMixture:
    """Two-component mixture meeting the union entropy bound above the threshold.

    With probability (1 - u) * PHI each element is included independently
    with the golden-threshold probability; otherwise the set is all of [n].
    Requires u >= GOLDEN_THRESHOLD so the first weight stays in [0, 1];
    the mixture's per-element marginal is exactly u.
    """
    _check_unit_interval(u, "u")
    w = (1.0 - u) * PHI
    if w > 1.0 + 1e-12:
        raise ValueError("u must be at least the golden threshold")
    w = min(w, 1.0)
    return ProductMixture(n, ((w, GOLDEN_THRESHOLD), (1.0 - w, 1.0)))


class UnionBoundReport(NamedTuple):
    """Outcome of checking H(A u B) >= bound(u) * H(A) on one distribution."""

    max_marginal: float
    lhs: float
    rhs: float
    slack: float
    ratio_bound: float


def union_entropy_rows(probs: np.ndarray, n: int) -> tuple:
    """The union-entropy bound on every table of a (T, 2^n) stack, as the
    UnionBoundReport fields (max_marginal, lhs, rhs, slack, ratio_bound),
    each an array over the T rows.

    Every row must pass the ExplicitSetDistribution checks.  A row whose
    maximum marginal is 0 or 1 is not checked, since the bound factor
    degenerates there: its lhs, rhs, slack and ratio bound are NaN.  Each
    checked row gets the bits union_entropy_check gives its table alone.
    """
    _check_distribution(probs, "probabilities")
    u = _marginal_rows(probs, n).max(axis=-1)
    lhs, rhs, lam = (np.full(u.shape, np.nan) for _ in range(3))
    live = (u > 0.0) & (u < 1.0)
    if live.any():
        p = probs if live.all() else probs[live]
        z = _subset_transform(p, n, np.add)
        union = _union_tables(z * z, n)
        _check_distribution(union, "probabilities")
        lam[live] = entropy_ratio_bound_array(u[live])
        lhs[live] = _entropy_rows(union)
        rhs[live] = lam[live] * _entropy_rows(p)
    return u, lhs, rhs, lhs - rhs, lam


def union_entropy_check(d: ExplicitSetDistribution) -> UnionBoundReport:
    """Evaluate the union-entropy lower bound for two independent samples of d.

    lhs is the exact entropy of the union, rhs is the piecewise bound factor
    at the maximum marginal times the entropy of d, slack = lhs - rhs.
    Distributions whose maximum marginal is 0 or 1 are rejected: the bound
    factor degenerates there and the statement is vacuous.
    """
    u, lhs, rhs, slack, lam = (float(col[0]) for col in union_entropy_rows(d.probs[None], d.n))
    _check_open_unit_interval(u, "maximum marginal")
    return UnionBoundReport(max_marginal=u, lhs=lhs, rhs=rhs, slack=slack, ratio_bound=lam)


def _write_records(path, n: int, lines) -> None:
    """Write the `n=<int>` header, then each line of `lines`."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n={n}\n")
        fh.writelines(f"{ln}\n" for ln in lines)


def _read_records(path, kind: str, width: int) -> tuple:
    """(n, records) of an `n=<int>` file: every later nonblank line split
    into exactly `width` whitespace-separated tokens."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError(f"{kind} file must start with an n=<int> header")
    n = int(lines[0][2:])
    records = [ln.split() for ln in lines[1:]]
    for ln, tok in zip(lines[1:], records):
        if len(tok) != width:
            raise ValueError(f"bad {kind} line: {ln!r}")
    return n, records


def save_distribution(d: ExplicitSetDistribution, path) -> None:
    """Write `n=<int>` then one `mask_hex probability` line per nonzero mask."""
    _write_records(path, d.n, (f"{int(m):x} {d.probs[m]:.17g}" for m in d.support()))


def load_distribution(path) -> ExplicitSetDistribution:
    n, records = _read_records(path, "distribution", 2)
    mapping = {int(mask, 16): float(p) for mask, p in records}
    if len(mapping) < len(records):
        raise ValueError("bad distribution line: a mask is listed twice")
    return ExplicitSetDistribution.from_mapping(n, mapping)


def save_mixture(m: ProductMixture, path) -> None:
    """Write `n=<int>` then one `weight inclusion` line per component."""
    _write_records(path, m.n, (f"{w:.17g} {r:.17g}" for w, r in m.components))


def load_mixture(path) -> ProductMixture:
    n, records = _read_records(path, "mixture", 2)
    return ProductMixture(n, tuple((float(w), float(r)) for w, r in records))
