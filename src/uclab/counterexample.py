"""Geometric mixtures of products: linear entropy growth at bounded KL cost.

Draw a level k from a geometric law with parameter theta and then include
every element independently with probability 1 - (1 - ubar)^(k+1).  The
union of two independent such sets is again a mixture of the same products,
at level k' = k_A + k_B + 1 with probabilities (1-theta)^2 k' theta^(k'-1).
For small theta the entropy ratio of union to original approaches
H(2 ubar - ubar^2) / H(ubar) from below while the KL divergence of the
union from the original stays bounded by a fixed constant independent of
the ground-set size - so a bounded divergence adds no leverage over the
entropy ratio itself.

Everything at large n is bound arithmetic on the mixture representation
(never a 2^n enumeration); exact_small_n_check expands the table at small n
and confirms the exact entropies and divergence sit inside every bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .scalars import _check_count, _check_float, _check_open_unit_interval, entropy_kernel
from .setdist import (
    ProductMixture,
    _entropy_rows,
    expand_mixture,
    kl_divergence,
    mixture_entropy_bounds,
    union_of_independent,
)

PMF_TAIL_CUTOFF = 1e-14
# the level arrays hold trunc + 1 entries and the union's level pmf about
# 1.2 (trunc + 1), so a few MB at this cap
MAX_TRUNC = 1_000_000
# the bounds multiply by n as a float, which is exact for every n up to 2^53
MAX_N = 2**53
# exact_small_n_check expands a table on 2^n masks from trunc + 1 products;
# the CLI runs it when a run is within both caps and the bounds alone past them
EXACT_MAX_N = 12
EXACT_MAX_TRUNC = 20


def default_truncation(theta: float) -> int:
    """Truncation level K with geometric tail mass theta^(K+1) below 1e-12."""
    _check_open_unit_interval(theta, "theta")
    return max(2, math.ceil(30.0 / -math.log(theta)))


@dataclass(frozen=True)
class CounterexampleParams:
    """Parameters of the geometric product mixture.

    ubar is the base inclusion level, u the admissible marginal ceiling,
    d the entropy-ratio budget (must exceed H(2 ubar - ubar^2)/H(ubar)),
    theta the geometric parameter, n the ground-set size, and trunc, always
    default_truncation(theta), the level at which the geometric tail is
    folded into the last component.
    """

    ubar: float = 0.2
    u: float = 0.25
    d: float = 1.35
    theta: float = 0.01
    n: int = 1_000_000
    trunc: int = field(init=False)

    def __post_init__(self):
        # first, so a bad theta is refused ahead of every other input
        object.__setattr__(self, "trunc", default_truncation(self.theta))
        ubar = _check_open_unit_interval(self.ubar, "ubar")
        # where 1 - ubar rounds to 1 the entropy bound is 0, and the ratio divides by it
        _check_float(ubar, "ubar", low=2.0**-54,
                     low_text="2**-54 (1 - ubar rounds to 1 at or below it)")
        if not ubar < _check_open_unit_interval(self.u, "u"):
            raise ValueError(f"ubar must be below u = {self.u}, got {self.ubar}")
        base_ratio = float(entropy_kernel(2.0 * ubar - ubar * ubar) / entropy_kernel(ubar))
        _check_float(self.d, "d", low=base_ratio,
                     low_text=f"the base entropy ratio {base_ratio:.6f} at ubar")
        _check_count(self.n, "n", high=MAX_N)
        _check_count(self.trunc, "trunc", high=MAX_TRUNC)


def build_counterexample(params: CounterexampleParams) -> ProductMixture:
    """The mixture itself: level-k weight (1-theta) theta^k for k = 0..trunc
    (tail folded into the last level, renormalized), level-k inclusion
    1 - (1-ubar)^(k+1)."""
    k = np.arange(params.trunc + 1)
    ws = (1.0 - params.theta) * params.theta ** k
    ws[-1] += params.theta ** (params.trunc + 1)
    rs = 1.0 - (1.0 - params.ubar) ** (k + 1)
    return ProductMixture(params.n, tuple(zip(ws / ws.sum(), rs)))


def marginal_inclusion(params: CounterexampleParams) -> float:
    """Per-element inclusion probability, closed form of the geometric series
    1 - (1-theta)(1-ubar) / (1 - theta (1-ubar)).

    Admissibility of the construction requires this not to exceed u, which
    holds for theta small; callers compare against params.u.
    """
    t, b = params.theta, 1.0 - params.ubar
    return 1.0 - (1.0 - t) * b / (1.0 - t * b)


def entropy_lower_bound(params: CounterexampleParams) -> float:
    """Average conditional entropy given the level:
    n * sum_k (1-theta) theta^k H((1-ubar)^(k+1)); exactly linear in n."""
    k = np.arange(params.trunc + 1)
    w = (1.0 - params.theta) * params.theta ** k
    cond = entropy_kernel((1.0 - params.ubar) ** (k + 1))
    return float(params.n * np.dot(w, cond))


def _union_level_pmf(params: CounterexampleParams) -> tuple:
    """pmf of the union's level k' = k_A + k_B + 1 >= 1: the exact law
    (1-theta)^2 k' theta^(k'-1), which carries the (1-theta)^2 factor and
    sums to 1, truncated where the tail drops below PMF_TAIL_CUTOFF and
    renormalized."""
    theta = params.theta
    kmax = max(3, math.ceil(math.log(PMF_TAIL_CUTOFF) / math.log(theta)) + 2)
    kp = np.arange(1, kmax + 1)
    pmf = (1.0 - theta) ** 2 * kp * theta ** (kp - 1)
    return kp, pmf / pmf.sum()


def union_entropy_upper_bound(params: CounterexampleParams) -> float:
    """Level entropy plus average conditional entropy of the union:
    H(law of k') + n * sum_{k'} Pr[k'] H((1-ubar)^(k'+1))."""
    kp, pmf = _union_level_pmf(params)
    level_entropy = float(_entropy_rows(pmf))
    cond = entropy_kernel((1.0 - params.ubar) ** (kp + 1))
    return level_entropy + float(params.n * np.dot(pmf, cond))


def ratio_bound(params: CounterexampleParams) -> float:
    """Upper bound on H(union)/H(single sample) from the two bounds above.

    As theta shrinks and n grows this approaches
    H(2 ubar - ubar^2)/H(ubar), so it drops below any admissible d."""
    return union_entropy_upper_bound(params) / entropy_lower_bound(params)


def kl_upper_bound(params: CounterexampleParams) -> float:
    """Bound on D(union || single sample), independent of n.

    Conditioning on the union's level k' selects an event of probability
    (1-theta) theta^(k') under the single-sample law, so each conditional
    divergence is at most -k' log theta - log(1-theta); averaging over the
    level pmf gives a constant (a quadratic series against a geometric
    decay)."""
    kp, pmf = _union_level_pmf(params)
    per_level = -kp * math.log(params.theta) - math.log(1.0 - params.theta)
    return float(np.dot(pmf, per_level))


class CounterexampleReport(NamedTuple):
    """Bounds, admissibility flags, and (at small n) exact cross-checks."""

    marginal: float
    marginal_admissible: bool
    entropy_lower: float
    union_entropy_upper: float
    ratio_upper: float
    ratio_below_d: bool
    kl_upper: float
    exact_entropy: float | None = None
    exact_union_entropy: float | None = None
    exact_kl: float | None = None
    exact_within_bounds: bool | None = None


def bounds_report(params: CounterexampleParams) -> CounterexampleReport:
    """Bound arithmetic only; safe at any n."""
    marg = marginal_inclusion(params)
    lower = entropy_lower_bound(params)
    upper = union_entropy_upper_bound(params)
    ratio = upper / lower
    return CounterexampleReport(
        marginal=marg,
        marginal_admissible=marg <= params.u,
        entropy_lower=lower,
        union_entropy_upper=upper,
        ratio_upper=ratio,
        ratio_below_d=ratio < params.d,
        kl_upper=kl_upper_bound(params),
    )


def exact_small_n_check(params: CounterexampleParams) -> CounterexampleReport:
    """Expand the mixture at small n and verify every bound brackets the
    exact value: the mixture entropy bracket contains H(A), the union bound
    dominates H(A u B), and the KL bound dominates D(A u B || A)."""
    _check_count(params.n, "n of the exact check", high=EXACT_MAX_N)
    _check_count(params.trunc, "trunc of the exact check", high=EXACT_MAX_TRUNC)
    base = bounds_report(params)
    mixture = build_counterexample(params)
    dist = expand_mixture(mixture)
    union_dist = union_of_independent(dist, dist)
    h_a = dist.entropy()
    h_u = union_dist.entropy()
    kl = kl_divergence(union_dist, dist)
    mix_lower, mix_upper = mixture_entropy_bounds(mixture)
    within = (
        base.entropy_lower <= h_a + 1e-10
        and mix_lower <= h_a + 1e-10
        and h_a <= mix_upper + 1e-10
        and h_u <= base.union_entropy_upper + 1e-10
        and kl <= base.kl_upper + 1e-10
        and dist.marginals()[0] <= params.u + 1e-12
    )
    return base._replace(
        exact_entropy=h_a,
        exact_union_entropy=h_u,
        exact_kl=kl,
        exact_within_bounds=within,
    )
