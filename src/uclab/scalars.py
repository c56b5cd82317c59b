"""Closed-form scalar building blocks.

Everything here is a pure function of one or two numbers in the unit
interval: the binary Shannon entropy H (in nats throughout), the union map
(p, q) -> p + q - pq for independent events, the golden-ratio threshold
(3 - sqrt(5))/2, the piecewise lower-bound factor for the ratio of union
entropy to single-sample entropy, and the auxiliary quantities driving the
monotonicity analysis of that bound: F(s) = H(s^2)/(s H(s)), the strictly
positive gap 2 s H(s) - H(s^2), and closed forms for the third derivatives
of s -> H(s^2) and s -> s H(s).

All entropies are natural-log; every statement consumed downstream is a
ratio or an inequality, so the base drops out, and nats keep the derivative
formulas free of log-base constants.

The public functions check their arguments.  H and the union map also come
as unchecked kernels (entropy_kernel, union_kernel), which binary_entropy
and union_prob call after their checks and which code inside uclab calls
directly on arrays it built in [0, 1].
"""

from __future__ import annotations

import math

import numpy as np

# (3 - sqrt(5))/2: the unique p in (0, 1/2) with H(p) = H(2p - p^2).
GOLDEN_THRESHOLD = (3.0 - math.sqrt(5.0)) / 2.0

# Golden ratio (1 + sqrt(5))/2, equal to 2/(sqrt(5) - 1).
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _check_unit_interval(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def _check_open_unit_interval(x, name):
    arr = _check_unit_interval(x, name)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return arr


def _scalar_in(x) -> bool:
    return np.ndim(x) == 0


def binary_entropy(p):
    """Entropy of a Bernoulli(p) variable in nats, with the 0*log 0 = 0 convention.

    Accepts a float or ndarray in [0, 1]; the endpoint values are exactly 0
    rather than left to floating point.  log1p is used for the (1-p) factor
    so accuracy is preserved near both endpoints.
    """
    out = entropy_kernel(_check_unit_interval(p, "p"))
    if _scalar_in(p):
        return float(out)
    return out


def entropy_kernel(p: np.ndarray) -> np.ndarray:
    """binary_entropy of a float array p, without the argument check.

    The caller guarantees every entry lies in [0, 1].  The formula runs over
    the whole array, whose ends come out NaN (0 * log 0, 0 * log1p(-1)), and
    0 and 1 are then set to exactly 0; each interior entry gets the same
    operations, so the same bits, as in any other array."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(-p * np.log(p) - (1.0 - p) * np.log1p(-p))
    out[(p == 0.0) | (p == 1.0)] = 0.0
    return out


def union_prob(p, q):
    """Probability that an element lies in the union of two independent draws.

    Returns p + q - pq, clipped into [0, 1] to absorb roundoff.  Commutative,
    with 0 as identity and 1 absorbing.
    """
    r = union_kernel(_check_unit_interval(p, "p"), _check_unit_interval(q, "q"))
    if _scalar_in(p) and _scalar_in(q):
        return float(r)
    return r


def union_kernel(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """union_prob of two float arrays in [0, 1] (broadcast against each
    other), without the argument check."""
    return np.clip(p + q - p * q, 0.0, 1.0)


def entropy_ratio_bound(u) -> float:
    """Sharp lower-bound factor for union entropy relative to single-sample entropy.

    For a maximal inclusion probability u this is H(2u - u^2)/H(u) at or
    below the golden threshold and (1 - u) * PHI above it; both branches
    equal 1 exactly at the threshold.  u in {0, 1} is rejected: the factor
    degenerates there (it tends to 2 as u -> 0 and is 0 at u = 1).  This is
    the one-point case of entropy_ratio_bound_array.
    """
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie strictly inside (0, 1)")
    return float(entropy_ratio_bound_array(np.array([u]))[0])


def entropy_ratio_bound_array(us: np.ndarray) -> np.ndarray:
    """entropy_ratio_bound at every u of an array strictly inside (0, 1):
    the two branches, split at the golden threshold, evaluated elementwise."""
    arr = _check_open_unit_interval(us, "u")
    out = (1.0 - arr) * PHI
    low = arr <= GOLDEN_THRESHOLD
    u = arr[low]
    out[low] = entropy_kernel(union_kernel(u, u)) / entropy_kernel(u)
    return out


def entropy_square_ratio(s):
    """The ratio F(s) = H(s^2) / (s H(s)) on (0, 1).

    Strictly between PHI and 2: it decreases to its minimum PHI at
    s = 1/PHI = (sqrt(5) - 1)/2 and increases back toward 2 at both ends.
    """
    arr = _check_open_unit_interval(s, "s")
    val = binary_entropy(arr * arr) / (arr * binary_entropy(arr))
    if _scalar_in(s):
        return float(val)
    return val


def entropy_square_gap(s):
    """The strictly positive gap 2 s H(s) - H(s^2) on (0, 1)."""
    arr = _check_open_unit_interval(s, "s")
    val = 2.0 * arr * binary_entropy(arr) - binary_entropy(arr * arr)
    if _scalar_in(s):
        return float(val)
    return val


def d3_entropy_of_square(s):
    """Third derivative of s -> H(s^2): (-4 - 4 s^2) / (s (1 - s^2)^2).

    Negative everywhere on (0, 1); endpoints rejected.
    """
    arr = _check_open_unit_interval(s, "s")
    val = (-4.0 - 4.0 * arr * arr) / (arr * (1.0 - arr * arr) ** 2)
    if _scalar_in(s):
        return float(val)
    return val


def d3_s_entropy(s):
    """Third derivative of s -> s H(s): (s - 2) / (s (1 - s)^2).

    Negative everywhere on (0, 1); endpoints rejected.
    """
    arr = _check_open_unit_interval(s, "s")
    val = (arr - 2.0) / (arr * (1.0 - arr) ** 2)
    if _scalar_in(s):
        return float(val)
    return val
