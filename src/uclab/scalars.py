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

The public functions check their arguments once, compute with the
unchecked kernels (entropy_kernel, union_kernel), and return a Python float
for a 0-d result and the array otherwise.  Code inside uclab calls the
kernels directly on arrays it built in [0, 1].  The argument checks here
hold the one copy of each range rule that every uclab module uses: the
closed and the open unit interval, a probability vector, an integer
count and a finite float.
"""

from __future__ import annotations

import math

import numpy as np

# (3 - sqrt(5))/2: the unique p in (0, 1/2) with H(p) = H(2p - p^2).
GOLDEN_THRESHOLD = (3.0 - math.sqrt(5.0)) / 2.0

# Golden ratio (1 + sqrt(5))/2, equal to 2/(sqrt(5) - 1).
PHI = (1.0 + math.sqrt(5.0)) / 2.0

# how far the total of a probability vector may sit from 1
NORMALIZATION_TOL = 1e-12


def _refuse_any(values, bad, text):
    """Refuse with text, ending in the first of values where bad holds."""
    if np.any(bad):
        raise ValueError(f"{text}, got {float(np.extract(bad, values)[0])}")


def _check_unit_interval(x, name):
    arr = np.asarray(x, dtype=float)
    _refuse_any(arr, ~np.isfinite(arr), f"{name} must be finite")
    _refuse_any(arr, (arr < 0.0) | (arr > 1.0), f"{name} must lie in [0, 1]")
    return arr


def _check_distribution(p, name):
    """p as a float array, each row along its last axis finite,
    nonnegative and summing to 1 within NORMALIZATION_TOL; a refusal names
    the first bad entry, or the first bad row's sum."""
    arr = np.asarray(p, dtype=float)
    _refuse_any(arr, ~np.isfinite(arr), f"{name} must be finite")
    _refuse_any(arr, arr < 0.0, f"{name} must be nonnegative")
    sums = arr.sum(axis=-1)
    _refuse_any(sums, np.abs(sums - 1.0) > NORMALIZATION_TOL, f"{name} must sum to 1")
    return arr


def _check_open_unit_interval(x, name):
    arr = np.asarray(x, dtype=float)
    _refuse_any(arr, ~np.isfinite(arr), f"{name} must be finite")
    _refuse_any(arr, (arr <= 0.0) | (arr >= 1.0), f"{name} must lie strictly inside (0, 1)")
    return arr


def _check_count(value, name, low=1, high=None):
    """value, once it is an int or a numpy integer (never a bool) with
    low <= value, and value <= high unless high is None."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer of at least {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")
    return value


def _check_float(value, name, low=-math.inf, low_text=None):
    """float(value), once it is finite and above low; low_text, when given,
    names the bound in the refusal."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= low:
        raise ValueError(f"{name} must be above {low_text or low}, got {value}")
    return value


def _float_or_array(val):
    """The one exit of every checked function: a Python float when the
    result is 0-d, the array otherwise."""
    return float(val) if np.ndim(val) == 0 else val


def binary_entropy(p):
    """Entropy of a Bernoulli(p) variable in nats, with the 0*log 0 = 0 convention.

    Accepts a float or ndarray in [0, 1]; the endpoint values are exactly 0
    rather than left to floating point.  log1p is used for the (1-p) factor
    so accuracy is preserved near both endpoints.
    """
    return _float_or_array(entropy_kernel(_check_unit_interval(p, "p")))


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
    return _float_or_array(
        union_kernel(_check_unit_interval(p, "p"), _check_unit_interval(q, "q"))
    )


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
    the one-point case of entropy_ratio_bound_array, which checks u.
    """
    return float(entropy_ratio_bound_array(np.array([float(u)]))[0])


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
    return _float_or_array(entropy_kernel(arr * arr) / (arr * entropy_kernel(arr)))


def entropy_square_gap(s):
    """The strictly positive gap 2 s H(s) - H(s^2) on (0, 1)."""
    arr = _check_open_unit_interval(s, "s")
    return _float_or_array(2.0 * arr * entropy_kernel(arr) - entropy_kernel(arr * arr))


def d3_entropy_of_square(s):
    """Third derivative of s -> H(s^2): (-4 - 4 s^2) / (s (1 - s^2)^2).

    Negative everywhere on (0, 1); endpoints rejected.
    """
    arr = _check_open_unit_interval(s, "s")
    return _float_or_array((-4.0 - 4.0 * arr * arr) / (arr * (1.0 - arr * arr) ** 2))


def d3_s_entropy(s):
    """Third derivative of s -> s H(s): (s - 2) / (s (1 - s)^2).

    Negative everywhere on (0, 1); endpoints rejected.
    """
    arr = _check_open_unit_interval(s, "s")
    return _float_or_array((arr - 2.0) / (arr * (1.0 - arr) ** 2))
