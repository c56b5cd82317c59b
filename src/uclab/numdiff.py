"""Five-point central finite-difference stencils for derivative cross-checks.

Used to confirm closed-form derivative expressions against direct numerical
differentiation of the underlying function.  The default step is 1e-4,
shrunk in proportion to the distance from the nearest endpoint of [0, 1] so
the whole stencil stays inside the domain of functions that blow up there.
"""

from __future__ import annotations

import numpy as np


def scaled_step(x, base: float = 1e-4):
    """Step size base * min(1, d/0.05) where d is the distance to {0, 1}.

    Accepts a float or an ndarray (one step per point); any point outside
    the open interval (0, 1) is rejected.
    """
    arr = np.asarray(x, dtype=float)
    d = np.minimum(arr, 1.0 - arr)
    if not np.all(d > 0.0):
        raise ValueError("x must lie strictly inside (0, 1)")
    step = base * np.minimum(1.0, d / 0.05)
    return float(step) if arr.ndim == 0 else step


def second_derivative(f, x: float, h: float) -> float:
    """Five-point central estimate of f''(x), O(h^4) truncation error."""
    return (
        -f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h) - f(x + 2 * h)
    ) / (12.0 * h * h)


def third_derivative(f, x, h):
    """Five-point central estimate of f'''(x), O(h^2) truncation error;
    elementwise over arrays x and h when f is."""
    return (-f(x - 2 * h) + 2 * f(x - h) - 2 * f(x + h) + f(x + 2 * h)) / (
        2.0 * h ** 3
    )
