"""Five-point central finite-difference stencil for derivative cross-checks.

`uclab scalar` uses it to confirm the closed-form third derivatives in
uclab.scalars against direct numerical differentiation.  The step is
BASE_STEP = 1e-4, shrunk in proportion to the distance from the nearest
endpoint of [0, 1] so the whole stencil stays inside the domain of
functions that blow up there.
"""

from __future__ import annotations

import numpy as np

from .scalars import _check_open_unit_interval, _float_or_array

BASE_STEP = 1e-4


def scaled_step(x):
    """Step size BASE_STEP * min(1, d/0.05) where d is the distance to {0, 1}.

    Accepts a float or an ndarray (one step per point); any point outside
    the open interval (0, 1) is rejected.
    """
    arr = _check_open_unit_interval(x, "x")
    d = np.minimum(arr, 1.0 - arr)
    return _float_or_array(BASE_STEP * np.minimum(1.0, d / 0.05))


def third_derivative(f, x, h):
    """Five-point central estimate of f'''(x), O(h^2) truncation error;
    elementwise over arrays x and h when f is."""
    return (-f(x - 2 * h) + 2 * f(x - h) - 2 * f(x + h) + f(x + 2 * h)) / (
        2.0 * h ** 3
    )
