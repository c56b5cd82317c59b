import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import binary_entropy_gather, third_deriv_numerator
from uclab.scalars import (
    GOLDEN_THRESHOLD,
    PHI,
    binary_entropy,
    d3_entropy_of_square,
    d3_s_entropy,
    entropy_kernel,
    entropy_ratio_bound,
    entropy_ratio_bound_array,
    entropy_square_gap,
    entropy_square_ratio,
    union_kernel,
    union_prob,
)

# Reference values computed with mpmath at 40 digits and rounded to double.
H_02 = 0.5004024235381879
H_025 = 0.5623351446188084
H_036 = 0.6534181947937018
H_05 = math.log(2.0)
H_GOLDEN = 0.6650183864440036
RATIO_02 = 1.3057854320000842  # H(0.36)/H(0.2)
F_05 = 1.6225562489182657  # H(0.25)/(0.5 H(0.5))
GAP_05 = 0.13081203594113696  # 2*0.5*H(0.5) - H(0.25)

unit = st.floats(min_value=0.0, max_value=1.0)


class TestBinaryEntropy:
    @pytest.mark.parametrize(
        "p,expected",
        [(0.0, 0.0), (1.0, 0.0), (0.5, H_05), (0.2, H_02), (0.25, H_025), (0.36, H_036)],
    )
    def test_values(self, p, expected):
        assert binary_entropy(p) == pytest.approx(expected, abs=1e-15)

    def test_half_is_exact_log2(self):
        assert binary_entropy(0.5) == math.log(2.0)

    @given(unit)
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-14)

    @given(unit)
    def test_range(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= math.log(2.0) + 1e-15

    def test_symmetry_grid(self):
        ps = np.arange(1, 10_000) / 10_000.0
        assert np.abs(binary_entropy(ps) - binary_entropy(1.0 - ps)).max() <= 1e-14

    def test_vectorized_matches_scalar(self):
        ps = np.array([0.0, 1e-12, 0.3, 0.9999, 1.0])
        vec = binary_entropy(ps)
        assert vec.shape == ps.shape
        for p, v in zip(ps, vec):
            assert binary_entropy(float(p)) == v

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)


class TestUnionProb:
    @pytest.mark.parametrize(
        "p,q,expected", [(0.0, 0.7, 0.7), (1.0, 0.3, 1.0), (0.2, 0.3, 0.44)]
    )
    def test_values(self, p, q, expected):
        assert union_prob(p, q) == pytest.approx(expected, abs=1e-15)

    @given(unit, unit)
    def test_commutative_and_in_range(self, p, q):
        r = union_prob(p, q)
        assert r == union_prob(q, p)
        assert 0.0 <= r <= 1.0

    @given(unit, unit)
    def test_dominates_both(self, p, q):
        assert union_prob(p, q) >= max(p, q) - 1e-15

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            union_prob(-0.2, 0.5)


# the kernels' inputs: both ends, the smallest subnormal (twice: 5e-324 is
# nextafter(0, 1)), the largest float below 1, the midpoint and seeded
# interior points
_X = np.concatenate([
    [0.0, 1.0, 5e-324, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), 0.5],
    np.random.default_rng(1729).uniform(size=58),
])


class TestKernels:
    """The unchecked kernels against the checked functions, with == only."""

    @pytest.mark.parametrize("p", [
        _X,
        _X[::2],
        np.broadcast_to(_X, (3, _X.size)),
        union_kernel(_X[:, None], _X[None, :]),
    ], ids=["contiguous", "strided", "broadcast", "union-matrix"])
    def test_entropy_kernel_equals_binary_entropy(self, p):
        h = entropy_kernel(p)
        assert h.shape == p.shape
        assert np.array_equal(h, binary_entropy(p))
        assert np.array_equal(h, binary_entropy_gather(p))
        # the ends are exactly +0, as in every report
        assert not np.signbit(h).any()

    def test_entropy_kernel_zero_d(self):
        for p in _X:
            h = entropy_kernel(np.array(p))
            assert h.shape == ()
            assert h == binary_entropy(float(p)) == binary_entropy_gather(p)
            assert not np.signbit(h)

    @pytest.mark.parametrize("p, q", [
        (_X, _X[::-1]),
        (_X[::2], _X[1::2]),
        (_X[:, None], _X[None, :]),
    ], ids=["contiguous", "strided", "broadcast"])
    def test_union_kernel_equals_union_prob(self, p, q):
        r = union_kernel(p, q)
        assert np.array_equal(r, union_prob(p, q))
        a, b = np.broadcast_arrays(p, q)
        loop = [min(max(s + t - s * t, 0.0), 1.0) for s, t in zip(a.ravel(), b.ravel())]
        assert np.array_equal(r, np.reshape(loop, r.shape))

    def test_union_kernel_zero_d(self):
        for p, q in zip(_X, _X[::-1]):
            r = union_kernel(np.array(p), np.array(q))
            assert np.shape(r) == ()
            assert r == union_prob(float(p), float(q))


class TestGoldenThreshold:
    def test_value(self):
        assert GOLDEN_THRESHOLD == pytest.approx(0.3819660112501051, abs=1e-15)

    def test_complement(self):
        assert 1.0 - GOLDEN_THRESHOLD == pytest.approx(
            (math.sqrt(5.0) - 1.0) / 2.0, abs=1e-15
        )

    def test_union_identity(self):
        # 2t - t^2 = 1 - t at the threshold: the golden-ratio fixed point
        t = GOLDEN_THRESHOLD
        assert union_prob(t, t) == pytest.approx(1.0 - t, abs=1e-12)

    def test_entropy_symmetry_at_threshold(self):
        t = GOLDEN_THRESHOLD
        assert binary_entropy(t) == pytest.approx(binary_entropy(1.0 - t), abs=1e-12)
        assert binary_entropy(t) == pytest.approx(H_GOLDEN, abs=1e-15)


class TestEntropyRatioBound:
    def test_equals_one_at_threshold(self):
        assert entropy_ratio_bound(GOLDEN_THRESHOLD) == pytest.approx(1.0, abs=1e-12)

    def test_branches_agree_at_threshold(self):
        u = GOLDEN_THRESHOLD
        ratio_branch = binary_entropy(union_prob(u, u)) / binary_entropy(u)
        linear_branch = (1.0 - u) * PHI
        assert ratio_branch == pytest.approx(linear_branch, abs=1e-12)

    @pytest.mark.parametrize(
        "u,expected",
        [(0.2, RATIO_02), (0.5, (math.sqrt(5.0) + 1.0) / 4.0)],
    )
    def test_values(self, u, expected):
        assert entropy_ratio_bound(u) == pytest.approx(expected, abs=1e-14)

    def test_limits(self):
        for u in (0.0, 1.0):
            with pytest.raises(ValueError):
                entropy_ratio_bound(u)

    def test_array_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(5)
        us = np.concatenate([
            np.arange(1, 1001) / 1001.0,  # the lemma's default grid
            [GOLDEN_THRESHOLD, np.nextafter(GOLDEN_THRESHOLD, 0.0),
             np.nextafter(GOLDEN_THRESHOLD, 1.0), 5e-324, 1e-300, np.nextafter(1.0, 0.0)],
            rng.uniform(size=3000),
            rng.uniform(0.0, 1e-6, size=500),
        ])
        # each branch written out with the checked scalar functions
        want = np.array([
            binary_entropy(union_prob(u, u)) / binary_entropy(u) if u <= GOLDEN_THRESHOLD
            else (1.0 - u) * PHI
            for u in us.tolist()
        ])
        assert np.array_equal(entropy_ratio_bound_array(us), want)
        assert [entropy_ratio_bound(u) for u in us.tolist()] == want.tolist()

    @pytest.mark.parametrize("bad", [0.0, 1.0, math.nan, -0.5])
    def test_array_rejects_the_closed_ends(self, bad):
        with pytest.raises(ValueError):
            entropy_ratio_bound_array(np.array([0.3, bad]))

    def test_continuous_near_threshold(self):
        eps = 1e-9
        below = entropy_ratio_bound(GOLDEN_THRESHOLD - eps)
        above = entropy_ratio_bound(GOLDEN_THRESHOLD + eps)
        assert below == pytest.approx(above, abs=1e-7)


class TestSquareRatio:
    def test_value_at_half(self):
        assert entropy_square_ratio(0.5) == pytest.approx(F_05, abs=1e-14)

    def test_minimum_is_phi_at_inverse_phi(self):
        s = (math.sqrt(5.0) - 1.0) / 2.0
        assert entropy_square_ratio(s) == pytest.approx(PHI, abs=1e-12)

    def test_shape_on_grid(self):
        ss = np.arange(1, 20_001) / 20_001.0
        vals = entropy_square_ratio(ss)
        kmin = int(np.argmin(vals))
        assert abs(ss[kmin] - 1.0 / PHI) < 1e-4
        assert np.all(np.diff(vals[: kmin + 1]) < 0.0)
        assert np.all(np.diff(vals[kmin:]) > 0.0)
        assert np.all(vals < 2.0)
        assert np.all(vals > PHI - 1e-12)

    def test_endpoint_trend(self):
        # the approach to the limit 2 is logarithmic: at 1e-4 from either
        # end the value is still ~0.1 away, but strictly closer than at 1e-2
        assert abs(entropy_square_ratio(1e-4) - 2.0) < 0.15
        assert abs(entropy_square_ratio(1.0 - 1e-4) - 2.0) < 0.15
        assert entropy_square_ratio(1e-4) > entropy_square_ratio(1e-2)
        assert entropy_square_ratio(1 - 1e-4) > entropy_square_ratio(1 - 1e-2)

    def test_rejects_endpoints(self):
        for s in (0.0, 1.0):
            with pytest.raises(ValueError):
                entropy_square_ratio(s)


class TestThirdDerivatives:
    def test_closed_form_values(self):
        assert d3_entropy_of_square(0.5) == pytest.approx(-160.0 / 9.0, rel=1e-14)
        assert d3_s_entropy(0.5) == pytest.approx(-12.0, rel=1e-14)
        assert d3_s_entropy(0.25) == pytest.approx(-112.0 / 9.0, rel=1e-14)
        # mpmath.diff reference at s = 0.9
        assert d3_entropy_of_square(0.9) == pytest.approx(-222.83779624499846, rel=1e-13)

    def test_always_negative(self):
        ss = np.linspace(0.01, 0.99, 99)
        assert np.all(d3_entropy_of_square(ss) < 0.0)
        assert np.all(d3_s_entropy(ss) < 0.0)

    @pytest.mark.parametrize("fn", [d3_entropy_of_square, d3_s_entropy])
    def test_rejects_endpoints(self, fn):
        for s in (0.0, 1.0):
            with pytest.raises(ValueError):
                fn(s)

    def test_matches_high_precision_derivative(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30

        def h(p):
            return -p * mpmath.log(p) - (1 - p) * mpmath.log(1 - p)

        for s in (0.1, 0.25, 0.5, 0.75, 0.9):
            ref1 = float(mpmath.diff(lambda t: h(t * t), mpmath.mpf(s), 3))
            ref2 = float(mpmath.diff(lambda t: t * h(t), mpmath.mpf(s), 3))
            assert d3_entropy_of_square(s) == pytest.approx(ref1, rel=1e-10)
            assert d3_s_entropy(s) == pytest.approx(ref2, rel=1e-10)

    def test_finite_difference_match(self):
        from uclab.numdiff import scaled_step, third_derivative

        for s in np.linspace(0.05, 0.95, 46):
            h = scaled_step(s)
            fd1 = third_derivative(lambda t: binary_entropy(t * t), s, h)
            fd2 = third_derivative(lambda t: t * binary_entropy(t), s, h)
            assert abs(fd1 - d3_entropy_of_square(s)) < 1e-4 * abs(d3_entropy_of_square(s))
            assert abs(fd2 - d3_s_entropy(s)) < 1e-4 * abs(d3_s_entropy(s))


class TestScaledStep:
    def test_array_matches_each_scalar(self):
        from uclab.numdiff import scaled_step

        rng = np.random.default_rng(5)
        xs = np.concatenate([[1e-9, 0.01, 0.05, 0.5, 0.95, 0.99, 1.0 - 1e-9],
                             rng.uniform(0.0, 1.0, 200)])
        steps = scaled_step(xs)
        assert steps.shape == xs.shape
        assert [float(h) for h in steps] == [scaled_step(float(x)) for x in xs]
        assert np.array_equal(scaled_step(xs.reshape(3, -1)), steps.reshape(3, -1))
        assert isinstance(scaled_step(0.3), float)
        assert scaled_step(0.01) == pytest.approx(2e-5, rel=1e-12)
        assert scaled_step(0.99) == pytest.approx(2e-5, rel=1e-12)
        assert scaled_step(0.05) == scaled_step(0.5) == 1e-4

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_rejects_points_off_the_open_interval(self, bad):
        from uclab.numdiff import scaled_step

        with pytest.raises(ValueError, match="strictly inside"):
            scaled_step(bad)
        with pytest.raises(ValueError, match="strictly inside"):
            scaled_step(np.array([0.2, bad, 0.7]))


class TestThirdDerivNumerator:
    @given(st.floats(min_value=0.0, max_value=2.0))
    def test_constant_term(self, beta):
        assert third_deriv_numerator(0.0, beta) == pytest.approx(2.0 * beta - 4.0, abs=1e-12)

    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_beta_zero_collapse(self, s):
        assert third_deriv_numerator(s, 0.0) == pytest.approx(-4.0 - 4.0 * s * s, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.7, 1.9])
    def test_at_most_two_roots_in_unit_interval(self, beta):
        # cubic root oracle: count roots of the expanded polynomial in [0, 1]
        coeffs = [-beta, -4.0, 3.0 * beta, 2.0 * beta - 4.0]
        roots = np.roots(coeffs)
        real = roots[np.abs(roots.imag) < 1e-9].real
        inside = np.sum((real >= 0.0) & (real <= 1.0))
        assert inside <= 2
        grid = np.linspace(0.0, 1.0, 4001)
        signs = np.sign(third_deriv_numerator(grid, beta))
        assert np.sum(np.abs(np.diff(signs)) > 0) <= 2

    def test_expansion_matches_polynomial_form(self):
        # -4 - 4s^2 - beta (s-2)(1+s)^2 = -beta s^3 - 4 s^2 + 3 beta s + 2 beta - 4
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = float(rng.uniform(-2, 2))
            beta = float(rng.uniform(0, 2))
            poly = -beta * s**3 - 4.0 * s**2 + 3.0 * beta * s + 2.0 * beta - 4.0
            assert third_deriv_numerator(s, beta) == pytest.approx(poly, rel=1e-12, abs=1e-12)


class TestSquareGap:
    def test_value_at_half(self):
        assert entropy_square_gap(0.5) == pytest.approx(GAP_05, abs=1e-15)

    def test_positive_on_grid(self):
        ss = np.arange(1, 20_001) / 20_001.0
        assert entropy_square_gap(ss).min() > 0.0

    def test_vanishes_toward_zero(self):
        assert entropy_square_gap(1e-8) < 1e-6

    def test_positive_at_inverse_phi(self):
        assert entropy_square_gap((math.sqrt(5.0) - 1.0) / 2.0) > 0.15
