import contextlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import binary_entropy_gather, largest_theta_within_max_trunc, third_deriv_numerator
import uclab.counterexample
import uclab.coupling
from uclab import scalars
from uclab.cli import MAX_RANDOM_TABLE_N, MAX_SCALAR_GRID, MAX_THEOREM2_TRIALS, main
from uclab.counterexample import (
    MAX_N,
    MAX_TRUNC,
    CounterexampleParams,
    default_truncation,
    entropy_lower_bound,
    exact_small_n_check,
    union_entropy_upper_bound,
)
from uclab.coupling import (
    MAX_DELTA_GRID_CELLS,
    MAX_LP_ATOMS,
    _two_atom_class,
    delta_search,
    greedy_coupling_dp,
    worst_coupling_value,
)
from uclab.families import MAX_ENUMERATION_N, Family, verify_frequency_threshold
from uclab.measures import (
    MAX_ATOM_GRID,
    MAX_LEMMA_U_STEPS,
    MAX_LEMMA_V_STEPS,
    MAX_SEARCH_RESTARTS,
    DiscreteMeasure,
    lemma_certificate,
    local_search_min,
    local_search_rows,
    objective,
    two_atom_min_scan,
)
from uclab.numdiff import scaled_step
from uclab.setdist import (
    MAX_EXPLICIT_N,
    ExplicitSetDistribution,
    ProductMixture,
    expand_mixture,
    golden_threshold_mixture,
    mixture_entropy_bounds,
    product_bernoulli,
    union_entropy_rows,
)
from uclab.scalars import (
    GOLDEN_THRESHOLD,
    NORMALIZATION_TOL,
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


_MU = DiscreteMeasure(np.array([0.0, 0.2, GOLDEN_THRESHOLD, 0.7, 1.0]),
                      np.array([0.1, 0.3, 0.2, 0.25, 0.15]))
_MIXTURE = golden_threshold_mixture(0.5, 8)
_PARAMS = CounterexampleParams()


class TestCheckOnce:
    """Sums over a validated DiscreteMeasure, ProductMixture or counterexample,
    the counterexample's own check of ubar, and the coupling costs of a
    validated measure or of delta_search's two-atom grid, run on the kernels
    with no second argument check.  The only interval check they may make
    is of an input that no earlier check saw: the counterexample's ubar, u
    and theta."""

    @pytest.mark.parametrize("call, allowed", [
        (lambda: objective(_MU, 1.0), set()),
        (lambda: mixture_entropy_bounds(_MIXTURE), set()),
        (lambda: entropy_lower_bound(_PARAMS), set()),
        (lambda: union_entropy_upper_bound(_PARAMS), set()),
        (CounterexampleParams, {"ubar", "u", "theta"}),
        (lambda: worst_coupling_value(_MU), set()),
        (lambda: _two_atom_class(np.array([0.1, GOLDEN_THRESHOLD]), np.array([0.9, 0.6]), 0.05),
         set()),
    ], ids=["objective", "mixture_entropy_bounds", "entropy_lower_bound",
            "union_entropy_upper_bound", "CounterexampleParams", "worst_coupling_value",
            "_two_atom_class"])
    def test_makes_no_unit_interval_check(self, call, allowed, monkeypatch):
        checked = []
        for check in ("_check_unit_interval", "_check_open_unit_interval"):
            real = getattr(scalars, check)
            for module in (scalars, uclab.coupling, uclab.counterexample):
                if hasattr(module, check):
                    monkeypatch.setattr(module, check, lambda x, name, real=real:
                                        checked.append(name) or real(x, name))
        call()
        assert set(checked) <= allowed


_LOCATIONS = [0.1, 0.3, 0.6, 0.9]


class TestCheckDistribution:
    """One weight rule, NORMALIZATION_TOL = 1e-12 from scalars, behind every
    validated measure, mixture, table and stack of tables."""

    CONSTRUCTORS = {
        "DiscreteMeasure": (lambda p: DiscreteMeasure(np.array(_LOCATIONS), p), "weights"),
        "ProductMixture": (lambda p: ProductMixture(3, tuple(zip(p, _LOCATIONS))), "weights"),
        "ExplicitSetDistribution": (lambda p: ExplicitSetDistribution(2, p), "probabilities"),
        "union_entropy_rows": (lambda p: union_entropy_rows(np.stack([np.full(4, 0.25), p]), 2),
                               "probabilities"),
    }

    @pytest.mark.parametrize("build", CONSTRUCTORS)
    @pytest.mark.parametrize("probs,text", [
        ([0.25, np.nan, 0.25, 0.25], "must be finite, got nan"),
        ([0.5, -0.1, 0.3, 0.3], "must be nonnegative, got -0.1"),
        # a sum off 1 is named by the sum of the first row it refuses
        ([0.25 + 2e-12, 0.25, 0.25, 0.25], "must sum to 1, got 1.000000000002"),
        ([0.25 - 2e-12, 0.25, 0.25, 0.25], "must sum to 1, got 0.999999999998"),
    ], ids=["nan", "negative", "over", "under"])
    def test_refused_with_the_name(self, build, probs, text):
        make, name = self.CONSTRUCTORS[build]
        with pytest.raises(ValueError) as exc:
            make(np.array(probs))
        assert str(exc.value) == f"{name} {text}"

    @pytest.mark.parametrize("build", CONSTRUCTORS)
    @pytest.mark.parametrize("off", [5e-13, -5e-13])
    def test_sum_within_the_tolerance_is_accepted(self, build, off):
        assert NORMALIZATION_TOL == 1e-12
        self.CONSTRUCTORS[build][0](np.array([0.25 + off, 0.25, 0.25, 0.25]))


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

    def test_matches_high_precision_derivative(self):
        mpmath = pytest.importorskip("mpmath")

        def h(p):
            return -p * mpmath.log(p) - (1 - p) * mpmath.log(1 - p)

        # 30 digits for this test only; later tests run at the default 15
        with mpmath.workdps(30):
            for s in (0.1, 0.25, 0.5, 0.75, 0.9):
                ref1 = float(mpmath.diff(lambda t: h(t * t), mpmath.mpf(s), 3))
                ref2 = float(mpmath.diff(lambda t: t * h(t), mpmath.mpf(s), 3))
                assert d3_entropy_of_square(s) == pytest.approx(ref1, rel=1e-10)
                assert d3_s_entropy(s) == pytest.approx(ref2, rel=1e-10)
        assert mpmath.mp.dps == 15

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
        for kind in (float, np.float64, np.array):
            assert type(scaled_step(kind(0.3))) is float
        assert scaled_step(0.01) == pytest.approx(2e-5, rel=1e-12)
        assert scaled_step(0.99) == pytest.approx(2e-5, rel=1e-12)
        assert scaled_step(0.05) == scaled_step(0.5) == 1e-4


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

    def test_proven_positive_on_an_interval(self):
        # 2 s H(s) - H(s^2) > 0 on all of [0.001, 0.999], not only at grid
        # points: interval arithmetic at 20 digits bounds the gap over a box
        # of s from below, and a box whose bound is not above 0 is halved.
        # It closes in 555 boxes; the ends below 0.001 and above 0.999,
        # where the log bounds widen, stay with the grid checks
        iv = pytest.importorskip("mpmath").iv

        def h(p):
            return -p * iv.log(p) - (1 - p) * iv.log(1 - p)

        prec, iv.dps = iv.prec, 20
        try:
            boxes, done = [iv.mpf(["0.001", "0.999"])], 0
            while boxes and done < 1000:
                s = boxes.pop()
                done += 1
                if not (2 * s * h(s) - h(s * s)).a > 0:
                    boxes += [iv.mpf([s.a, s.mid]), iv.mpf([s.mid, s.b])]
        finally:
            iv.prec = prec
        assert boxes == [] and done <= 1000


# every checked function of one point in (0, 1), and union_prob of two
_ONE_POINT = [binary_entropy, entropy_square_ratio, entropy_square_gap,
              d3_entropy_of_square, d3_s_entropy]
_POINTS = np.array([1e-9, 0.2, GOLDEN_THRESHOLD, 0.5, 0.9, 1.0 - 1e-9])
_SCALAR_KINDS = {"float": float, "numpy-scalar": np.float64, "0-d": np.array}


class TestOneExit:
    """A Python float for a 0-d result, an array otherwise, with the same bits."""

    @pytest.mark.parametrize("kind", _SCALAR_KINDS)
    @pytest.mark.parametrize("fn", _ONE_POINT + [entropy_ratio_bound], ids=lambda f: f.__name__)
    def test_scalar_input_gives_a_python_float(self, fn, kind):
        for x in _POINTS:
            out = fn(_SCALAR_KINDS[kind](x))
            assert type(out) is float
            assert out == fn(float(x))

    @pytest.mark.parametrize("fn", _ONE_POINT + [entropy_ratio_bound_array],
                             ids=lambda f: f.__name__)
    def test_one_d_input_gives_an_array_of_the_point_values(self, fn):
        out = fn(_POINTS)
        assert type(out) is np.ndarray and out.shape == _POINTS.shape
        point = entropy_ratio_bound if fn is entropy_ratio_bound_array else fn
        assert out.tolist() == [point(float(x)) for x in _POINTS]

    @pytest.mark.parametrize("kind", _SCALAR_KINDS)
    def test_union_prob_of_two_scalars_is_a_python_float(self, kind):
        for p, q in zip(_POINTS, _POINTS[::-1]):
            out = union_prob(_SCALAR_KINDS[kind](p), _SCALAR_KINDS[kind](q))
            assert type(out) is float
            assert out == union_prob(float(p), float(q))

    def test_union_prob_with_a_one_d_side_is_an_array(self):
        for p, q in ((_POINTS, _POINTS[::-1]), (0.3, _POINTS), (_POINTS, np.array(0.3))):
            out = union_prob(p, q)
            assert type(out) is np.ndarray and out.shape == _POINTS.shape
            assert out.tolist() == [union_prob(float(a), float(b))
                                    for a, b in zip(*np.broadcast_arrays(p, q))]

    def test_square_ratio_and_gap_keep_the_bits_of_their_formulas(self):
        # each written out with the checked binary_entropy, one point at a time
        ss = np.concatenate([np.arange(1, 2001) / 2001.0, _POINTS,
                             np.random.default_rng(3).uniform(size=500)])
        ratio = [binary_entropy(s * s) / (s * binary_entropy(s)) for s in ss.tolist()]
        gap = [2.0 * s * binary_entropy(s) - binary_entropy(s * s) for s in ss.tolist()]
        assert entropy_square_ratio(ss).tolist() == ratio
        assert entropy_square_gap(ss).tolist() == gap


def _count_text(name, value, low, high):
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        return f"{name} must be an integer of at least {low}, got {value}"
    return f"{name} must be at most {high}, got {value}"


def _counts(name, low=1, high=None, below=(2.5, True), more=()):
    """The rows of a count: low - 1 and the values below (a float and a
    bool by default), high + 1, then more; below=None leaves out the values
    below low, which a count read off a checked object (a measure's atoms,
    a family's n) never takes."""
    values = [] if below is None else [low - 1, *below]
    values += ([] if high is None else [high + 1]) + list(more)
    return [(v, _count_text(name, v, low, high)) for v in values]


def _finite(name):
    return [(v, f"{name} must be finite, got {v}") for v in (math.nan, math.inf, -math.inf)]


def _inside(name, *values):
    return [(x, f"{name} must lie strictly inside (0, 1), got {x}") for x in values]


def _open(name, *values):
    """The rows of an open-interval input: not finite, then values, by
    default both ends."""
    return _finite(name) + _inside(name, *(values or (0.0, 1.0)))


def _uniform_measure(m):
    return DiscreteMeasure(np.linspace(0.0, 1.0, m), np.full(m, 1.0 / m))


# the counterexample's d must exceed H(2 ubar - ubar^2)/H(ubar) at the default ubar
_BASE_RATIO = binary_entropy(2.0 * 0.2 - 0.2 * 0.2) / binary_entropy(0.2)
_PAST_ONE = float(np.nextafter(1.0, 2.0))
_TABLE_N = "n of an explicit table"
_STEP = "delta_max / delta_steps"
# two table cells, made here: the sentinel refuses np.ones
_PAIR = np.ones(2)


def _d(*values):
    return [(d, f"d must be above the base entropy ratio {_BASE_RATIO:.6f} at ubar, got {d}")
            for d in values]


def _ubar(u, *values):
    """The rows of values of ubar: those at or above u, then those below
    it, which must lie at or below 2**-54."""
    return [(v, f"ubar must be below u = {u}, got {v}") for v in values if v >= u] + [
        (v, f"ubar must be above 2**-54 (1 - ubar rounds to 1 at or below it), got {v}")
        for v in values if v < u]


def _past_delta_max(*values):
    return [(v, f"delta_max must keep GOLDEN_THRESHOLD + delta_max below 1, got {v}")
            for v in values]


def _cells(mean_steps=96, delta_steps=200, v_steps=96):
    """The refusal of a delta-search grid of this size, past its cap."""
    cells = (mean_steps + delta_steps + 1) * (v_steps + 1)
    return _count_text("cells of the delta-search grid", cells, 1, MAX_DELTA_GRID_CELLS)


# The refusal table: every integer count, float and open-interval input of
# the library and of the command line, with each value at and past each of
# its bounds and the exact text that refuses it.  An input is a call taking
# the value; a pair (build, call) whose call takes what build makes of the
# value; or an argv whose last flag takes the value as `<flag>=<value>`.
# Each call and each argv runs under the no-work sentinel; a pair builds
# its input outside it.  A file's contents and a value the library computes
# (union_entropy_check's maximum marginal) are refused after the work that
# reads them, so they are tested where that work is.
REFUSALS = {
    **{fn.__name__: (fn, _open("s")) for fn in (entropy_square_ratio, entropy_square_gap,
                                               d3_entropy_of_square, d3_s_entropy)},
    "entropy_ratio_bound": (entropy_ratio_bound, _open("u")),
    "entropy_ratio_bound_array": (lambda x: entropy_ratio_bound_array(np.array([0.3, x])),
                                  _open("u", 0.0, 1.0, -0.5)),
    "scaled_step": (scaled_step, _open("x", 0.0, 1.0, -0.1, 1.5)),
    "scaled_step(array)": (lambda x: scaled_step(np.array([0.2, x, 0.7])),
                           _open("x", 0.0, 1.0, -0.1, 1.5)),
    "two_atom_min_scan.u": (two_atom_min_scan, _open("u")),
    "two_atom_min_scan.v_steps": (lambda v: two_atom_min_scan(0.3, v_steps=v),
                                  _counts("v_steps", low=2)),
    "local_search_rows.u": (lambda x: local_search_rows([0.3, x], [1.0, 1.0], seeds=[1, 2]),
                            _open("u")),
    "local_search_rows.lam": (lambda v: local_search_rows([0.3, 0.4], [1.0, v], seeds=[1, 2]),
                              _finite("lam")),
    "local_search_min.lam": (lambda v: local_search_min(0.3, v), _finite("lam")),
    "local_search_rows.restarts": (lambda v: local_search_rows([0.3], [1.0], restarts=v),
                                   _counts("restarts")),
    "local_search_rows.atom_grid": (lambda v: local_search_rows([0.3], [1.0], atom_grid=v),
                                    _counts("atom_grid")),
    **{f"lemma_certificate.{name}": (lambda v, name=name: lemma_certificate(**{name: v}),
                                     _counts(name, low, high, more=more))
       for name, low, high, more in (("u_steps", 1, MAX_LEMMA_U_STEPS, ()),
                                     ("v_steps", 2, MAX_LEMMA_V_STEPS, ()),
                                     ("restarts", 1, MAX_SEARCH_RESTARTS, ()),
                                     ("atom_grid", 1, MAX_ATOM_GRID, [-1]),
                                     ("search_points", 1, None, ()))},
    "worst_coupling_value.atoms": ((_uniform_measure, worst_coupling_value),
                                   _counts("atoms of the worst-coupling LP", high=MAX_LP_ATOMS,
                                           below=None)),
    "greedy_coupling_dp.n": ((lambda v: Family(v, (0,)), greedy_coupling_dp),
                             _counts("n of the coupling DP", high=10, below=None)),
    "greedy_coupling_dp.sets": ((lambda v: Family(7, range(v)), greedy_coupling_dp),
                                _counts("sets of the coupling DP", high=64, below=None)),
    "delta_search.delta_steps": (lambda v: delta_search(0.05, delta_steps=v),
                                 _counts("delta_steps") + [(10**12, _cells(delta_steps=10**12))]),
    "delta_search.v_steps": (lambda v: delta_search(0.05, v_steps=v),
                             _counts("v_steps", low=0) + [(10**9, _cells(v_steps=10**9))]),
    "delta_search.mean_steps": (lambda v: delta_search(0.05, mean_steps=v),
                                _counts("mean_steps", low=0)
                                + [(10**9, _cells(mean_steps=10**9))]),
    **{f"delta_search.{name}": (lambda v, name=name: delta_search(0.05, **{name: v}),
                                _counts(name, high=MAX_SEARCH_RESTARTS, more=more))
       for name, more in (("search_points", [-3]), ("search_restarts", ()))},
    "delta_search.delta_max": (
        lambda v: delta_search(0.05, delta_max=v),
        _finite(_STEP) + [(5e-324, f"{_STEP} must be above 0, got 0.0"),
                          (0.0, f"{_STEP} must be above 0, got 0.0"),
                          (-0.01, f"{_STEP} must be above 0, got -5e-05")]
        + _past_delta_max(1.0 - GOLDEN_THRESHOLD, 0.7, 1.0)),
    "default_truncation": (default_truncation, _open("theta", 0.0, 1.0, -0.5)),
    # theta = 0.99999 derives trunc = ceil(30 / -log theta) = 2,999,985
    "CounterexampleParams.theta": (
        lambda x: CounterexampleParams(theta=x),
        _open("theta", 0.0, 1.0, -0.5) + [(0.99999, f"trunc must be at most {MAX_TRUNC}, "
                                                    f"got 2999985")]),
    "CounterexampleParams.ubar": (lambda v: CounterexampleParams(ubar=v),
                                  _open("ubar", 0.0) + _ubar(0.25, 1e-17, 2.0**-54, 0.25, 0.3)),
    "CounterexampleParams.u": (lambda v: CounterexampleParams(u=v),
                               _finite("u") + _ubar(0.2, 0.2) + _inside("u", 1.0)),
    "CounterexampleParams.d": (lambda v: CounterexampleParams(d=v),
                               _finite("d") + _d(_BASE_RATIO, 1.3)),
    "CounterexampleParams.n": (lambda v: CounterexampleParams(n=v),
                               _counts("n", high=MAX_N)),
    "exact_small_n_check.n": ((lambda v: CounterexampleParams(n=v), exact_small_n_check),
                              _counts("n of the exact check", high=12, below=None)),
    # the truncation a theta derives, ceil(30 / -log theta), is v at this theta
    "exact_small_n_check.trunc": (
        (lambda v: CounterexampleParams(n=5, theta=math.exp(-30 / (v - 0.5))),
         exact_small_n_check),
        _counts("trunc of the exact check", high=20, below=None)),
    "Family.n": (lambda v: Family(v, (0,)), _counts("n")),
    "verify_frequency_threshold.n": (verify_frequency_threshold,
                                     _counts("n of the exhaustive enumeration",
                                             high=MAX_ENUMERATION_N, more=[-1])),
    "ExplicitSetDistribution.n": (lambda v: ExplicitSetDistribution(v, _PAIR),
                                  _counts(_TABLE_N, high=MAX_EXPLICIT_N)),
    "from_mapping.n": (lambda v: ExplicitSetDistribution.from_mapping(v, {0: 1.0}),
                       _counts(_TABLE_N, high=MAX_EXPLICIT_N, more=[40])),
    "product_bernoulli.n": (lambda v: product_bernoulli(v, 0.3),
                            _counts(_TABLE_N, high=MAX_EXPLICIT_N)),
    "ProductMixture.n": (lambda v: ProductMixture(v, ((1.0, 0.5),)), _counts("n")),
    "expand_mixture.n": ((lambda v: ProductMixture(v, ((1.0, 0.5),)), expand_mixture),
                         _counts(_TABLE_N, high=MAX_EXPLICIT_N, below=None)),
    # the command line; a count the CLI reads is a Python int, so below
    # its low bound the only row is low - 1 and the values in more
    "scalar --grid": (["scalar", "--grid"],
                      _counts("--grid", high=MAX_SCALAR_GRID, below=(), more=[-3, 10**12])),
    **{f"lemma {flag}": (["lemma", flag], _counts(name, low, high, below=(), more=[10**12]))
       for flag, name, low, high in (("--u-steps", "u_steps", 1, MAX_LEMMA_U_STEPS),
                                     ("--v-steps", "v_steps", 2, MAX_LEMMA_V_STEPS),
                                     ("--restarts", "restarts", 1, MAX_SEARCH_RESTARTS),
                                     ("--atom-grid", "atom_grid", 1, MAX_ATOM_GRID))},
    "lemma --search-points": (["lemma", "--search-points"], _counts("search_points", below=())),
    "families --n": (["families", "--n"],
                     _counts("n of the exhaustive enumeration", high=MAX_ENUMERATION_N, below=(),
                             more=[-2])),
    # the file does not exist, so reading it first would end in another text
    "theorem2 --trials": (["theorem2", "--dist-file=no-such-file.txt", "--trials"],
                          _counts("--trials", high=MAX_THEOREM2_TRIALS, below=(), more=[-1])),
    "theorem2 --max-n": (["theorem2", "--max-n"],
                         _counts("--max-n", low=2, high=MAX_RANDOM_TABLE_N, below=())),
    # at these flags, ubar = 1e-17 let through would divide by a zero entropy bound
    "counterexample --ubar": (["counterexample", "--u=0.5", "--d=3", "--n=5", "--ubar"],
                              _open("ubar", 0.0) + _ubar(0.5, 1e-17, 0.5, 0.6)),
    "counterexample --u": (["counterexample", "--u"], _finite("u") + _inside("u", 1.0)),
    "counterexample --d": (["counterexample", "--d"], _finite("d") + _d(_BASE_RATIO)),
    # theta = 0.99999 derives trunc = ceil(30 / -log theta) = 2,999,985
    "counterexample --theta": (
        ["counterexample", "--theta"],
        _open("theta", 0.0, -0.5, 1.0) + [(0.99999, f"trunc must be at most {MAX_TRUNC}, "
                                                    f"got 2999985")]),
    "counterexample --n": (["counterexample", "--n"],
                           _counts("n", high=MAX_N, below=(), more=[10**330])),
    "coupling delta-search --alpha": (
        ["coupling", "delta-search", "--alpha"],
        _finite("alpha")
        + [(x, f"alpha must lie in [0, 1], got {x}") for x in (-5e-324, _PAST_ONE)]),
    "coupling delta-search --delta-max": (
        ["coupling", "delta-search", "--delta-max"],
        _finite(_STEP) + [(0.0, f"{_STEP} must be above 0, got 0.0")] + _past_delta_max(1.0)),
    "coupling delta-search --delta-steps": (
        ["coupling", "delta-search", "--delta-steps"],
        _counts("delta_steps", below=()) + [(10**12, _cells(delta_steps=10**12))]),
    "coupling delta-search --v-steps": (
        ["coupling", "delta-search", "--v-steps"],
        _counts("v_steps", low=0, below=()) + [(10**12, _cells(v_steps=10**12))]),
    "coupling delta-search --mean-steps": (
        ["coupling", "delta-search", "--mean-steps"],
        _counts("mean_steps", low=0, below=()) + [(10**12, _cells(mean_steps=10**12))]),
    **{f"coupling delta-search {flag}": (
        ["coupling", "delta-search", flag],
        _counts(flag[2:].replace("-", "_"), high=MAX_SEARCH_RESTARTS, below=(), more=[10**12]))
       for flag in ("--search-points", "--search-restarts")},
}


class _WorkStarted(Exception):
    """Raised by every function the no-work sentinel replaces."""


@contextlib.contextmanager
def no_work():
    """The no-work sentinel: numpy's array makers and default_rng raise
    _WorkStarted, so a run that refuses under it refused before any work."""
    def started(*args, **kwargs):
        raise _WorkStarted

    with pytest.MonkeyPatch.context() as mp:
        for name in ("arange", "linspace", "zeros", "empty", "ones", "full", "concatenate"):
            mp.setattr(np, name, started)
        mp.setattr(np.random, "default_rng", started)
        yield


def _rows(cli):
    """The table's CLI rows (cli) or its library rows, one param per value."""
    for label, (given, rows) in REFUSALS.items():
        if isinstance(given, list) is cli:
            for value, text in rows:
                shown = repr(value) if len(repr(value)) <= 24 else f"{len(repr(value))}digits"
                yield pytest.param(given, value, text, id=f"{label}={shown}")


def _up(x):
    return float(np.nextafter(x, np.inf))


def _down(x):
    return float(np.nextafter(x, -np.inf))


# the largest (mean + u-cap + 1) rows of a delta-search grid at the default
# v_steps = 96, and the largest v_steps + 1 at the default 96 + 200 + 1 rows
_GRID_ROWS = MAX_DELTA_GRID_CELLS // 97
_GRID_COLUMNS = MAX_DELTA_GRID_CELLS // 297

# For every CLI row of the table, the values at each of its bounds, which
# pass every check, so the sentinel stops the run at its first allocation
# (argv: the row's subcommand, the prefix flags, then `<flag>=<value>`).
# An off-by-one cap refuses one of them and fails here, and a sentinel
# that patched the wrong names lets one run on and fails here too.
_ACCEPTED = {
    "scalar --grid": ([], [1, MAX_SCALAR_GRID]),
    **{f"lemma {flag}": ([], values) for flag, values in (
        ("--u-steps", [1, MAX_LEMMA_U_STEPS]), ("--v-steps", [2, MAX_LEMMA_V_STEPS]),
        ("--restarts", [1, MAX_SEARCH_RESTARTS]), ("--atom-grid", [1, MAX_ATOM_GRID]),
        ("--search-points", [1]))},
    "families --n": ([], [1, MAX_ENUMERATION_N]),
    "theorem2 --trials": ([], [1, MAX_THEOREM2_TRIALS]),
    "theorem2 --max-n": ([], [2, MAX_RANDOM_TABLE_N]),
    "counterexample --ubar": (["--u=0.5", "--d=3", "--n=5"], [_up(2.0**-54), _down(0.5)]),
    "counterexample --u": ([], [_up(0.2), _down(1.0)]),
    "counterexample --d": ([], [_up(_BASE_RATIO), 1e308]),
    # the largest theta the MAX_TRUNC refusal lets through
    "counterexample --theta": ([], [5e-324, 0.9999, largest_theta_within_max_trunc()]),
    "counterexample --n": ([], [1, MAX_N]),
    "coupling delta-search --alpha": ([], [0.0, 1.0]),
    "coupling delta-search --delta-max": ([], [1e-300, _down(1.0 - GOLDEN_THRESHOLD)]),
    "coupling delta-search --delta-steps": ([], [1, _GRID_ROWS - 96 - 1]),
    "coupling delta-search --v-steps": ([], [0, _GRID_COLUMNS - 1]),
    "coupling delta-search --mean-steps": ([], [0, _GRID_ROWS - 200 - 1]),
    "coupling delta-search --search-points": ([], [1, MAX_SEARCH_RESTARTS]),
    "coupling delta-search --search-restarts": ([], [1, MAX_SEARCH_RESTARTS]),
}


def _accepted():
    for label, (prefix, values) in _ACCEPTED.items():
        *command, flag = label.split()
        for value in values:
            yield pytest.param([*command, *prefix, f"{flag}={value!r}"], id=f"{label}={value!r}")


class TestRangeRules:
    """One text per rule, asserted once per input: every count goes through
    scalars._check_count, every float through scalars._check_float and
    every open-interval input through scalars._check_open_unit_interval."""

    @pytest.mark.parametrize("given, value, text", _rows(cli=False))
    def test_library_input_refused_with_its_text(self, given, value, text):
        build, call = given if isinstance(given, tuple) else (lambda v: v, given)
        built = build(value)
        with no_work(), pytest.raises(ValueError) as exc:
            call(built)
        assert str(exc.value) == text

    @pytest.mark.parametrize("argv, value, text", _rows(cli=True))
    def test_cli_argv_exits_two_with_its_text(self, argv, value, text, tmp_path, capsys):
        out = tmp_path / "x.json"
        with no_work():
            code = main([*argv[:-1], f"{argv[-1]}={value!r}", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"uclab: error: {text}"]
        assert not out.exists()

    def test_every_cli_row_has_its_accepted_values(self):
        assert list(_ACCEPTED) == [label for label, (given, _) in REFUSALS.items()
                                   if isinstance(given, list)]

    @pytest.mark.parametrize("argv", _accepted())
    def test_a_valid_value_trips_the_sentinel(self, argv, tmp_path):
        with no_work(), pytest.raises(_WorkStarted):
            main([*argv, "--out", str(tmp_path / "x.json")])

    def test_numpy_integers_are_counts(self):
        assert scalars._check_count(np.int64(3), "k") == 3
        assert scalars._check_count(np.uint8(0), "k", low=0, high=0) == 0
        with pytest.raises(ValueError, match="^k must be an integer of at least 1, got True$"):
            scalars._check_count(np.bool_(True), "k")
