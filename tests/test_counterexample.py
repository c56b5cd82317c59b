import math

import numpy as np
import pytest

from helpers import largest_theta_within_max_trunc
from uclab.counterexample import (
    MAX_TRUNC,
    CounterexampleParams,
    _union_level_pmf,
    bounds_report,
    build_counterexample,
    default_truncation,
    entropy_lower_bound,
    exact_small_n_check,
    kl_upper_bound,
    marginal_inclusion,
    ratio_bound,
    union_entropy_upper_bound,
)
from uclab.scalars import binary_entropy
from uclab.setdist import expand_mixture, kl_divergence, union_of_independent

RATIO_TARGET_02 = 1.3057854320000842  # H(0.36)/H(0.2), the theta -> 0 limit


params = CounterexampleParams


_LAST_THETA = largest_theta_within_max_trunc()


class TestParams:
    def test_defaults_are_admissible(self):
        p = params()
        assert p.ubar == 0.2 and p.u == 0.25 and p.d == 1.35
        assert p.theta ** (p.trunc + 1) < 1e-12

    def test_largest_truncation_is_accepted(self):
        assert params(theta=_LAST_THETA).trunc == MAX_TRUNC
        with pytest.raises(ValueError, match=f"trunc must be at most {MAX_TRUNC}, got"):
            params(theta=float(np.nextafter(_LAST_THETA, 1.0)))

    @pytest.mark.parametrize("theta", [0.01, 0.1, 0.5])
    def test_trunc_is_the_default_truncation(self, theta):
        assert params(theta=theta).trunc == default_truncation(theta)

    def test_trunc_is_not_an_argument(self):
        with pytest.raises(TypeError):
            params(trunc=40)

    def test_truncation_leaves_a_tail_below_1e12(self):
        # on a grid dense near 0 and near 1, up to the MAX_TRUNC refusal
        thetas = np.concatenate([np.geomspace(1e-300, 0.5, 10_000),
                                 1.0 - np.geomspace(0.5, 1.0 - _LAST_THETA, 10_000)])
        assert thetas.max() == _LAST_THETA
        worst = max(t ** (default_truncation(t) + 1) for t in thetas.tolist())
        assert worst < 1e-12

    # the truncation is drawn from theta before any check, so a bad theta
    # is refused ahead of a bad ubar
    @pytest.mark.parametrize("kw", [{"theta": 2.0}, {"ubar": 0.0, "theta": 2.0}],
                             ids=["theta", "ubar-and-theta"])
    def test_bad_theta_is_refused_first(self, kw):
        with pytest.raises(ValueError) as exc:
            params(**kw)
        assert str(exc.value) == "theta must lie strictly inside (0, 1), got 2.0"

    # the exact check's truncation cap of 20 holds up to theta = exp(-1.5),
    # about 0.223, and the MAX_TRUNC refusal starts just above 0.99997
    @pytest.mark.parametrize("theta, trunc", [
        (1e-300, 2), (1e-9, 2), (1e-6, 3), (0.01, 7), (0.1, 14), (0.22, 20),
        (math.exp(-1.5), 20), (0.2232, 21), (0.235, 21),
        (0.5, 44), (0.9999, 299_985), (_LAST_THETA, MAX_TRUNC),
    ])
    def test_truncation_is_ceil_30_over_minus_log_theta(self, theta, trunc):
        assert default_truncation(theta) == trunc

    def test_default_truncation_scales_with_theta(self):
        assert default_truncation(0.01) < default_truncation(0.5)


class TestMixtureConstruction:
    def test_level_zero_inclusion_is_ubar(self):
        m = build_counterexample(params(n=8))
        assert m.inclusions()[0] == pytest.approx(0.2, abs=1e-15)

    def test_geometric_weights(self):
        m = build_counterexample(params(ubar=0.2, theta=0.1, n=8))
        ws = m.weights()
        assert ws[0] == pytest.approx(0.9, abs=1e-12)
        assert ws[1] == pytest.approx(0.09, abs=1e-12)
        assert ws[2] == pytest.approx(0.009, abs=1e-12)
        assert ws.sum() == pytest.approx(1.0, abs=1e-15)

    def test_small_theta_collapses_to_base_product(self):
        m = build_counterexample(params(theta=1e-6, n=8))
        assert m.weights()[0] == pytest.approx(1.0, abs=1e-5)
        assert m.inclusions()[0] == pytest.approx(0.2, abs=1e-15)


class TestMarginal:
    def test_closed_form_value(self):
        p = params(ubar=0.2, theta=0.1, n=8)
        assert marginal_inclusion(p) == pytest.approx(0.21739130434782608, abs=1e-15)

    def test_matches_truncated_series(self):
        for ubar in (0.1, 0.2, 0.4):
            for theta in (0.01, 0.1, 0.3):
                p = params(ubar=ubar, u=0.9, d=2.5, theta=theta, n=8)
                k = np.arange(41)
                series = float(
                    np.sum((1 - theta) * theta ** k * (1 - (1 - ubar) ** (k + 1)))
                )
                assert marginal_inclusion(p) == pytest.approx(series, abs=1e-12)

    def test_theta_to_zero_limit_is_ubar(self):
        p = params(theta=1e-9, n=8)
        assert marginal_inclusion(p) == pytest.approx(0.2, abs=1e-8)

    def test_admissibility_flag(self):
        assert bounds_report(params()).marginal_admissible
        tight = params(u=0.201, d=1.35, theta=0.01)
        assert not bounds_report(tight).marginal_admissible


class TestEntropyBounds:
    def test_lower_bound_matches_term_sum(self):
        p = params(ubar=0.2, theta=0.1, n=100)
        k = np.arange(p.trunc + 1)
        direct = 100.0 * float(
            np.sum((1 - 0.1) * 0.1 ** k * binary_entropy(0.8 ** (k + 1)))
        )
        assert entropy_lower_bound(p) == pytest.approx(direct, abs=1e-10)

    def test_lower_bound_linear_in_n(self):
        a = entropy_lower_bound(params(n=1000))
        b = entropy_lower_bound(params(n=2000))
        assert b == 2.0 * a

    def test_theta_to_zero_lower_bound_is_base_entropy(self):
        p = params(theta=1e-9, n=10)
        assert entropy_lower_bound(p) == pytest.approx(
            10.0 * binary_entropy(0.2), rel=1e-7
        )

    def test_union_level_pmf_normalizes(self):
        # the raw truncated series must already sum to 1 within 1e-12; the
        # renormalization only cleans up the residual tail
        for theta in (0.01, 0.1, 0.3):
            p = params(theta=theta, u=0.9, d=2.5, n=8)
            kp, pmf = _union_level_pmf(p)
            raw = (1.0 - theta) ** 2 * kp * theta ** (kp - 1)
            assert abs(raw.sum() - 1.0) <= 1e-12
            assert pmf.sum() == pytest.approx(1.0, abs=1e-15)

    def test_union_upper_theta_to_zero(self):
        p = params(theta=1e-9, n=10)
        assert union_entropy_upper_bound(p) == pytest.approx(
            10.0 * binary_entropy(0.36), rel=1e-6
        )

    def test_level_entropy_is_small_at_default_theta(self):
        p = params(theta=0.1, n=10)
        level_term = union_entropy_upper_bound(p) - union_entropy_upper_bound(
            params(theta=0.1, n=10)
        )
        kp, pmf = _union_level_pmf(p)
        level_entropy = float(-(pmf * np.log(pmf)).sum())
        assert 0.0 < level_entropy < 1.0
        assert level_term == 0.0


class TestRatioBound:
    def test_approaches_limit_for_small_theta_large_n(self):
        p = params(theta=0.01, n=10**6)
        assert abs(ratio_bound(p) - RATIO_TARGET_02) < 0.05

    def test_below_d_for_large_n(self):
        for n in (10**5, 10**6):
            assert ratio_bound(params(n=n)) < 1.35

    def test_converges_to_limit_from_below_as_theta_shrinks(self):
        # extra levels dilute the base entropy faster than the union's, so
        # the bound sits below its theta -> 0 limit and climbs toward it
        values = [
            ratio_bound(params(theta=t, u=0.9, d=2.5, n=10**6))
            for t in (0.2, 0.1, 0.05, 0.01, 0.001)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < RATIO_TARGET_02 for v in values)
        assert RATIO_TARGET_02 - values[-1] < 5e-4


class TestKLBound:
    def test_independent_of_n(self):
        vals = {kl_upper_bound(params(n=n)) for n in (100, 10_000, 1_000_000)}
        assert len(vals) == 1

    def test_matches_series(self):
        p = params(theta=0.1, u=0.9, d=2.5, n=10)
        kp, pmf = _union_level_pmf(p)
        direct = float(np.sum(pmf * (-kp * math.log(0.1) - math.log(0.9))))
        assert kl_upper_bound(p) == pytest.approx(direct, abs=1e-10)

    def test_finite_and_positive(self):
        v = kl_upper_bound(params())
        assert 0.0 < v < 20.0


class TestExactSmallN:
    def test_brackets_hold_at_n10(self):
        p = params(theta=0.1, n=10)
        rep = exact_small_n_check(p)
        assert rep.exact_within_bounds
        assert rep.entropy_lower <= rep.exact_entropy + 1e-10
        assert rep.exact_union_entropy <= rep.union_entropy_upper + 1e-10
        assert rep.exact_kl <= rep.kl_upper + 1e-10
        assert rep.marginal <= p.u

    def test_exact_values_cross_check(self):
        p = params(theta=0.1, n=6)
        rep = exact_small_n_check(p)
        dist = expand_mixture(build_counterexample(p))
        union = union_of_independent(dist, dist)
        assert rep.exact_entropy == pytest.approx(dist.entropy(), abs=1e-12)
        assert rep.exact_union_entropy == pytest.approx(union.entropy(), abs=1e-12)
        assert rep.exact_kl == pytest.approx(kl_divergence(union, dist), abs=1e-12)

    def test_bounds_report_has_no_exact_fields(self):
        rep = bounds_report(params())
        assert rep.exact_entropy is None
        assert rep.exact_within_bounds is None
