import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uclab.measures
from helpers import (
    curvature_indicator,
    exchange_descent_loop,
    f_mu,
    f_mu_structure_check,
    linearized_objective,
    local_search_loop,
    random_feasible_start_loop,
    second_derivative,
    two_atom_scan_loop,
)
from uclab.measures import (
    MAX_ATOM_GRID,
    MAX_LEMMA_U_STEPS,
    MAX_LEMMA_V_STEPS,
    MAX_SEARCH_RESTARTS,
    DiscreteMeasure,
    _exchange_descent,
    _random_feasible_start,
    _two_atom_scan_rows,
    lemma_certificate,
    local_search_min,
    local_search_rows,
    objective,
    sorted_unique,
    two_atom_min_scan,
)
from uclab.scalars import GOLDEN_THRESHOLD, PHI, binary_entropy, entropy_ratio_bound

# mpmath reference: 0.25 H(0.36) - 0.5 H(0.2)
TWO_ATOM_02_05 = -0.08684666307066849
# mpmath reference: 2 H(0.58) - H(0.4)
F_MU_03_04 = 0.6875723333750505


def random_measure(rng, max_atoms=6, lo=0.0, hi=1.0):
    k = int(rng.integers(1, max_atoms + 1))
    locs = np.sort(rng.uniform(lo, hi, size=k))
    locs = np.unique(locs)
    ws = rng.dirichlet(np.ones(locs.size))
    return DiscreteMeasure(locs, ws)


class TestDiscreteMeasure:
    def test_mean_examples(self):
        assert DiscreteMeasure.point(0.3).mean() == 0.3
        halves = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert halves.mean() == 0.5
        mix = DiscreteMeasure.from_pairs([(0.2, 0.25), (0.6, 0.75)])
        assert mix.mean() == pytest.approx(0.5, abs=1e-15)

    def test_from_pairs_merges_and_sorts(self):
        mu = DiscreteMeasure.from_pairs([(0.7, 0.25), (0.2, 0.5), (0.7, 0.25)])
        assert list(mu.locations) == [0.2, 0.7]
        assert list(mu.weights) == [0.5, 0.5]

    def test_from_pairs_drops_zero_weight(self):
        mu = DiscreteMeasure.two_atom(0.4, 1.0)
        assert mu.size() == 1
        assert mu.locations[0] == 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.2, 0.2]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.5]), np.array([0.9]))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([1.5]), np.array([1.0]))


class TestObjective:
    def test_zero_at_golden_point(self):
        rep = objective(DiscreteMeasure.point(GOLDEN_THRESHOLD), 1.0)
        assert abs(rep.value) < 1e-12

    def test_zero_at_ratio_branch(self):
        for u in (0.05, 0.2, 0.35):
            rep = objective(DiscreteMeasure.point(u), entropy_ratio_bound(u))
            assert abs(rep.value) < 1e-12

    def test_zero_on_binary_support(self):
        mu = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.3, 0.7]))
        rep = objective(mu, 1.7)
        assert rep.quadratic == rep.linear == rep.value == 0.0

    def test_report_is_recomputable(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu = random_measure(rng)
            lam = float(rng.uniform(0.5, 2.0))
            rep = objective(mu, lam)
            assert rep.value == pytest.approx(rep.quadratic - lam * rep.linear, abs=1e-14)
            assert rep.mean == mu.mean()

    def test_two_atom_reference_value(self):
        rep = objective(DiscreteMeasure.two_atom(0.2, 0.5), 1.0)
        assert rep.value == pytest.approx(TWO_ATOM_02_05, abs=1e-15)

    def test_invariant_under_merge_and_reorder(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            mu = random_measure(rng, max_atoms=4)
            pairs = list(zip(mu.locations, mu.weights))
            split = []
            for x, w in pairs:
                split.append((x, 0.25 * w))
                split.append((x, 0.75 * w))
            again = DiscreteMeasure.from_pairs(reversed(split))
            lam = 1.3
            assert objective(again, lam).value == pytest.approx(
                objective(mu, lam).value, abs=1e-14
            )


class TestLinearized:
    def test_identity_with_self(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mu = random_measure(rng)
            lam = float(rng.uniform(0.5, 2.0))
            rep = objective(mu, lam)
            assert linearized_objective(mu, mu, lam) == pytest.approx(
                rep.value + rep.quadratic, abs=1e-12
            )

    def test_point_mass_at_one_gives_zero(self):
        rng = np.random.default_rng(3)
        mu = random_measure(rng)
        assert linearized_objective(mu, DiscreteMeasure.point(1.0), 1.4) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_stationarity_at_sharp_measure(self):
        # at the minimizer the linearized functional over feasible measures
        # is itself minimized by the measure: check against the extreme
        # points (single atoms below the cap, mean-pinned two-atom pairs)
        u = 0.5
        lam = entropy_ratio_bound(u)
        mu = DiscreteMeasure.two_atom(GOLDEN_THRESHOLD, (1.0 - u) * PHI)
        base = linearized_objective(mu, mu, lam)
        xs = np.linspace(1e-4, u, 2001)
        best, arg = np.inf, None
        for x in xs:
            val = linearized_objective(mu, DiscreteMeasure.point(float(x)), lam)
            if val < best:
                best, arg = val, float(x)
        for x in xs[:-1]:
            a = u / (1.0 - x)
            if a > 1.0:
                continue
            val = linearized_objective(mu, DiscreteMeasure.two_atom(float(x), float(a)), lam)
            if val < best:
                best, arg = val, float(x)
        assert best >= base - 1e-9
        assert abs(arg - GOLDEN_THRESHOLD) < 2.0 * (xs[1] - xs[0])


class TestTwoAtomScan:
    def test_below_threshold_argmin_at_u(self):
        rep = two_atom_min_scan(0.3, 1000)
        assert rep.min_slack >= -1e-9
        assert rep.argmin_v == pytest.approx(0.3, abs=1e-12)

    def test_above_threshold_argmin_at_golden(self):
        rep = two_atom_min_scan(0.5, 1000)
        assert rep.min_slack >= -1e-9
        assert rep.argmin_v == pytest.approx(GOLDEN_THRESHOLD, abs=1e-12)

    def test_at_threshold(self):
        rep = two_atom_min_scan(GOLDEN_THRESHOLD, 1000)
        assert abs(rep.min_slack) < 1e-9
        assert rep.argmin_v == pytest.approx(GOLDEN_THRESHOLD, abs=1e-12)

    @given(st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=40, deadline=None)
    def test_never_negative_along_bound(self, u):
        rep = two_atom_min_scan(u, 300)
        assert rep.min_slack >= -1e-9

    def test_inflated_bound_detected(self):
        rep = two_atom_min_scan(0.3, 500, lam=1.05 * entropy_ratio_bound(0.3))
        assert rep.min_slack < -1e-4

    @pytest.mark.parametrize("v_steps", [2, 3, 7, 41, 400])
    def test_rows_match_per_u_loop(self, v_steps, monkeypatch):
        # u = 2G puts the golden threshold on the grid for every odd v_steps
        # here, so it is merged with an equal grid point rather than inserted;
        # the blocks hold three rows
        monkeypatch.setattr(uclab.measures, "SCAN_BLOCK_CELLS", 3 * v_steps + 1)
        rng = np.random.default_rng(v_steps)
        us = np.concatenate([[2.0 * GOLDEN_THRESHOLD, GOLDEN_THRESHOLD, 0.5, 1e-3, 0.999],
                             rng.uniform(0.01, 0.99, 40)])
        for scale in (1.0, 1.05, 0.9):
            lams = scale * np.array([entropy_ratio_bound(float(u)) for u in us])
            rows = _two_atom_scan_rows(us, lams, v_steps)
            for k, (u, lam) in enumerate(zip(us, lams)):
                assert tuple(r[k] for r in rows) == two_atom_scan_loop(u, v_steps, lam)
                rep = two_atom_min_scan(u, v_steps, lam=lam)
                assert (rep.v_steps, rep.min_slack, rep.argmin_v) == two_atom_scan_loop(u, v_steps, lam)

    def test_golden_on_and_off_the_grid(self):
        on_grid = np.linspace(0.0, 2.0 * GOLDEN_THRESHOLD, 7)
        assert GOLDEN_THRESHOLD in on_grid
        assert two_atom_min_scan(2.0 * GOLDEN_THRESHOLD, 7).v_steps == 7
        assert GOLDEN_THRESHOLD not in np.linspace(0.0, 0.5, 7)
        assert two_atom_min_scan(0.5, 7).v_steps == 8
        assert two_atom_min_scan(0.3, 7).v_steps == 7


class TestFMu:
    def test_point_at_zero(self):
        mu = DiscreteMeasure.point(0.0)
        for q in (0.2, 0.5, 0.8):
            assert f_mu(mu, 1.2, q) == pytest.approx((2.0 - 1.2) * binary_entropy(q), abs=1e-13)

    def test_point_at_one(self):
        mu = DiscreteMeasure.point(1.0)
        for q in (0.2, 0.7):
            assert f_mu(mu, 1.2, q) == pytest.approx(-1.2 * binary_entropy(q), abs=1e-13)

    def test_reference_value(self):
        assert f_mu(DiscreteMeasure.point(0.3), 1.0, 0.4) == pytest.approx(
            F_MU_03_04, abs=1e-15
        )

    def test_rejects_endpoint_q(self):
        with pytest.raises(ValueError):
            f_mu(DiscreteMeasure.point(0.3), 1.0, 0.0)

    def test_vectorized(self):
        mu = DiscreteMeasure.point(0.3)
        qs = np.array([0.2, 0.4, 0.6])
        vals = f_mu(mu, 1.0, qs)
        assert vals.shape == (3,)
        assert vals[1] == pytest.approx(F_MU_03_04, abs=1e-15)


class TestCurvature:
    def test_golden_point_strictly_decreasing(self):
        rep = f_mu_structure_check(DiscreteMeasure.point(GOLDEN_THRESHOLD), 1.0, grid=10_000)
        assert rep.strictly_decreasing
        assert rep.convex_then_concave
        assert rep.inflection is not None and 0.0 < rep.inflection < 1.0

    def test_indicator_decreasing_for_random_measures(self):
        rng = np.random.default_rng(5)
        qs = np.linspace(0.001, 0.999, 2000)
        for _ in range(100):
            mu = random_measure(rng, lo=0.01, hi=0.99)
            lam = float(rng.uniform(0.5, 2.0))
            g = curvature_indicator(mu, lam, qs)
            assert np.all(np.diff(g) < 0.0)

    def test_indicator_matches_second_difference_of_f_mu(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            mu = random_measure(rng, lo=0.05, hi=0.95)
            lam = float(rng.uniform(0.8, 1.5))
            for q in np.linspace(0.05, 0.95, 19):
                fd = second_derivative(lambda t: f_mu(mu, lam, t), q, 1e-4)
                closed = curvature_indicator(mu, lam, np.array([q]))[0]
                assert closed == pytest.approx(q * (1.0 - q) * fd, rel=1e-3, abs=1e-6)

    def test_convexity_verdict_matches_sign_pattern(self):
        mu = DiscreteMeasure.point(GOLDEN_THRESHOLD)
        rep = f_mu_structure_check(mu, 1.0, grid=5000)
        a = rep.inflection
        qs_left = np.linspace(0.01, a - 0.01, 50)
        qs_right = np.linspace(a + 0.01, 0.99, 50)
        # second differences of f_mu change sign across the inflection
        for q in (qs_left[0], qs_left[-1]):
            assert second_derivative(lambda t: f_mu(mu, 1.0, t), q, 1e-4) > 0.0
        for q in (qs_right[0], qs_right[-1]):
            assert second_derivative(lambda t: f_mu(mu, 1.0, t), q, 1e-4) < 0.0

    def test_rejects_degenerate_support(self):
        mu = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            f_mu_structure_check(mu, 1.0)


def _pool_sizes(u, atom_grid, restarts, seed, pool_size=24):
    """The distinct location-pool sizes local_search_min draws."""
    grid = np.linspace(0.0, 1.0, atom_grid + 1)
    specials = [0.0, u, GOLDEN_THRESHOLD, 1.0]
    return {
        np.unique(np.concatenate([
            np.random.default_rng(seed + r).choice(grid, size=pool_size, replace=False), specials
        ])).size
        for r in range(restarts)
    }


class TestSortedUnique:
    def test_matches_np_unique(self):
        rng = np.random.default_rng(3)
        for size in (1, 2, 5, 40):
            for values in (rng.integers(0, 6, size).astype(float), rng.uniform(size=size),
                           np.append(rng.uniform(size=size), [0.0, -0.0, 1.0, 1.0]),
                           rng.integers(-3, 3, size)):
                got = sorted_unique(values)
                want = np.unique(values)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


# Exact ties, which random pools never produce: a location listed twice
# gives two bit-identical rows of every move term.  In the first pool,
# weights 0.2 and 0.1 there make a half move of one atom tie the full move
# of the other (the full move must win); in the second and third, equal
# weights make two source rows tie (the first must win).  All three
# descend at lam = 1 under the mean cap 0.62.
_TIE_CASES = [
    ([0.0, 0.5, 0.5, 0.6, 0.85, 1.0], [0.0, 0.2, 0.1, 0.7, 0.0, 0.0]),
    ([0.0, 0.1, 0.2, 0.2, 0.6, 0.75, 1.0], [0.0, 0.0, 0.125, 0.125, 0.75, 0.0, 0.0]),
    ([0.0, 0.5, 0.5, 0.55, 0.9, 1.0], [0.3, 0.1, 0.1, 0.0, 0.0, 0.5]),
]


class TestLocalSearch:
    def test_respects_mean_cap(self):
        for u in (0.2, 0.4, 0.6):
            rep = local_search_min(u, entropy_ratio_bound(u), restarts=20, seed=11)
            assert rep.best_measure.mean() <= u + 1e-12

    def test_never_beats_zero_at_bound_factor(self):
        for u in (0.25, GOLDEN_THRESHOLD, 0.55):
            rep = local_search_min(u, entropy_ratio_bound(u), restarts=40, seed=13)
            assert rep.best_value >= -1e-6

    def test_finds_violation_under_inflated_factor(self):
        u = 0.3
        rep = local_search_min(u, 1.05 * entropy_ratio_bound(u), restarts=30, seed=17)
        assert rep.best_value < -1e-4

    def test_concentrates_on_two_locations(self):
        rep = local_search_min(0.5, entropy_ratio_bound(0.5), restarts=40, seed=19)
        assert rep.two_point_with_top

    @pytest.mark.parametrize("u", [0.1, 0.3, GOLDEN_THRESHOLD, 0.5, 0.8])
    def test_matches_exchange_move_loop(self, u):
        for seed in (1, 23, 1729):
            for lam in (entropy_ratio_bound(u), 1.0, 1.05 * entropy_ratio_bound(u)):
                kw = dict(atom_grid=300, restarts=6, seed=seed)
                fast = local_search_min(u, lam, **kw)
                slow = local_search_loop(u, lam, **kw)
                assert fast.best_value == slow.best_value
                assert np.array_equal(fast.best_measure.locations, slow.best_measure.locations)
                assert np.array_equal(fast.best_measure.weights, slow.best_measure.weights)
                assert fast.two_point_with_top == slow.two_point_with_top

    @pytest.mark.parametrize("stack", [1, 2, 3, 16])
    def test_batched_descent_matches_exchange_move_loop(self, stack, monkeypatch):
        # restarts descend in stacks grouped by pool size, here of at most
        # `stack` rows at 28 locations (more at smaller pools); on a 41-point
        # grid the pools collide with 0, u and 1 at random, so one call spans
        # several pool sizes and, at small stacks, several stacks per size
        monkeypatch.setattr(uclab.measures, "SEARCH_STACK_CELLS", stack * 28 * 28)
        sizes_seen = set()
        for u in (0.2, GOLDEN_THRESHOLD, 0.45):
            for lam in (entropy_ratio_bound(u), 1.0):
                for seed in (5, 1729):
                    for atom_grid in (40, 400):
                        kw = dict(atom_grid=atom_grid, restarts=7, seed=seed)
                        sizes = _pool_sizes(u, **kw)
                        sizes_seen.add(len(sizes))
                        fast = local_search_min(u, lam, **kw)
                        slow = local_search_loop(u, lam, **kw)
                        assert fast.best_value == slow.best_value
                        assert np.array_equal(fast.best_measure.locations,
                                              slow.best_measure.locations)
                        assert np.array_equal(fast.best_measure.weights,
                                              slow.best_measure.weights)
        assert max(sizes_seen) >= 3

    def test_round_cap_matches_loop(self, monkeypatch):
        for rounds in (1, 2, 3):
            monkeypatch.setattr(uclab.measures, "SEARCH_MAX_ROUNDS", rounds)
            kw = dict(atom_grid=200, restarts=9, seed=7)
            fast = local_search_min(0.3, 1.0, **kw)
            slow = local_search_loop(0.3, 1.0, max_rounds=rounds, **kw)
            assert fast.best_value == slow.best_value
            assert np.array_equal(fast.best_measure.weights, slow.best_measure.weights)

    @pytest.mark.parametrize("rounds", [1, 2, 3, 200])
    def test_descent_matches_loop_on_exact_ties(self, rounds):
        # each pool alone, then the two pools of six locations as one stack,
        # at one (lam, u) and with each row's own
        for group, lam, u in (([0], [1.0], [0.62]), ([1], [1.0], [0.62]), ([2], [1.0], [0.62]),
                              ([0, 2], [1.0, 1.0], [0.62, 0.62]),
                              ([0, 2], [0.9, 1.0], [0.62, 0.7])):
            x = np.array([_TIE_CASES[k][0] for k in group])
            w = np.array([_TIE_CASES[k][1] for k in group])
            got = _exchange_descent(x, w, np.array(lam), np.array(u), rounds)
            for row, k in enumerate(group):
                want = np.array(_TIE_CASES[k][1])
                assert got[row] == exchange_descent_loop(x[row], want, lam[row], u[row], rounds)
                assert np.array_equal(w[row], want)
                # and each row did move
                assert not np.array_equal(want, _TIE_CASES[k][1])

    @pytest.mark.parametrize("cells", [1, uclab.measures.SEARCH_STACK_CELLS])
    def test_rows_match_per_point_search_and_loop(self, cells, monkeypatch):
        # points of different u and lam share each pool size's stacks (one
        # row per stack at cells=1); the 41-point grid makes the pool sizes
        # vary within a point, and a pool size of 8 gives smaller pools
        monkeypatch.setattr(uclab.measures, "SEARCH_STACK_CELLS", cells)
        us = [0.2, GOLDEN_THRESHOLD, 0.45, 0.3, 0.6]
        lams = [entropy_ratio_bound(0.2), 1.0, 1.05 * entropy_ratio_bound(0.45), 0.8,
                entropy_ratio_bound(0.6)]
        seeds = [5, 1729, 11, 5, 40]
        for atom_grid, pool_size in ((40, 24), (400, 24), (40, 8)):
            monkeypatch.setattr(uclab.measures, "SEARCH_POOL_SIZE", pool_size)
            kw = dict(atom_grid=atom_grid, restarts=7)
            reps = local_search_rows(us, lams, seeds=seeds, **kw)
            assert len(reps) == len(us)
            for rep, u, lam, seed in zip(reps, us, lams, seeds):
                assert (rep.mean_cap, rep.restarts, rep.seed) == (u, 7, seed)
                for want in (local_search_min(u, lam, seed=seed, **kw),
                             local_search_loop(u, lam, seed=seed, pool_size=pool_size, **kw)):
                    assert rep.best_value == want.best_value
                    assert np.array_equal(rep.best_measure.locations,
                                          want.best_measure.locations)
                    assert np.array_equal(rep.best_measure.weights, want.best_measure.weights)
                    assert rep.two_point_with_top == want.two_point_with_top

    def test_equal_values_go_to_the_first_restart(self, monkeypatch):
        # a descent that moves nothing and values every restart at 0: each
        # point must keep its restart 0, also though a stack of its later
        # restarts (another pool size) descends before restart 0's stack
        stacks = []

        def flat(x, w, lam, u, max_rounds):
            stacks.append(x.tolist())
            return np.zeros(len(x))

        monkeypatch.setattr(uclab.measures, "_exchange_descent", flat)
        us, seeds = [0.31, 0.57], [6, 1]
        reps = local_search_rows(us, [1.0, 1.0], atom_grid=40, restarts=60, seeds=seeds)
        grid = np.linspace(0.0, 1.0, 41)
        for rep, u, seed in zip(reps, us, seeds):
            at = []
            for r in range(60):
                rng = np.random.default_rng(seed + r)
                x = sorted_unique(np.concatenate([rng.choice(grid, size=24, replace=False),
                                                  [0.0, u, GOLDEN_THRESHOLD, 1.0]]))
                at.append(next(k for k, rows in enumerate(stacks) if x.tolist() in rows))
                if r == 0:
                    w = _random_feasible_start(rng, x, u)
                    keep = w > 0.0
                    assert np.array_equal(rep.best_measure.locations, x[keep])
                    assert np.array_equal(rep.best_measure.weights, w[keep] / w[keep].sum())
            assert at[0] > min(at)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_rows_reject_non_finite_lam(self, lam, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the search drew a start before checking lam")

        monkeypatch.setattr(uclab.measures, "_random_feasible_start", no_work)
        with pytest.raises(ValueError, match=f"^lam must be finite, got {lam}$"):
            local_search_rows([0.3, 0.4], [1.0, lam], seeds=[1, 2])
        with pytest.raises(ValueError, match=f"^lam must be finite, got {lam}$"):
            local_search_min(0.3, lam)

    def test_start_draw_matches_the_numpy_scalar_drain(self):
        drained = 0
        for seed in range(60):
            for u in (0.02, 0.1, 0.3, GOLDEN_THRESHOLD, 0.6):
                x = sorted_unique(np.concatenate(
                    [np.random.default_rng(seed).uniform(size=20), [0.0, u, 1.0]]))
                fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _random_feasible_start(fast, x, u)
                assert np.array_equal(got, random_feasible_start_loop(slow, x, u))
                # the same draws: both generators are left in the same state
                assert fast.random() == slow.random()
                # a drained start ends with its mean at the cap
                drained += abs(float(x @ got) - u) < 1e-12
        assert drained > 100

    def test_deterministic_given_seed(self):
        a = local_search_min(0.4, 1.0, restarts=10, seed=23)
        b = local_search_min(0.4, 1.0, restarts=10, seed=23)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_measure.locations, b.best_measure.locations)
        assert np.array_equal(a.best_measure.weights, b.best_measure.weights)


class TestLemmaCertificate:
    def test_small_grid_passes(self):
        cert = lemma_certificate(
            u_steps=60, v_steps=120, restarts=30, atom_grid=300,
            search_points=6, seed=29,
        )
        assert cert.scan_ok
        assert cert.search_ok
        assert cert.worst_slack >= -1e-9
        assert len(cert.rows) == cert.u_steps

    def test_threshold_row_has_zero_slack(self):
        cert = lemma_certificate(
            u_steps=50, v_steps=100, restarts=10, atom_grid=200,
            search_points=3, seed=31,
        )
        at_star = [r for r in cert.rows if r["u"] == GOLDEN_THRESHOLD]
        assert len(at_star) == 1
        assert abs(at_star[0]["min_slack"]) < 1e-9

    @pytest.mark.parametrize("lam_scale", [1.0, 1.05])
    def test_rows_match_per_u_loop(self, lam_scale):
        cert = lemma_certificate(
            u_steps=45, v_steps=90, restarts=4, atom_grid=200,
            search_points=2, seed=3, lam_scale=lam_scale,
        )
        assert len(cert.rows) == 46
        for row in cert.rows:
            _, slack, v = two_atom_scan_loop(row["u"], 90, row["ratio_bound"])
            assert (row["min_slack"], row["argmin_v"]) == (slack, v)
        worst = min(cert.rows, key=lambda r: r["min_slack"])
        assert (cert.worst_u, cert.argmin_v_at_worst) == (worst["u"], worst["argmin_v"])

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(u_steps=0), "must be positive"),
            (dict(restarts=0), "must be positive"),
            (dict(atom_grid=-1), "must be positive"),
            (dict(search_points=0), "must be positive"),
            (dict(v_steps=1), "v_steps must be at least 2"),
        ],
    )
    def test_rejects_empty_grids(self, kw, message):
        with pytest.raises(ValueError, match=message):
            lemma_certificate(**kw)

    @pytest.mark.parametrize(
        "name, cap",
        [("u_steps", MAX_LEMMA_U_STEPS), ("v_steps", MAX_LEMMA_V_STEPS),
         ("restarts", MAX_SEARCH_RESTARTS), ("atom_grid", MAX_ATOM_GRID)],
    )
    def test_rejects_huge_grids_before_any_work(self, name, cap, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("lemma_certificate started work before bounding its grids")

        monkeypatch.setattr(np, "arange", no_work)
        monkeypatch.setattr(uclab.measures, "entropy_ratio_bound_array", no_work)
        with pytest.raises(ValueError, match=f"^{name} must be at most {cap}, got {cap + 1}$"):
            lemma_certificate(**{name: cap + 1})

    def test_grids_at_their_caps_pass_the_bounds(self, monkeypatch):
        class Started(Exception):
            pass

        def started(*args, **kwargs):
            raise Started

        monkeypatch.setattr(np, "arange", started)
        with pytest.raises(Started):
            lemma_certificate(u_steps=MAX_LEMMA_U_STEPS, v_steps=MAX_LEMMA_V_STEPS,
                              restarts=MAX_SEARCH_RESTARTS, atom_grid=MAX_ATOM_GRID)

    @pytest.mark.parametrize("kw", [dict(scan_tol=math.nan), dict(scan_tol=-1e-9)])
    def test_rejects_bad_tolerances(self, kw):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            lemma_certificate(u_steps=3, v_steps=4, restarts=1, atom_grid=10,
                              search_points=1, **kw)

    @pytest.mark.parametrize("lam_scale", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_bad_lam_scale(self, lam_scale):
        with pytest.raises(ValueError, match="lam_scale must be finite and positive"):
            lemma_certificate(u_steps=3, v_steps=4, restarts=1, atom_grid=10,
                              search_points=1, lam_scale=lam_scale)

    def test_inflated_factor_fails(self):
        cert = lemma_certificate(
            u_steps=40, v_steps=80, restarts=8, atom_grid=200,
            search_points=3, seed=37, lam_scale=1.05,
        )
        assert not cert.scan_ok
        assert cert.worst_slack < -1e-3
