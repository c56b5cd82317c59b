import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import uclab.coupling
from helpers import delta_search_loop, highs_transport_value, random_union_closed
from uclab.coupling import (
    MAX_DELTA_GRID_CELLS,
    JointMeasure,
    coupled_union_prob,
    delta_search,
    greedy_coupling_dp,
    improved_slack,
    worst_coupling_value,
)
from uclab.families import Family
from uclab.measures import DiscreteMeasure, objective
from uclab.scalars import GOLDEN_THRESHOLD, binary_entropy

H_GOLDEN = 0.6650183864440036


def transport_vertices(w):
    """All vertices of the transportation polytope with equal marginals w.

    A vertex's support is a spanning tree of the bipartite row/column
    graph; enumerate every 2m-1 edge subset, keep the trees, and solve for
    the cell values by leaf stripping.  Independent of the LP route.
    """
    m = len(w)
    cells = list(itertools.product(range(m), range(m)))
    for chosen in itertools.combinations(cells, 2 * m - 1):
        # connectivity check over m+m nodes
        parent = list(range(2 * m))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for i, j in chosen:
            ra, rb = find(i), find(m + j)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if not acyclic:
            continue
        # leaf-strip the tree to solve for the cell values
        values = {}
        row_res = list(w)
        col_res = list(w)
        edges = set(chosen)
        while edges:
            progressed = False
            for i, j in list(edges):
                row_deg = sum(1 for a, b in edges if a == i)
                col_deg = sum(1 for a, b in edges if b == j)
                if row_deg == 1:
                    val = row_res[i]
                elif col_deg == 1:
                    val = col_res[j]
                else:
                    continue
                values[(i, j)] = val
                row_res[i] -= val
                col_res[j] -= val
                edges.remove((i, j))
                progressed = True
            if not progressed:
                break
        if edges:
            continue
        if min(values.values()) < -1e-12:
            continue
        mat = np.zeros((m, m))
        for (i, j), v in values.items():
            mat[i, j] = max(v, 0.0)
        yield mat


def brute_force_worst_coupling(mu):
    x, w = mu.locations, mu.weights
    cost = binary_entropy(coupled_union_prob(x[:, None], x[None, :]))
    return min(float((mat * cost).sum()) for mat in transport_vertices(list(w)))


class TestCoupledUnionProb:
    @pytest.mark.parametrize(
        "p,r,expected",
        [(0.6, 0.1, 0.6), (0.1, 0.2, 0.3), (0.3, 0.4, 0.5), (0.9, 0.8, 0.9), (0.0, 0.0, 0.0)],
    )
    def test_values(self, p, r, expected):
        assert coupled_union_prob(p, r) == pytest.approx(expected, abs=1e-15)

    def test_threshold_pair_reaches_half(self):
        assert coupled_union_prob(GOLDEN_THRESHOLD, GOLDEN_THRESHOLD) == 0.5

    def test_case_identity_on_grid(self):
        ps = np.linspace(0.0, 1.0, 300)
        a, b = np.meshgrid(ps, ps)
        lhs = coupled_union_prob(a, b)
        rhs = np.maximum(np.maximum(a, b), np.minimum(a + b, 0.5))
        assert np.abs(lhs - rhs).max() <= 1e-15

    def test_symmetric_and_dominates_max(self):
        ps = np.linspace(0.0, 1.0, 300)
        a, b = np.meshgrid(ps, ps)
        out = coupled_union_prob(a, b)
        assert np.abs(out - coupled_union_prob(b, a)).max() == 0.0
        assert np.all(out >= np.maximum(a, b))

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            coupled_union_prob(1.1, 0.5)


class TestJointMeasure:
    def test_accepts_exact_coupling(self):
        mu = DiscreteMeasure.two_atom(0.3, 0.6)
        w = np.array([[0.6, 0.0], [0.0, 0.4]])
        jm = JointMeasure(mu, mu, w)
        assert jm.weights.sum() == pytest.approx(1.0)

    def test_rejects_marginal_mismatch(self):
        mu = DiscreteMeasure.two_atom(0.3, 0.6)
        w = np.array([[0.5, 0.2], [0.1, 0.2]])
        with pytest.raises(ValueError):
            JointMeasure(mu, mu, w, tol=1e-12)

    def test_rejects_negative_mass(self):
        mu = DiscreteMeasure.two_atom(0.3, 0.6)
        w = np.array([[0.7, -0.1], [-0.1, 0.5]])
        with pytest.raises(ValueError):
            JointMeasure(mu, mu, w)


class TestWorstCoupling:
    def test_single_atom(self):
        rep = worst_coupling_value(DiscreteMeasure.point(GOLDEN_THRESHOLD))
        assert rep.value == math.log(2.0)
        assert rep.coupling.weights[0, 0] == 1.0

    def test_never_exceeds_independent(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            locs = np.unique(rng.uniform(0.0, 1.0, size=k))
            mu = DiscreteMeasure(locs, rng.dirichlet(np.ones(locs.size)))
            rep = worst_coupling_value(mu)
            assert rep.value <= rep.independent_value + 1e-12

    def test_lp_matches_vertex_enumeration_two_atoms(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            v = float(rng.uniform(0.02, 0.98))
            w = float(rng.uniform(0.05, 0.95))
            mu = DiscreteMeasure.two_atom(v, w)
            rep = worst_coupling_value(mu)
            assert rep.value == pytest.approx(brute_force_worst_coupling(mu), abs=1e-9)

    def test_lp_matches_vertex_enumeration_three_atoms(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            locs = np.unique(rng.uniform(0.01, 0.99, size=3))
            mu = DiscreteMeasure(locs, rng.dirichlet(np.ones(locs.size)))
            rep = worst_coupling_value(mu)
            assert rep.value == pytest.approx(brute_force_worst_coupling(mu), abs=1e-9)

    def test_coupling_marginals_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            locs = np.unique(rng.uniform(0.0, 1.0, size=k))
            mu = DiscreteMeasure(locs, rng.dirichlet(np.ones(locs.size)))
            rep = worst_coupling_value(mu)
            w = rep.coupling.weights
            assert np.abs(w.sum(axis=1) - mu.weights).max() <= 1e-12
            assert np.abs(w.sum(axis=0) - mu.weights).max() <= 1e-12

    def test_repair_survives_degenerate_cost_ties_at_scale(self):
        # flat cost regions invite non-unique optima; the returned coupling
        # must still satisfy the marginals to machine precision
        rng = np.random.default_rng(99)
        for _ in range(6):
            k = int(rng.integers(30, 120))
            locs = np.unique(rng.uniform(0.0, 1.0, size=k))
            mu = DiscreteMeasure(locs, rng.dirichlet(np.full(locs.size, 0.5)))
            rep = worst_coupling_value(mu)
            w = rep.coupling.weights
            assert rep.repaired
            assert np.abs(w.sum(axis=1) - mu.weights).max() <= 1e-12
            assert np.abs(w.sum(axis=0) - mu.weights).max() <= 1e-12

    def _check_closed_form(self, mu):
        rep = worst_coupling_value(mu)
        w = rep.coupling.weights
        assert rep.repaired
        assert np.abs(w.sum(axis=1) - mu.weights).max() <= 1e-12
        assert np.abs(w.sum(axis=0) - mu.weights).max() <= 1e-12
        assert abs(rep.value - brute_force_worst_coupling(mu)) <= 1e-12

    def test_two_atom_closed_form_general(self, monkeypatch):
        # two interior atoms, so neither cost row vanishes; the LP must not run
        monkeypatch.setattr(uclab.coupling, "linprog", None)
        rng = np.random.default_rng(23)
        for _ in range(200):
            locs = np.sort(rng.uniform(0.001, 0.999, size=2))
            w0 = float(rng.uniform(0.01, 0.99))
            self._check_closed_form(
                DiscreteMeasure(locs, np.array([w0, 1.0 - w0])))

    def test_two_atom_closed_form_equal_weights(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            locs = np.sort(rng.uniform(0.001, 0.999, size=2))
            self._check_closed_form(
                DiscreteMeasure(locs, np.array([0.5, 0.5])))

    @pytest.mark.parametrize("locs", [(0.25, 0.3), (0.3, 0.45), (0.26, 0.5), (0.4, 0.5)])
    def test_two_atom_closed_form_exact_ties(self, locs):
        # both rates in [1/4, 1/2], so every coupled union rate is 1/2
        x = np.array(locs)
        cost = binary_entropy(coupled_union_prob(x[:, None], x[None, :]))
        assert 2.0 * cost[0, 1] == cost[0, 0] + cost[1, 1]
        for w0 in (0.2, 0.5, 0.7):
            self._check_closed_form(
                DiscreteMeasure(x, np.array([w0, 1.0 - w0])))

    def test_atom_cap(self):
        locs = np.linspace(0.001, 0.999, 201)
        mu = DiscreteMeasure(locs, np.full(201, 1.0 / 201))
        with pytest.raises(ValueError):
            worst_coupling_value(mu)


def _lp_cost(mu):
    x = mu.locations
    return binary_entropy(coupled_union_prob(x[:, None], x[None, :]))


def _check_against_highs(mu):
    # the simplex's own basic solution: feasible before any rebuild, on a
    # support of at most 2m - 1 cells
    cost, m = _lp_cost(mu), mu.size()
    raw = uclab.coupling.linprog(cost, mu.weights)
    assert raw.min() >= 0.0 and np.count_nonzero(raw) <= 2 * m - 1
    assert np.abs(raw.sum(axis=1) - mu.weights).max() <= 1e-12
    assert np.abs(raw.sum(axis=0) - mu.weights).max() <= 1e-12
    rep = worst_coupling_value(mu)
    w = rep.coupling.weights
    assert rep.repaired
    assert np.abs(w.sum(axis=1) - mu.weights).max() <= 1e-12
    assert np.abs(w.sum(axis=0) - mu.weights).max() <= 1e-12
    assert abs(rep.value - float((raw * cost).sum())) <= 1e-12
    assert rep.value <= highs_transport_value(cost, mu.weights) + 1e-12
    assert rep.value <= rep.independent_value + 1e-12


class TestTransportSimplex:
    @pytest.mark.parametrize("m", [3, 4])
    def test_matches_vertex_enumeration(self, m):
        rng = np.random.default_rng(31 + m)
        for trial in range(12 if m == 3 else 6):
            # every other measure sits in the flat region: all atoms in
            # [1/4, 1/2), where every coupled union rate is 1/2
            lo, hi = (0.25, 0.5) if trial % 2 else (0.01, 0.99)
            locs = np.sort(rng.choice(np.arange(lo, hi, 0.01), size=m, replace=False))
            mu = DiscreteMeasure(locs, rng.dirichlet(np.ones(m)))
            if trial % 2:
                assert np.all(_lp_cost(mu) == math.log(2.0))
            rep = worst_coupling_value(mu)
            assert rep.repaired
            assert abs(rep.value - brute_force_worst_coupling(mu)) <= 1e-12

    def test_matches_highs_with_ties(self):
        # locations rounded to a coarse grid repeat cost values, so the
        # optimum is degenerate and often not unique
        rng = np.random.default_rng(37)
        for m in (3, 5, 8, 13, 21, 34, 60):
            for decimals, concentration in ((1, 0.3), (2, 1.0), (3, 3.0)):
                locs = np.unique(np.round(rng.uniform(0.0, 1.0, size=m), decimals))
                if locs.size < 3:
                    continue
                weights = rng.dirichlet(np.full(locs.size, concentration))
                _check_against_highs(DiscreteMeasure(locs, weights))
        locs = np.linspace(0.001, 0.999, 60)
        _check_against_highs(DiscreteMeasure(locs, np.full(60, 1.0 / 60)))

    @given(
        st.lists(st.integers(0, 40), min_size=3, max_size=12, unique=True),
        st.lists(st.integers(0, 20), min_size=12, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_measures_property(self, grid_points, masses):
        locs = np.array(sorted(grid_points)) / 40.0
        weights = np.array(masses[: locs.size], dtype=float)
        assume(weights.sum() > 0.0)
        _check_against_highs(DiscreteMeasure(locs, weights / weights.sum()))

    def test_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(uclab.coupling, "MAX_PIVOTS_PER_CELL", 0)
        mu = DiscreteMeasure(np.array([0.1, 0.3, 0.7]), np.array([0.2, 0.3, 0.5]))
        with pytest.raises(RuntimeError, match="transportation LP failed"):
            worst_coupling_value(mu)


class TestImprovedSlack:
    def test_alpha_zero_collapses_to_objective(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            locs = np.unique(rng.uniform(0.05, 0.95, size=3))
            mu = DiscreteMeasure(locs, rng.dirichlet(np.ones(locs.size)))
            assert improved_slack(mu, 0.0) == objective(mu, 1.0).value

    def test_golden_point_closed_form(self):
        mu = DiscreteMeasure.point(GOLDEN_THRESHOLD)
        for alpha in (0.05, 0.1, 0.5):
            expected = alpha * (math.log(2.0) - H_GOLDEN)
            assert improved_slack(mu, alpha) == pytest.approx(expected, abs=1e-12)
            assert improved_slack(mu, alpha) > 0.0

    def test_binary_support_gives_zero(self):
        mu = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.4, 0.6]))
        assert improved_slack(mu, 0.3) == 0.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            improved_slack(DiscreteMeasure.point(0.3), 1.5)


class TestDeltaSearch:
    def test_small_alpha_certifies_positive_margin(self):
        rep = delta_search(0.05, u_cap_steps=100, delta_max=0.02, v_steps=48,
                           mean_steps=32, search_points=3, search_restarts=24, seed=43)
        assert rep.delta > 0.0
        assert not rep.failure_at_threshold

    def test_alpha_zero_gives_zero_margin(self):
        rep = delta_search(0.0, u_cap_steps=40, delta_max=0.02, v_steps=24,
                           mean_steps=16, search_points=3, search_restarts=12, seed=47)
        assert rep.delta == 0.0
        assert rep.failure_at_threshold

    def test_alpha_one_reports_failure(self):
        rep = delta_search(1.0, u_cap_steps=40, delta_max=0.02, v_steps=24,
                           mean_steps=16, search_points=3, search_restarts=12, seed=53)
        assert rep.delta == 0.0
        assert rep.failure_at_threshold
        assert rep.binding_measure is not None

    def test_deterministic(self):
        kw = dict(u_cap_steps=40, delta_max=0.02, v_steps=24, mean_steps=16,
                  search_points=3, search_restarts=12, seed=59)
        assert delta_search(0.05, **kw) == delta_search(0.05, **kw)

    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [1, 43])
    def test_matches_per_measure_loop(self, alpha, seed):
        kw = dict(u_cap_steps=60, delta_max=0.02, v_steps=24, mean_steps=16,
                  search_points=3, search_restarts=12, seed=seed)
        assert delta_search(alpha, **kw) == delta_search_loop(alpha, **kw)

    def test_work_counters(self):
        kw = dict(u_cap_steps=10, v_steps=8, mean_steps=8, search_points=3,
                  search_restarts=2, seed=43)
        rep = delta_search(0.05, **kw)
        assert rep.lp_solves > 0
        assert rep.closed_form_couplings + rep.lp_solves == rep.measures_scanned
        assert rep.lp_fallbacks == 0
        plain = delta_search(0.0, **kw)
        assert (plain.closed_form_couplings, plain.lp_solves) == (0, 0)

    def test_counts_lp_fallbacks(self, monkeypatch):
        monkeypatch.setattr(uclab.coupling, "_rebuild_from_support", lambda raw, w: None)
        rep = delta_search(0.05, u_cap_steps=10, v_steps=8, mean_steps=8, search_points=3,
                           search_restarts=2, seed=43)
        assert rep.lp_solves > 0
        assert rep.lp_fallbacks == rep.lp_solves

    @pytest.mark.parametrize("kw", [dict(u_cap_steps=10**12), dict(v_steps=10**9),
                                    dict(mean_steps=10**9)])
    def test_grid_bounded_before_allocation(self, kw):
        with pytest.raises(ValueError, match=str(MAX_DELTA_GRID_CELLS)):
            delta_search(0.05, **kw)

    @pytest.mark.parametrize("delta_max", [0.0, -0.01, 5e-324, math.inf, math.nan])
    def test_rejects_bad_delta_max(self, delta_max):
        with pytest.raises(ValueError):
            delta_search(0.05, delta_max=delta_max)


class TestGreedyCouplingDP:
    def test_single_full_set(self):
        rep = greedy_coupling_dp(Family.of(3, [0b111]))
        assert rep.union_entropy == 0.0
        assert rep.marginals_uniform

    def test_chain_family_marginals(self):
        rep = greedy_coupling_dp(Family.of(2, [0b00, 0b01, 0b11]))
        assert rep.max_marginal_deviation <= 1e-12

    def test_powerset_comonotone_copies(self):
        # every rate is 1/2, so the shared draw makes both samples equal
        # and the coupled union keeps the full uniform entropy
        rep = greedy_coupling_dp(Family.of(2, range(4)))
        assert rep.union_entropy == pytest.approx(math.log(4.0), abs=1e-12)
        assert rep.independent_union_entropy < rep.union_entropy

    def test_marginals_uniform_on_random_families(self):
        rng = np.random.default_rng(61)
        count = 0
        while count < 100:
            f = random_union_closed(rng, int(rng.integers(2, 9)))
            if f.size() > 64:
                continue
            rep = greedy_coupling_dp(f)
            assert rep.max_marginal_deviation <= 1e-12
            count += 1

    def test_joint_law_is_normalized(self):
        f = Family.of(3, [2, 3, 4, 6, 7])
        rep = greedy_coupling_dp(f)
        total = sum(p for _, _, p in rep.joint)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_literal_rates_break_uniformity(self):
        f = Family.of(3, [2, 3, 4, 6, 7])
        assert greedy_coupling_dp(f).max_marginal_deviation <= 1e-12
        literal = greedy_coupling_dp(f, literal_rates=True)
        assert literal.max_marginal_deviation > 1e-3

    def test_rejects_non_union_closed(self):
        with pytest.raises(ValueError):
            greedy_coupling_dp(Family.of(2, [1, 2]))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            greedy_coupling_dp(Family.of(11, [0, 1]))
