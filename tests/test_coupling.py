import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import uclab.coupling
from helpers import (
    coupling_dp_exact,
    delta_search_loop,
    filter_union_closed_codes,
    highs_transport_value,
    random_union_closed,
)
from uclab.coupling import (
    MARGINAL_TOL,
    MAX_LP_ATOMS,
    _two_atom_coupling,
    coupled_union_kernel,
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

    def test_kernel_has_the_bits_of_the_checked_function(self):
        ps = np.linspace(0.0, 1.0, 301)
        a, b = np.meshgrid(ps, ps)
        assert coupled_union_kernel(a, b).tobytes() == coupled_union_prob(a, b).tobytes()

    @pytest.mark.parametrize("kind", [float, np.float64, np.array])
    def test_two_scalars_give_a_python_float_and_a_vector_an_array(self, kind):
        ps = np.array([0.0, 0.1, 0.3, 0.45, 0.6, 1.0])
        for p, r in zip(ps, ps[::-1]):
            out = coupled_union_prob(kind(p), kind(r))
            assert type(out) is float
            assert out == coupled_union_prob(float(p), float(r))
        out = coupled_union_prob(ps, kind(0.2))
        assert type(out) is np.ndarray
        assert out.tolist() == [coupled_union_prob(float(p), 0.2) for p in ps]


class TestWorstCoupling:
    def test_single_atom(self):
        rep = worst_coupling_value(DiscreteMeasure.point(GOLDEN_THRESHOLD))
        assert rep.value == math.log(2.0)
        assert rep.weights[0, 0] == 1.0

    def test_never_exceeds_independent(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            locs = np.unique(rng.uniform(0.0, 1.0, size=k))
            mu = DiscreteMeasure(locs, rng.dirichlet(np.ones(locs.size)))
            rep = worst_coupling_value(mu)
            assert rep.value <= mu.weights @ _lp_cost(mu) @ mu.weights + 1e-12

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
            w = rep.weights
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
            w = rep.weights
            assert rep.repaired
            assert np.abs(w.sum(axis=1) - mu.weights).max() <= 1e-12
            assert np.abs(w.sum(axis=0) - mu.weights).max() <= 1e-12

    def _check_closed_form(self, mu):
        rep = worst_coupling_value(mu)
        w = rep.weights
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

    def test_stacked_closed_form_gives_each_measure_its_bits(self):
        # the rule as delta_search's two-atom class runs it, on arrays, row
        # by row against the (2, 2) coupling and its sum for one measure;
        # rows with both atoms in [1/4, 1/2] hit exact cost ties
        rng = np.random.default_rng(31)
        x = np.sort(rng.uniform(0.001, 0.999, size=(300, 2)), axis=1)
        w0 = rng.uniform(0.01, 0.99, size=300)
        cost = binary_entropy(coupled_union_prob(x[:, :, None], x[:, None, :]))
        t, value = _two_atom_coupling(w0, 1.0 - w0, cost[:, 0, 0], cost[:, 0, 1], cost[:, 1, 1])
        for k in range(300):
            rep = worst_coupling_value(DiscreteMeasure(x[k], np.array([w0[k], 1.0 - w0[k]])))
            assert t[k] == rep.weights[0, 1]
            assert value[k] == rep.value

    @pytest.mark.parametrize("locs", [(0.25, 0.3), (0.3, 0.45), (0.26, 0.5), (0.4, 0.5)])
    def test_two_atom_closed_form_exact_ties(self, locs):
        # both rates in [1/4, 1/2], so every coupled union rate is 1/2
        x = np.array(locs)
        cost = binary_entropy(coupled_union_prob(x[:, None], x[None, :]))
        assert 2.0 * cost[0, 1] == cost[0, 0] + cost[1, 1]
        for w0 in (0.2, 0.5, 0.7):
            self._check_closed_form(
                DiscreteMeasure(x, np.array([w0, 1.0 - w0])))


def _lp_cost(mu):
    x = mu.locations
    return binary_entropy(coupled_union_prob(x[:, None], x[None, :]))


def _check_against_highs(mu):
    # the simplex's own basic solution, which worst_coupling_value returns
    # as it is: feasible on a support of at most 2m - 1 cells
    cost, m = _lp_cost(mu), mu.size()
    raw = uclab.coupling.linprog(cost, mu.weights)
    assert raw.min() >= 0.0 and np.count_nonzero(raw) <= 2 * m - 1
    assert np.abs(raw.sum(axis=1) - mu.weights).max() <= 1e-12
    assert np.abs(raw.sum(axis=0) - mu.weights).max() <= 1e-12
    rep = worst_coupling_value(mu)
    w = rep.weights
    assert rep.repaired
    assert np.abs(w.sum(axis=1) - mu.weights).max() <= 1e-12
    assert np.abs(w.sum(axis=0) - mu.weights).max() <= 1e-12
    assert abs(rep.value - float((raw * cost).sum())) <= 1e-12
    assert rep.value <= highs_transport_value(cost, mu.weights) + 1e-12
    assert rep.value <= mu.weights @ cost @ mu.weights + 1e-12


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
    # the atom at 1 holds at least half the mass, so the optimum is exactly
    # 0; HiGHS stopped on the dual of both with model status 15, "Unknown"
    @example(grid_points=[2, 3, 40], masses=[1, 3, 4] + [0] * 9)
    @example(grid_points=[0, 2, 40, 3], masses=[0, 1, 12, 13] + [0] * 8)
    def test_random_measures_property(self, grid_points, masses):
        locs = np.array(sorted(grid_points)) / 40.0
        weights = np.array(masses[: locs.size], dtype=float)
        assume(weights.sum() > 0.0)
        _check_against_highs(DiscreteMeasure(locs, weights / weights.sum()))

    def test_largest_tied_measures_match_highs(self):
        # MAX_LP_ATOMS atoms on a 1e-3 grid, so cost values repeat; in the
        # first measure every atom lies in [1/4, 1/2), where all costs tie
        rng = np.random.default_rng(41)
        m = MAX_LP_ATOMS
        for lo, hi, concentration in ((0.25, 0.5, 1.0), (0.0, 1.0, 0.3), (0.1, 0.6, 3.0)):
            locs = np.sort(rng.choice(np.arange(lo, hi, 0.001), size=m, replace=False))
            mu = DiscreteMeasure(locs, rng.dirichlet(np.full(m, concentration)))
            rep = worst_coupling_value(mu)
            w = rep.weights
            assert np.abs(w.sum(axis=1) - mu.weights).max() <= MARGINAL_TOL
            assert np.abs(w.sum(axis=0) - mu.weights).max() <= MARGINAL_TOL
            assert rep.value <= highs_transport_value(_lp_cost(mu), mu.weights) + 1e-12

    def test_vertex_off_its_marginals_is_an_internal_fault(self, monkeypatch):
        real = uclab.coupling.linprog

        def off_by_1e9(cost, w):
            out = real(cost, w)
            out[0, 0] += 1e-9
            return out

        monkeypatch.setattr(uclab.coupling, "linprog", off_by_1e9)
        mu = DiscreteMeasure(np.array([0.1, 0.3, 0.7]), np.array([0.2, 0.3, 0.5]))
        with pytest.raises(RuntimeError, match="simplex vertex is not a coupling"):
            worst_coupling_value(mu)

    def test_vertex_with_negative_mass_is_an_internal_fault(self, monkeypatch):
        # the vertex keeps both marginals, so only the sign check can catch it
        def negative_entry(cost, w):
            out = np.diag(w)
            out[:2, :2] += [[-0.1, 0.1], [0.1, -0.1]]
            return out

        monkeypatch.setattr(uclab.coupling, "linprog", negative_entry)
        mu = DiscreteMeasure(np.array([0.1, 0.3, 0.7]), np.array([0.05, 0.3, 0.65]))
        with pytest.raises(RuntimeError, match="not a coupling: coupling weights must be "
                                               "nonnegative"):
            worst_coupling_value(mu)

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
        rep = delta_search(0.05, delta_steps=100, delta_max=0.02, v_steps=48,
                           mean_steps=32, search_points=3, search_restarts=24, seed=43)
        assert rep.delta > 0.0
        assert not rep.failure_at_threshold

    def test_alpha_zero_gives_zero_margin(self):
        rep = delta_search(0.0, delta_steps=40, delta_max=0.02, v_steps=24,
                           mean_steps=16, search_points=3, search_restarts=12, seed=47)
        assert rep.delta == 0.0
        assert rep.failure_at_threshold

    def test_alpha_one_reports_failure(self):
        rep = delta_search(1.0, delta_steps=40, delta_max=0.02, v_steps=24,
                           mean_steps=16, search_points=3, search_restarts=12, seed=53)
        assert rep.delta == 0.0
        assert rep.failure_at_threshold
        assert rep.binding_measure is not None

    def test_deterministic(self):
        kw = dict(delta_steps=40, delta_max=0.02, v_steps=24, mean_steps=16,
                  search_points=3, search_restarts=12, seed=59)
        assert delta_search(0.05, **kw) == delta_search(0.05, **kw)

    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [1, 43])
    def test_matches_per_measure_loop(self, alpha, seed):
        kw = dict(delta_steps=60, delta_max=0.02, v_steps=24, mean_steps=16,
                  search_points=3, search_restarts=12, seed=seed)
        assert delta_search(alpha, **kw) == delta_search_loop(alpha, **kw)

    # v_steps=2 gives three v columns, so a block of 7 cells holds two mean
    # rows; the grid has an odd number of rows, so the last block holds one
    BLOCK_KW = dict(delta_steps=40, delta_max=0.02, v_steps=2, mean_steps=14,
                    search_points=3, search_restarts=12, seed=61)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_blocks_give_the_bits_of_one_pass(self, alpha, monkeypatch):
        # the same report, and the same candidates in the same order: with
        # no tied slack in this grid, only the second shows the order
        calls = []
        real_class = uclab.coupling._two_atom_class
        monkeypatch.setattr(uclab.coupling, "_two_atom_class",
                            lambda v, w, a: calls.append((v, w)) or real_class(v, w, a))
        one_pass = delta_search(alpha, **self.BLOCK_KW)._asdict()
        assert len(calls) == 1
        (v, w), = calls
        rows = None
        for block in (1, 7, None):
            # None: one cell more than the grid holds, so one block again
            monkeypatch.setattr(uclab.coupling, "DELTA_BLOCK_CELLS", block or 3 * rows + 1)
            calls.clear()
            assert delta_search(alpha, **self.BLOCK_KW)._asdict() == one_pass
            for got, want in zip(map(np.concatenate, zip(*calls)), (v, w)):
                assert got.tobytes() == want.tobytes()
            if block == 1:
                rows = len(calls)
                assert rows % 2 == 1
            else:
                assert len(calls) == ((rows + 1) // 2 if block == 7 else 1)

    def test_empty_two_atom_class_is_scanned_as_no_candidate(self, monkeypatch):
        # the grid holds only the threshold, where v < mean never holds: the
        # scan is the point at the threshold and the search's measures
        kw = dict(delta_steps=1, v_steps=0, mean_steps=0, search_points=3,
                  search_restarts=12, seed=67)
        for block in (1, uclab.coupling.DELTA_BLOCK_CELLS):
            monkeypatch.setattr(uclab.coupling, "DELTA_BLOCK_CELLS", block)
            rep = delta_search(0.05, **kw)
            assert rep == delta_search_loop(0.05, **kw)
            assert rep.measures_scanned <= 1 + kw["search_points"] and rep.delta == 0.0

    def test_scan_never_holds_the_whole_grid(self):
        # 160,801 cells and 39,597 candidates with one search restart: the
        # one-pass scan peaked at 14.6 MiB here, the blocked one at 3.4 MiB,
        # most of it the four kept floats of each candidate, twice while
        # they are joined
        tracemalloc.start()
        try:
            rep = delta_search(0.05, v_steps=400, mean_steps=200, search_points=1,
                               search_restarts=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.measures_scanned == 39_597
        assert peak < 6 * 2**20

    def test_work_counters(self):
        kw = dict(delta_steps=10, v_steps=8, mean_steps=8, search_points=3,
                  search_restarts=2, seed=43)
        rep = delta_search(0.05, **kw)
        assert rep.lp_solves > 0
        assert rep.closed_form_couplings + rep.lp_solves == rep.measures_scanned
        plain = delta_search(0.0, **kw)
        assert (plain.closed_form_couplings, plain.lp_solves) == (0, 0)

    def test_lp_solves_are_the_transport_solves_run(self, monkeypatch):
        # at this seed the last search point's best measure has two atoms,
        # which the closed form couples: it is no LP solve
        sizes, solves = [], []
        real_value, real_lp = uclab.coupling.worst_coupling_value, uclab.coupling.linprog

        def value(mu):
            sizes.append(mu.size())
            return real_value(mu)

        monkeypatch.setattr(uclab.coupling, "worst_coupling_value", value)
        monkeypatch.setattr(uclab.coupling, "linprog",
                            lambda cost, w: solves.append(w.size) or real_lp(cost, w))
        rep = delta_search(0.05, delta_steps=10, v_steps=8, mean_steps=8, search_points=7,
                           search_restarts=14, seed=1)
        assert 2 in sizes and len(solves) > 0
        assert rep.lp_solves == len(solves)


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

    @pytest.mark.parametrize("literal_rates", [False, True])
    def test_joint_law_and_union_entropy_are_the_exact_ones(self, literal_rates):
        # every union-closed family on n <= 3 and 100 random ones up to n = 8;
        # on 3,000 random families the float masses missed the exact ones by
        # at most 5.6e-17 and the union entropy by 8.9e-16
        mpmath = pytest.importorskip("mpmath")
        families = [Family(n, tuple(s for s in range(1 << n) if code >> s & 1))
                    for n in (1, 2, 3) for code in map(int, filter_union_closed_codes(n))]
        rng, drawn = np.random.default_rng(1729), []
        while len(drawn) < 100:
            f = random_union_closed(rng, int(rng.integers(2, 9)))
            drawn += [f] if f.size() <= 64 else []
        for f in families + drawn:
            rep = greedy_coupling_dp(f, literal_rates=literal_rates)
            exact = coupling_dp_exact(f, literal_rates)
            assert [(int(a, 16), int(c, 16)) for a, c, _ in rep.joint] == sorted(exact)
            for a, c, p in rep.joint:
                assert abs(p - exact[int(a, 16), int(c, 16)]) <= 1e-15, (f, a, c)
            union = {}
            for (a, c), p in exact.items():
                union[a | c] = union.get(a | c, 0) + p
            with mpmath.workdps(30):
                probs = [mpmath.mpf(p.numerator) / p.denominator for p in union.values()]
                assert abs(rep.union_entropy + sum(p * mpmath.log(p) for p in probs)) <= 1e-14, f
