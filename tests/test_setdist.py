import math

import numpy as np
import pytest

from helpers import (
    chain_profile,
    chain_profile_loop,
    conditional_loop,
    marginal_loop,
    marginal_slice,
    naive_union_table,
    random_explicit,
    union_check_loop,
)
from uclab.families import Family, load_family, save_family
from uclab.scalars import GOLDEN_THRESHOLD, binary_entropy, union_prob
from uclab.setdist import (
    ExplicitSetDistribution,
    ProductMixture,
    expand_mixture,
    golden_threshold_mixture,
    kl_divergence,
    load_distribution,
    load_mixture,
    mixture_entropy_bounds,
    product_bernoulli,
    product_tables,
    save_distribution,
    save_mixture,
    union_entropy_check,
    union_entropy_rows,
    union_of_independent,
)
from uclab.setdist import _marginal_rows, _subset_transform


class TestConstruction:
    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            ExplicitSetDistribution(1, np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ExplicitSetDistribution(1, np.array([-0.1, 1.1]))

    @pytest.mark.parametrize("mask", [-1, 4, 5])
    def test_from_mapping_rejects_out_of_range_mask(self, mask):
        with pytest.raises(ValueError, match=f"^mask {mask:#x} out of range for n=2$"):
            ExplicitSetDistribution.from_mapping(2, {mask: 1.0})

    def test_probs_are_read_only(self):
        d = product_bernoulli(3, 0.4)
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestEntropy:
    def test_uniform_on_four_masks(self):
        d = ExplicitSetDistribution.uniform_on(3, [0, 1, 4, 7])
        assert d.entropy() == pytest.approx(math.log(4.0), abs=1e-14)

    def test_point_mass(self):
        assert ExplicitSetDistribution.from_mapping(3, {5: 1.0}).entropy() == 0.0

    def test_two_point(self):
        d = ExplicitSetDistribution.from_mapping(1, {0: 0.25, 1: 0.75})
        assert d.entropy() == pytest.approx(binary_entropy(0.25), abs=1e-14)

    def test_product_entropy_is_n_times_binary(self):
        for u in (0.1, 0.3819660112501051, 0.7):
            d = product_bernoulli(5, u)
            assert d.entropy() == pytest.approx(5.0 * binary_entropy(u), abs=1e-12)


class TestMarginals:
    def test_product_marginals(self):
        d = product_bernoulli(3, 0.2)
        assert np.abs(d.marginals() - 0.2).max() <= 1e-14

    def test_uniform_powerset(self):
        d = ExplicitSetDistribution.uniform_on(2, [0, 1, 2, 3])
        assert d.marginals()[0] == pytest.approx(0.5, abs=1e-15)

    def test_chain_family(self):
        d = ExplicitSetDistribution.uniform_on(2, [0b00, 0b01, 0b11])
        assert d.marginals()[0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_marginals_have_the_bits_of_marginal(self):
        # up to n = 16: rows of 2^15 entries, past numpy's 8192-element buffers
        rng = np.random.default_rng(47)
        for n in (1, 2, 3, 5, 8, 11, 16):
            ds = [random_explicit(rng, n) for _ in range(3)]
            rows = _marginal_rows(np.stack([d.probs for d in ds]), n)
            for d, row in zip(ds, rows):
                each = [marginal_slice(d, i) for i in range(1, n + 1)]
                assert d.marginals().tolist() == each
                assert row.tolist() == each


class TestUnionOfIndependent:
    def test_point_mass_identity(self):
        rng = np.random.default_rng(1)
        d = random_explicit(rng, 4)
        e = ExplicitSetDistribution.from_mapping(4, {0: 1.0})
        out = union_of_independent(d, e)
        assert np.allclose(out.probs, d.probs, atol=1e-14)

    def test_two_mask_square(self):
        d = ExplicitSetDistribution.uniform_on(1, [0, 1])
        out = union_of_independent(d, d)
        assert out.probs[0] == pytest.approx(0.25, abs=1e-15)
        assert out.probs[1] == pytest.approx(0.75, abs=1e-15)

    def test_product_becomes_product_of_union_prob(self):
        u = 0.3
        d = product_bernoulli(4, u)
        out = union_of_independent(d, d)
        expect = product_bernoulli(4, union_prob(u, u))
        assert np.abs(out.probs - expect.probs).max() < 1e-13

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            d1 = random_explicit(rng, n)
            d2 = random_explicit(rng, n)
            fast = union_of_independent(d1, d2)
            slow = naive_union_table(d1, d2)
            assert np.abs(fast.probs - slow).max() < 1e-12

    def test_commutative_and_marginal_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            d1 = random_explicit(rng, n)
            d2 = random_explicit(rng, n)
            u12 = union_of_independent(d1, d2)
            u21 = union_of_independent(d2, d1)
            assert np.abs(u12.probs - u21.probs).max() < 1e-12
            expect = union_prob(d1.marginals(), d2.marginals())
            assert np.abs(u12.marginals() - expect).max() <= 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            union_of_independent(product_bernoulli(2, 0.5), product_bernoulli(3, 0.5))


class TestSubsetTransform:
    def test_zeta_is_subset_sum_and_mobius_inverts_it(self):
        rng = np.random.default_rng(37)
        for n in range(1, 7):
            v = rng.normal(size=1 << n)
            zeta = _subset_transform(v, n, np.add)
            for s in range(1 << n):
                expect = sum(v[t] for t in range(1 << n) if t & s == t)
                assert zeta[s] == pytest.approx(expect, abs=1e-12)
            assert np.abs(_subset_transform(zeta, n, np.subtract) - v).max() < 1e-12


class TestKL:
    def test_self_is_zero(self):
        rng = np.random.default_rng(3)
        d = random_explicit(rng, 5)
        assert kl_divergence(d, d) == 0.0

    def test_point_vs_uniform(self):
        p = ExplicitSetDistribution.from_mapping(2, {1: 1.0})
        q = ExplicitSetDistribution.uniform_on(2, [0, 1])
        assert kl_divergence(p, q) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_support_escape_is_infinite(self):
        p = ExplicitSetDistribution.from_mapping(2, {2: 1.0})
        q = ExplicitSetDistribution.uniform_on(2, [0, 1])
        assert kl_divergence(p, q) == float("inf")

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            p = random_explicit(rng, n, support=1 << n)
            q = random_explicit(rng, n, support=1 << n)
            kl = kl_divergence(p, q)
            assert kl >= 0.0
            if kl == 0.0:
                assert np.abs(p.probs - q.probs).max() < 1e-9


class TestConditionalAndChain:
    def test_chain_profile_example(self):
        d = ExplicitSetDistribution.uniform_on(2, [0b00, 0b01, 0b11])
        prof = chain_profile(d)
        assert prof[0] == pytest.approx(binary_entropy(2.0 / 3.0), abs=1e-14)
        assert prof[1] == pytest.approx((2.0 / 3.0) * binary_entropy(0.5), abs=1e-14)
        assert prof.sum() == pytest.approx(math.log(3.0), abs=1e-12)

    def test_chain_product_is_constant(self):
        d = product_bernoulli(5, 0.3)
        prof = chain_profile(d)
        assert np.abs(prof - binary_entropy(0.3)).max() < 1e-12

    def test_chain_point_mass_is_zero(self):
        d = ExplicitSetDistribution.from_mapping(4, {0b1010: 1.0})
        assert np.abs(chain_profile(d)).max() == 0.0

    def test_chain_sums_to_entropy(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            d = random_explicit(rng, n)
            assert chain_profile(d).sum() == pytest.approx(d.entropy(), abs=1e-10)

    def test_kernels_match_mask_loops(self):
        rng = np.random.default_rng(43)
        for n in range(1, 9):
            for _ in range(3):
                d = random_explicit(rng, n)
                for i in range(1, n + 1):
                    assert d.marginals()[i - 1] == pytest.approx(marginal_loop(d, i), abs=1e-12)
                assert np.abs(chain_profile(d) - chain_profile_loop(d)).max() < 1e-12

    def test_data_processing_step(self):
        # conditioning the union on both prefixes can only lower the
        # conditional entropy below conditioning on the union prefix alone
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            d = random_explicit(rng, n)
            e = random_explicit(rng, n)
            union_prof = chain_profile(union_of_independent(d, e))
            for i in range(1, n + 1):
                low = (1 << (i - 1)) - 1
                ms = np.arange(1 << n)
                both = 0.0
                for pa in range(1 << (i - 1)):
                    mass_a = d.probs[(ms & low) == pa].sum()
                    if mass_a <= 0:
                        continue
                    ra = conditional_loop(d, i, pa)
                    for pb in range(1 << (i - 1)):
                        mass_b = e.probs[(ms & low) == pb].sum()
                        if mass_b <= 0:
                            continue
                        rb = conditional_loop(e, i, pb)
                        both += mass_a * mass_b * binary_entropy(union_prob(ra, rb))
                assert both <= union_prof[i - 1] + 1e-10


class TestMixtures:
    def test_single_component_bounds_collapse(self):
        m = ProductMixture(10, ((1.0, 0.3),))
        lo, hi = mixture_entropy_bounds(m)
        assert lo == hi == pytest.approx(10.0 * binary_entropy(0.3), abs=1e-12)

    def test_two_component_width_at_most_log2(self):
        m = ProductMixture(6, ((0.4, 0.2), (0.6, 0.9)))
        lo, hi = mixture_entropy_bounds(m)
        assert 0.0 < hi - lo <= math.log(2.0) + 1e-15

    def test_bounds_bracket_exact_entropy(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 5))
            ws = rng.dirichlet(np.ones(k))
            rs = rng.uniform(0.05, 0.95, size=k)
            m = ProductMixture(n, tuple(zip(ws, rs)))
            lo, hi = mixture_entropy_bounds(m)
            h = expand_mixture(m).entropy()
            assert lo - 1e-10 <= h <= hi + 1e-10

    def test_marginal(self):
        m = ProductMixture(4, ((0.5, 0.2), (0.5, 0.6)))
        assert np.dot(m.weights(), m.inclusions()) == pytest.approx(0.4, abs=1e-15)
        assert expand_mixture(m).marginals()[1] == pytest.approx(0.4, abs=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            ProductMixture(3, ((0.5, 0.2), (0.4, 0.6)))


class TestGoldenMixture:
    def test_boundary_collapses_to_product(self):
        m = golden_threshold_mixture(GOLDEN_THRESHOLD, 6)
        ws = m.weights()
        assert ws[0] == pytest.approx(1.0, abs=1e-12)
        assert m.inclusions()[0] == GOLDEN_THRESHOLD

    def test_u_one_is_full_set(self):
        m = golden_threshold_mixture(1.0, 6)
        assert m.weights()[0] == pytest.approx(0.0, abs=1e-15)
        d = expand_mixture(m)
        assert d.probs[-1] == pytest.approx(1.0, abs=1e-15)

    def test_marginal_is_exactly_u(self):
        for u in (0.4, 0.5, 0.8):
            m = golden_threshold_mixture(u, 9)
            assert np.dot(m.weights(), m.inclusions()) == pytest.approx(u, abs=1e-12)

    def test_rejects_below_threshold(self):
        with pytest.raises(ValueError):
            golden_threshold_mixture(0.3, 5)


class TestUnionEntropyCheck:
    def test_product_below_threshold_is_tight(self):
        for u in (0.05, 0.2, 0.3819660112501051):
            rep = union_entropy_check(product_bernoulli(6, u))
            assert abs(rep.slack) < 1e-10

    def test_random_tables_nonnegative_slack(self):
        rng = np.random.default_rng(29)
        worst = np.inf
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 8))
            d = random_explicit(rng, n)
            if not 0.0 < d.marginals().max() < 1.0:
                continue
            rep = union_entropy_check(d)
            worst = min(worst, rep.slack)
            checked += 1
        assert checked > 150
        assert worst >= -1e-10

    def test_mixture_above_threshold_slack_is_o_of_n(self):
        u = 0.5
        slacks = {}
        for n in (8, 12):
            d = expand_mixture(golden_threshold_mixture(u, n))
            rep = union_entropy_check(d)
            assert rep.max_marginal == pytest.approx(u, abs=1e-9)
            assert rep.slack >= -1e-10
            slacks[n] = rep.slack
        assert slacks[12] < slacks[8] + math.log(2.0)  # bounded, not growing with n

    def test_uniform_union_closed_never_beats_entropy(self):
        d = ExplicitSetDistribution.uniform_on(3, [0, 1, 3, 7])
        lhs = union_of_independent(d, d).entropy()
        assert lhs <= d.entropy() + 1e-12

    @pytest.mark.parametrize("mask, u", [(0b11, 1.0), (0, 0.0)])
    def test_rejects_degenerate_marginals(self, mask, u):
        # the maximum marginal is computed, so it is refused after that work
        d = ExplicitSetDistribution.from_mapping(2, {mask: 1.0})
        with pytest.raises(ValueError) as exc:
            union_entropy_check(d)
        assert str(exc.value) == f"maximum marginal must lie strictly inside (0, 1), got {u}"

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
    def test_stack_rows_have_the_bits_of_each_table(self, n):
        rng = np.random.default_rng(53 + n)
        ds = [random_explicit(rng, n) for _ in range(6)]
        ds.insert(2, ExplicitSetDistribution.from_mapping(n, {(1 << n) - 1: 1.0}))
        ds.append(ExplicitSetDistribution.from_mapping(n, {0: 1.0}))
        cols = union_entropy_rows(np.stack([d.probs for d in ds]), n)
        for j, d in enumerate(ds):
            got = [float(col[j]) for col in cols]
            expect = union_check_loop(d)
            if expect is None:
                assert got[0] == max(marginal_slice(d, i) for i in range(1, n + 1))
                assert all(math.isnan(x) for x in got[1:])
            else:
                assert got == [expect.max_marginal, expect.lhs, expect.rhs, expect.slack,
                               expect.ratio_bound]
                assert union_entropy_check(d) == expect

    def test_stack_rows_are_checked_like_tables(self):
        good = product_bernoulli(3, 0.3).probs
        for bad, message in ((np.nan, "finite"), (-0.25, "nonnegative"), (0.5, "sum to 1")):
            stack = np.stack([good, good])
            stack[1, 0] = bad
            with pytest.raises(ValueError, match=message):
                union_entropy_rows(stack, 3)

    def test_product_tables_stack_the_product_tables(self):
        us = np.linspace(0.0, 1.0, 9)
        stack = product_tables(5, us)
        assert stack.shape == (9, 32)
        for u, row in zip(us, stack):
            assert row.tolist() == product_bernoulli(5, float(u)).probs.tolist()


class TestSerialization:
    def test_distribution_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        d = random_explicit(rng, 5)
        path = tmp_path / "dist.txt"
        save_distribution(d, path)
        back = load_distribution(path)
        assert back.n == d.n
        assert np.abs(back.probs - d.probs).max() == 0.0

    def test_mixture_round_trip(self, tmp_path):
        m = golden_threshold_mixture(0.5, 7)
        path = tmp_path / "mix.txt"
        save_mixture(m, path)
        back = load_mixture(path)
        assert back.n == m.n
        assert back.components == m.components

    def test_format_shape(self, tmp_path):
        d = ExplicitSetDistribution.from_mapping(4, {0xA: 0.25, 0x0: 0.75})
        path = tmp_path / "dist.txt"
        save_distribution(d, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n=4"
        assert lines[1].split() == ["0", "0.75"]
        assert lines[2].split()[0] == "a"

    # the bytes each format had when every format had its own writer
    @pytest.mark.parametrize(
        "save, load, obj, text",
        [
            (save_distribution, load_distribution,
             ExplicitSetDistribution.from_mapping(5, {0x13: 0.25, 0x0: 0.125, 0x1F: 0.625}),
             "n=5\n0 0.125\n13 0.25\n1f 0.625\n"),
            (save_mixture, load_mixture, ProductMixture(3, ((0.1, 0.5), (0.9, 1.0))),
             "n=3\n0.10000000000000001 0.5\n0.90000000000000002 1\n"),
            (save_family, load_family, Family.of(4, [0xA, 0x1, 0x0]), "n=4\n0\n1\na\n"),
        ],
    )
    def test_each_format_round_trips_with_its_bytes(self, save, load, obj, text, tmp_path):
        path = tmp_path / "records.txt"
        save(obj, path)
        assert path.read_bytes() == text.encode("ascii")
        back = load(path)
        if isinstance(obj, ExplicitSetDistribution):
            assert back.n == obj.n and np.array_equal(back.probs, obj.probs)
        else:
            assert back == obj
        save(back, path)
        assert path.read_bytes() == text.encode("ascii")

    @pytest.mark.parametrize(
        "load, text, message",
        [
            (load_distribution, "n=2\n0 0.5\n1 0.25\n0 0.25\n",
             "bad distribution line: a mask is listed twice"),
            (load_family, "n=2\n1\n3\n1\n", "bad family line: a mask is listed twice"),
            (load_distribution, "n=2\n0 0.5 1\n", "bad distribution line: '0 0.5 1'"),
            (load_mixture, "n=2\n1.0\n", "bad mixture line: '1.0'"),
            (load_family, "n=2\n1 3\n", "bad family line: '1 3'"),
            (load_mixture, "\n\n", "mixture file must start with an n=<int> header"),
            (load_family, "1\n", "family file must start with an n=<int> header"),
        ],
    )
    def test_load_names_the_bad_line(self, load, text, message, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="ascii")
        with pytest.raises(ValueError) as exc:
            load(path)
        assert str(exc.value) == message

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1.0\n")
        with pytest.raises(ValueError):
            load_distribution(path)
