import math

import numpy as np
import pytest

from helpers import (
    brute_force_union_closed_count,
    entropy_chain_diagnostics,
    filter_union_closed_codes,
    random_union_closed,
    union_closure,
)
from uclab.families import (
    MAX_ENUMERATION_N,
    Family,
    _union_closed_family_codes,
    count_union_closed,
    is_union_closed,
    load_family,
    max_element_frequency,
    save_family,
    verify_frequency_threshold,
)
from uclab.scalars import GOLDEN_THRESHOLD


class TestFamilyType:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Family(2, ())

    def test_rejects_duplicates_and_disorder(self):
        with pytest.raises(ValueError):
            Family(2, (1, 1))
        with pytest.raises(ValueError):
            Family(2, (2, 1))

    def test_of_sorts_and_dedupes(self):
        f = Family.of(3, [5, 1, 5, 3])
        assert f.sets == (1, 3, 5)

    def test_rejects_out_of_range_masks(self):
        with pytest.raises(ValueError):
            Family(2, (4,))


class TestIsUnionClosed:
    def test_powerset(self):
        assert is_union_closed(Family.of(2, range(4)))

    def test_missing_union(self):
        assert not is_union_closed(Family.of(2, [0b01, 0b10]))

    def test_chain(self):
        assert is_union_closed(Family.of(2, [0b00, 0b01, 0b11]))

    def test_all_pairs_checked(self):
        # closed under self-union trivially; fails only through a real pair
        assert not is_union_closed(Family.of(3, [0b001, 0b010, 0b100, 0b111]))


class TestUnionClosure:
    def test_two_singletons(self):
        f = union_closure(Family.of(2, [0b01, 0b10]))
        assert f.sets == (1, 2, 3)

    def test_idempotent_on_closed(self):
        f = Family.of(2, (0, 1, 3))
        assert union_closure(f).sets == f.sets

    def test_three_singletons(self):
        f = union_closure(Family.of(3, [1, 2, 4]))
        assert f.sets == (1, 2, 3, 4, 5, 6, 7)

    def test_against_brute_force_fixpoint(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 5))
            masks = set(int(m) for m in rng.choice(1 << n, size=k, replace=False))
            closed = set(masks)
            while True:
                extra = {a | b for a in closed for b in closed} - closed
                if not extra:
                    break
                closed |= extra
            f = union_closure(Family.of(n, masks))
            assert set(f.sets) == closed
            assert is_union_closed(f)
            assert set(masks) <= set(f.sets)

    def test_closure_invariants_random(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            f = random_union_closed(rng, int(rng.integers(2, 7)))
            assert is_union_closed(f)
            assert union_closure(f).sets == f.sets


class TestMaxElementFrequency:
    def test_symmetric_powerset(self):
        rep = max_element_frequency(Family.of(2, range(4)))
        assert rep.best_proportion == 0.5
        assert rep.best_element == 1  # tie broken to the smallest element

    def test_full_set_only(self):
        rep = max_element_frequency(Family.of(3, [0b111]))
        assert rep.best_proportion == 1.0
        assert not rep.degenerate

    def test_empty_set_only_is_degenerate(self):
        rep = max_element_frequency(Family.of(3, [0]))
        assert rep.best_proportion == 0.0
        assert rep.degenerate

    def test_counts(self):
        rep = max_element_frequency(Family.of(2, [0b00, 0b01, 0b11]))
        assert rep.counts == (2, 1)
        assert rep.best_element == 1
        assert rep.best_proportion == pytest.approx(2.0 / 3.0)


def _families(n):
    """The families behind _union_closed_family_codes(n), decoded."""
    return [
        Family(n, tuple(s for s in range(1 << n) if (int(code) >> s) & 1))
        for code in _union_closed_family_codes(n)
    ]


class TestEnumeration:
    def test_n1_exactly_three_families(self):
        assert [f.sets for f in _families(1)] == [(0,), (1,), (0, 1)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_count_matches_brute_force(self, n):
        assert count_union_closed(n) == brute_force_union_closed_count(n)

    def test_all_yielded_families_are_union_closed(self):
        fams = _families(2)
        assert len({f.sets for f in fams}) == len(fams) == count_union_closed(2)
        assert all(is_union_closed(f) for f in fams)

    def test_canonical_order_is_strictly_increasing(self):
        codes = [sum(1 << s for s in f.sets) for f in _families(3)]
        assert codes == sorted(set(codes))

    def test_counts_are_twice_the_moore_families_less_one(self):
        # complements turn the union-closed families that hold the empty set
        # into the Moore families (intersection-closed, holding [n]): 2, 7,
        # 61, 2480; dropping the empty set from each but {empty set} gives
        # every nonempty union-closed family without it
        moore = {1: 2, 2: 7, 3: 61, 4: 2480}
        counts = {n: count_union_closed(n) for n in range(1, MAX_ENUMERATION_N + 1)}
        assert counts == {1: 3, 2: 13, 3: 121, 4: 4959}
        assert counts == {n: 2 * m - 1 for n, m in moore.items()}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_constructed_codes_equal_the_filter(self, n):
        codes = _union_closed_family_codes(n)
        assert codes.dtype == np.uint32
        assert codes.tolist() == filter_union_closed_codes(n).tolist()


class TestFrequencyScan:
    def test_n2(self):
        rep = verify_frequency_threshold(2)
        assert rep.min_best_proportion == 0.5
        assert rep.passed
        assert rep.degenerate_excluded == 1
        assert max_element_frequency(rep.witness).best_proportion == 0.5

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_minimum_is_half(self, n):
        rep = verify_frequency_threshold(n)
        assert rep.min_best_proportion >= 0.5
        assert rep.min_best_proportion >= GOLDEN_THRESHOLD
        assert rep.families_checked == count_union_closed(n) - 1

    def test_witness_attains_minimum(self):
        rep = verify_frequency_threshold(3)
        assert max_element_frequency(rep.witness).best_proportion == pytest.approx(
            rep.min_best_proportion
        )


class TestEntropyDiagnostics:
    def test_powerset(self):
        diag = entropy_chain_diagnostics(Family.of(3, range(8)))
        assert diag.entropy == pytest.approx(math.log(8.0), abs=1e-12)
        assert diag.union_entropy < diag.entropy
        assert diag.entropy_drop_ok
        assert diag.min_step_slack >= -1e-9

    def test_single_full_set(self):
        diag = entropy_chain_diagnostics(Family.of(2, [0b11]))
        assert diag.entropy == 0.0
        assert diag.union_entropy == pytest.approx(0.0, abs=1e-14)
        assert diag.skipped_elements == (1, 2)

    def test_chain_family(self):
        diag = entropy_chain_diagnostics(Family.of(2, [0b00, 0b01, 0b11]))
        assert diag.entropy == pytest.approx(math.log(3.0), abs=1e-12)
        assert diag.union_entropy <= diag.entropy + 1e-12

    def test_rejects_non_union_closed(self):
        with pytest.raises(ValueError):
            entropy_chain_diagnostics(Family.of(2, [1, 2]))

    def test_random_families_union_never_gains_entropy(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            f = random_union_closed(rng, int(rng.integers(2, 9)))
            diag = entropy_chain_diagnostics(f)
            assert diag.entropy_drop_ok

    def test_random_families_step_slacks(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            f = random_union_closed(rng, int(rng.integers(2, 7)))
            diag = entropy_chain_diagnostics(f)
            assert diag.min_step_slack >= -1e-9


class TestFamilyIO:
    def test_round_trip(self, tmp_path):
        f = Family.of(3, [2, 3, 4, 6, 7])
        path = tmp_path / "fam.txt"
        save_family(f, path)
        assert load_family(path).sets == f.sets

    def test_huge_header_n_is_range_checked_without_building_2_to_the_n(self, tmp_path):
        # 1 << n for this n raises OverflowError; the check shifts the masks right
        n = 10**30
        path = tmp_path / "fam.txt"
        path.write_text(f"n={n}\n0\nff\n", encoding="ascii")
        assert load_family(path) == Family(n, (0, 0xFF))
        with pytest.raises(ValueError, match="out of range"):
            Family(3, (0, 8))
        with pytest.raises(ValueError, match="out of range"):
            Family(3, (-1, 0))

    def test_format(self, tmp_path):
        path = tmp_path / "fam.txt"
        save_family(Family.of(4, [0xA, 0x1]), path)
        assert path.read_text() == "n=4\n1\na\n"
