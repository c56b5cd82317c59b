"""Union-closed families of subsets of a small ground set.

A family is a nonempty collection of distinct subset masks.  This module
checks union-closedness, counts every union-closed family on ground sets
of up to four elements (4,959 of them at n = 4), scans them for the most
frequent element against the golden threshold, and reads and writes the
family files that `coupling dp` takes.

The scan encodes a family as an integer whose bit s indicates that
subset-mask s is a member; families come in increasing order of that
encoding, which fixes a canonical, reproducible order.  They are built
mask by mask rather than filtered out of all 2^(2^n) codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalars import GOLDEN_THRESHOLD
from .setdist import _read_records, _write_records

MAX_ENUMERATION_N = 4


@dataclass(frozen=True)
class Family:
    """Nonempty family of distinct subsets of [n], stored as sorted masks."""

    n: int
    sets: tuple

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")
        sets = tuple(int(s) for s in self.sets)
        if not sets:
            raise ValueError("family must be nonempty")
        # a shift right, not 1 << n: a file header may carry any n
        if any(s < 0 or s >> self.n for s in sets):
            raise ValueError("set masks out of range")
        if any(a >= b for a, b in zip(sets, sets[1:])):
            raise ValueError("set masks must be strictly increasing")
        object.__setattr__(self, "sets", sets)

    @classmethod
    def of(cls, n: int, masks) -> "Family":
        return cls(n, tuple(sorted(set(int(m) for m in masks))))

    def size(self) -> int:
        return len(self.sets)


def is_union_closed(f: Family) -> bool:
    """True iff the union of every pair of members is again a member."""
    members = set(f.sets)
    sets = f.sets
    for i, a in enumerate(sets):
        for b in sets[i:]:
            if (a | b) not in members:
                return False
    return True


@dataclass(frozen=True)
class FrequencyReport:
    """Per-element membership counts plus the most frequent element."""

    counts: tuple
    best_element: int
    best_proportion: float
    degenerate: bool


def max_element_frequency(f: Family) -> FrequencyReport:
    """Count how many member sets contain each element; ties go to the
    smallest element index.  A family whose only member is the empty set
    has best proportion 0 and is flagged degenerate."""
    counts = [0] * f.n
    for s in f.sets:
        for i in range(f.n):
            if (s >> i) & 1:
                counts[i] += 1
    best_idx = max(range(f.n), key=lambda i: (counts[i], -i))
    best = counts[best_idx] / len(f.sets)
    return FrequencyReport(
        counts=tuple(counts),
        best_element=best_idx + 1,
        best_proportion=best,
        degenerate=max(counts) == 0,
    )


def _union_closed_family_codes(n: int) -> np.ndarray:
    """All nonempty union-closed families on [n], as increasing bit codes.

    Built by deciding the masks s = 2^n - 1, ..., 0 in turn, keeping every
    union-closed family of the decided masks: s may join a family when s|t
    is present for every present t, and s|t >= t > s is already decided.
    Each family is built exactly once.
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"exhaustive enumeration needs 1 <= n <= {MAX_ENUMERATION_N}, got {n}")
    p = 1 << n
    codes = np.zeros(1, dtype=np.uint32)
    for s in range(p - 1, -1, -1):
        ok = np.ones(codes.size, dtype=bool)
        for t in range(s + 1, p):
            if s | t != t:
                ok &= ((codes >> t) & 1 == 0) | ((codes >> (s | t)) & 1 == 1)
        codes = np.concatenate([codes, codes[ok] | np.uint32(1 << s)])
    return np.sort(codes[1:])


def count_union_closed(n: int) -> int:
    return int(_union_closed_family_codes(n).size)


@dataclass(frozen=True)
class FrequencyScanReport:
    """Exhaustive minimum of the best element proportion over all
    nonempty union-closed families on [n] (the all-{empty-set} family is
    excluded and counted separately)."""

    n: int
    families_checked: int
    degenerate_excluded: int
    min_best_proportion: float
    witness: Family
    threshold: float
    passed: bool


def verify_frequency_threshold(n: int) -> FrequencyScanReport:
    """Scan every nonempty union-closed family on [n] and verify that some
    element appears in at least a golden-threshold proportion of the sets.

    The family {empty set} is excluded: no element appears at all there, so
    the claim fails vacuously for it; it is reported, not scanned.
    """
    codes = _union_closed_family_codes(n)
    p = 1 << n
    sizes = np.bitwise_count(codes).astype(np.int64)
    best = np.zeros(codes.size, dtype=np.int64)
    for i in range(n):
        elem_mask = np.uint32(sum(1 << s for s in range(p) if (s >> i) & 1))
        best = np.maximum(best, np.bitwise_count(codes & elem_mask).astype(np.int64))
    degenerate = codes == 1  # the family containing only the empty set
    keep = ~degenerate
    props = best[keep] / sizes[keep]
    idx = int(np.argmin(props))
    witness_code = int(codes[keep][idx])
    witness = Family(n, tuple(s for s in range(p) if (witness_code >> s) & 1))
    min_prop = float(props[idx])
    return FrequencyScanReport(
        n=n,
        families_checked=int(keep.sum()),
        degenerate_excluded=int(degenerate.sum()),
        min_best_proportion=min_prop,
        witness=witness,
        threshold=GOLDEN_THRESHOLD,
        passed=min_prop >= GOLDEN_THRESHOLD,
    )


def save_family(f: Family, path) -> None:
    """Write `n=<int>` then one hex mask per line."""
    _write_records(path, f.n, (f"{s:x}" for s in f.sets))


def load_family(path) -> Family:
    n, records = _read_records(path, "family", 1)
    masks = [int(s, 16) for (s,) in records]
    if len(set(masks)) < len(masks):
        raise ValueError("bad family line: a mask is listed twice")
    return Family.of(n, masks)
