"""Union-closed families of subsets of a small ground set.

A family is a nonempty collection of distinct subset masks.  This module
checks union-closedness, computes union closures, enumerates every
union-closed family on ground sets of up to four elements (4,959 of them
at n = 4), finds the most frequent element, and runs the entropy
diagnostics that connect families to set distributions: for A, B
independent uniform samples from a union-closed F, the union A u B stays
inside F, so H(A u B) <= log|F| = H(A).

Enumeration encodes a family as an integer whose bit s indicates that
subset-mask s is a member; families are produced in increasing order of
that encoding, which fixes a canonical, reproducible stream.  They are
built mask by mask rather than filtered out of all 2^(2^n) codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .scalars import GOLDEN_THRESHOLD, entropy_ratio_bound
from .setdist import ExplicitSetDistribution, _read_records, _write_records, union_of_independent

MAX_ENUMERATION_N = 4
MARGINAL_ONE_TOL = 1e-12


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


def union_closure(f: Family) -> Family:
    """Smallest union-closed family containing f (idempotent, monotone)."""
    closed = set(f.sets)
    frontier = list(closed)
    while frontier:
        fresh = []
        for a in frontier:
            for b in closed.copy():
                u = a | b
                if u not in closed:
                    closed.add(u)
                    fresh.append(u)
        frontier = fresh
    return Family.of(f.n, closed)


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


def enumerate_union_closed(n: int) -> Iterator[Family]:
    """Yield every nonempty union-closed family on [n] exactly once,
    ordered by the integer encoding of the membership bit vector."""
    for code in _union_closed_family_codes(n):
        masks = [s for s in range(1 << n) if (int(code) >> s) & 1]
        yield Family(n, tuple(masks))


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


@dataclass(frozen=True)
class EntropyDiagnostics:
    """Entropy comparison for uniform independent samples from a
    union-closed family, with the per-element chain decomposition."""

    family_size: int
    entropy: float
    union_entropy: float
    entropy_drop_ok: bool
    max_marginal: float
    ratio_bound: float
    step_slacks: tuple
    skipped_elements: tuple
    min_step_slack: float


def entropy_chain_diagnostics(f: Family, tol: float = 1e-9) -> EntropyDiagnostics:
    """Exact entropy diagnostics for a union-closed family (n <= 12).

    Builds the uniform distribution on f, checks that the union of two
    independent samples cannot beat the uniform entropy log|F|, and
    decomposes both entropies element by element, reporting the slack of
    the per-step inequality

        H(union chain step) >= bound(u) * H(single-sample chain step)

    with u the largest marginal below 1.  Elements contained in every
    member are skipped: both chain entries vanish there and the bound
    factor degenerates.
    """
    if f.n > 12:
        raise ValueError("entropy diagnostics are limited to n <= 12")
    if not is_union_closed(f):
        raise ValueError("family is not union-closed")
    d = ExplicitSetDistribution.uniform_on(f.n, f.sets)
    u_dist = union_of_independent(d, d)
    h_a = d.entropy()
    h_u = u_dist.entropy()
    marg = d.marginals()
    active = [i for i in range(f.n) if marg[i] < 1.0 - MARGINAL_ONE_TOL]
    skipped = tuple(i + 1 for i in range(f.n) if i not in active)
    if active and max(marg[active]) > 0.0:
        u = float(max(marg[active]))
        lam = entropy_ratio_bound(u)
        chain_a = d.chain_profile()
        chain_u = u_dist.chain_profile()
        slacks = tuple(float(chain_u[i] - lam * chain_a[i]) for i in active)
    else:
        u = 0.0 if not active else float(max(marg[active]))
        lam = float("nan")
        slacks = ()
    return EntropyDiagnostics(
        family_size=f.size(),
        entropy=h_a,
        union_entropy=h_u,
        entropy_drop_ok=h_u <= h_a + 1e-12,
        max_marginal=u if active else 1.0,
        ratio_bound=lam,
        step_slacks=slacks,
        skipped_elements=skipped,
        min_step_slack=min(slacks) if slacks else 0.0,
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
