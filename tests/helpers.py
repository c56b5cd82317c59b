"""Shared builders and independent oracles used across the test modules.

The oracles here deliberately avoid the library's fast paths: the union
convolution is the quadratic double loop over support pairs, entropies are
summed directly, the table kernels (marginal, conditional, chain profile)
are plain loops over every mask, union-closed families come from a
plain fixpoint closure, and the delta search is the one-measure-at-a-time
loop.  Anything the library computes cleverly is checked against these.
"""

import math

import numpy as np

from uclab.coupling import (
    DeltaSearchReport,
    _measure_summary,
    improved_slack,
    worst_coupling_value,
)
from uclab.families import Family, union_closure
from uclab.measures import DiscreteMeasure, local_search_min
from uclab.scalars import GOLDEN_THRESHOLD, binary_entropy
from uclab.setdist import ExplicitSetDistribution


def random_explicit(rng, n, support=None):
    """Random distribution on subsets of [n] with Dirichlet weights."""
    total = 1 << n
    if support is None:
        support = int(rng.integers(2, total + 1))
    masks = rng.choice(total, size=support, replace=False)
    probs = rng.dirichlet(np.ones(support))
    return ExplicitSetDistribution.from_mapping(
        n, {int(m): float(p) for m, p in zip(masks, probs)}
    )


def naive_union_table(d1, d2):
    """Quadratic-time union convolution: the oracle for the transform path."""
    out = np.zeros_like(d1.probs)
    for a in range(out.size):
        pa = d1.probs[a]
        if pa == 0.0:
            continue
        for b in range(out.size):
            out[a | b] += pa * d2.probs[b]
    return out


def entropy_direct(probs):
    probs = np.asarray(probs)
    pos = probs[probs > 0]
    return float(-(pos * np.log(pos)).sum())


def _has(mask, elem):
    return (mask >> (elem - 1)) & 1 == 1


def _h(r):
    return -sum(x * math.log(x) for x in (r, 1.0 - r) if x > 0.0)


def product_table(rates):
    """Table where element e enters independently with probability rates[e-1]."""
    n = len(rates)
    return np.array([
        math.prod(r if _has(m, e) else 1.0 - r for e, r in enumerate(rates, start=1))
        for m in range(1 << n)
    ])


def marginal_loop(d, i):
    return sum(float(d.probs[m]) for m in range(1 << d.n) if _has(m, i))


def conditional_loop(d, i, prefix):
    """Pr[i in A | A restricted to [i-1] equals prefix], or None on a null prefix."""
    low = (1 << (i - 1)) - 1
    match = [m for m in range(1 << d.n) if m & low == prefix]
    denom = sum(float(d.probs[m]) for m in match)
    if denom == 0.0:
        return None
    return sum(float(d.probs[m]) for m in match if _has(m, i)) / denom


def chain_profile_loop(d, order=None):
    """Entry k: average over the values of the earlier elements of the
    binary entropy of element order[k]'s conditional inclusion rate."""
    order = list(order) if order is not None else list(range(1, d.n + 1))
    out = []
    for k, elem in enumerate(order):
        groups = {}
        for m in range(1 << d.n):
            key = tuple(_has(m, e) for e in order[:k])
            tot_win = groups.setdefault(key, [0.0, 0.0])
            tot_win[0] += float(d.probs[m])
            if _has(m, elem):
                tot_win[1] += float(d.probs[m])
        out.append(sum(tot * _h(win / tot) for tot, win in groups.values() if tot > 0.0))
    return np.array(out)


def random_union_closed(rng, n, max_generators=4):
    """Union closure of a few random masks: a generic union-closed family."""
    k = int(rng.integers(1, max_generators + 1))
    masks = rng.choice(1 << n, size=k, replace=False)
    return union_closure(Family.of(n, [int(m) for m in masks]))


def brute_force_union_closed_count(n):
    """Second, direct implementation of the exhaustive family count."""
    total = 1 << n
    count = 0
    for code in range(1, 1 << total):
        members = [s for s in range(total) if (code >> s) & 1]
        ok = all((a | b) in set(members) for a in members for b in members)
        if ok:
            count += 1
    return count


def delta_search_loop(alpha, u_cap_steps=200, delta_max=0.02, v_steps=96, mean_steps=64,
                      mean_margin=0.03, search_points=7, search_restarts=112,
                      atom_grid=400, seed=1729):
    """delta_search as a loop: one DiscreteMeasure and one improved_slack
    call per candidate, and one worst_coupling_value call per LP-sized
    measure for the counters."""
    u_star = GOLDEN_THRESHOLD
    candidates = []
    vs = np.unique(np.append(np.linspace(0.005, 0.995, v_steps), u_star))
    step = delta_max / u_cap_steps
    band = min(0.006, delta_max)
    means = np.unique(np.concatenate([
        np.linspace(u_star - mean_margin, u_star + delta_max, mean_steps),
        u_star + np.arange(0.0, band + 0.5 * step, step),
    ]))
    for mean in means:
        for v in vs:
            if v >= mean:
                continue
            w = (1.0 - mean) / (1.0 - v)
            if not 0.0 < w <= 1.0:
                continue
            candidates.append(DiscreteMeasure.two_atom(float(v), float(w)))
    candidates.append(DiscreteMeasure.point(u_star))
    search_us = np.linspace(u_star - 0.01, u_star + delta_max, search_points)
    per = max(1, search_restarts // search_points)
    for k, su in enumerate(search_us):
        rep = local_search_min(float(su), 1.0, atom_grid=atom_grid, restarts=per,
                               seed=seed + 7919 * k)
        candidates.append(rep.best_measure)
    candidates = [
        mu for mu in candidates
        if float(np.dot(mu.weights, binary_entropy(mu.locations))) > 1e-12
    ]
    slacks = [improved_slack(mu, alpha) for mu in candidates]
    lp = [mu for mu in candidates if mu.size() > 2] if alpha > 0.0 else []

    cutoff = 1e-12
    violating = [(mu, s) for mu, s in zip(candidates, slacks) if s <= cutoff]
    min_idx = int(np.argmin(slacks))
    failure = any(mu.mean() <= u_star + cutoff for mu, _ in violating)
    if failure:
        delta = 0.0
    elif violating:
        excess = min(mu.mean() - u_star for mu, _ in violating)
        delta = max(0.0, step * int(np.floor((excess - 1e-15) / step)))
    else:
        delta = delta_max
    binding = None
    if violating:
        binding = _measure_summary(*min(violating, key=lambda t: t[0].mean()))
    return DeltaSearchReport(
        alpha=float(alpha),
        delta=float(delta),
        delta_max=float(delta_max),
        delta_steps=int(u_cap_steps),
        measures_scanned=len(candidates),
        closed_form_couplings=len(candidates) - len(lp) if alpha > 0.0 else 0,
        lp_solves=len(lp),
        lp_fallbacks=sum(not worst_coupling_value(mu).repaired for mu in lp),
        violations=len(violating),
        failure_at_threshold=failure,
        binding_measure=binding,
        min_slack=float(slacks[min_idx]),
        min_slack_measure=_measure_summary(candidates[min_idx], slacks[min_idx]),
        seed=seed,
    )
