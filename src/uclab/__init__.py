"""uclab: numerical checks around union-closed families and entropy bounds.

The names below are exported lazily (PEP 562): `uclab.delta_search` imports
uclab.coupling on first use, so `import uclab` and each CLI command load
only the modules they need.
"""

__version__ = "0.1.0"

# the documented default seed; defined here so the CLI can resolve a seed
# without importing uclab.measures
DEFAULT_SEED = 1729

_EXPORTS = {
    "scalars": (
        "GOLDEN_THRESHOLD",
        "PHI",
        "binary_entropy",
        "d3_entropy_of_square",
        "d3_s_entropy",
        "entropy_ratio_bound",
        "entropy_square_gap",
        "entropy_square_ratio",
        "third_deriv_numerator",
        "union_prob",
    ),
    "setdist": (
        "ExplicitSetDistribution",
        "ProductMixture",
        "UnionBoundReport",
        "expand_mixture",
        "golden_threshold_mixture",
        "kl_divergence",
        "load_distribution",
        "load_mixture",
        "mixture_entropy_bounds",
        "product_bernoulli",
        "save_distribution",
        "save_mixture",
        "union_entropy_check",
        "union_of_independent",
    ),
    "families": (
        "Family",
        "FrequencyReport",
        "enumerate_union_closed",
        "entropy_chain_diagnostics",
        "is_union_closed",
        "load_family",
        "max_element_frequency",
        "save_family",
        "union_closure",
        "verify_frequency_threshold",
    ),
    "measures": (
        "DiscreteMeasure",
        "ObjectiveReport",
        "f_mu",
        "f_mu_structure_check",
        "lemma_certificate",
        "linearized_objective",
        "local_search_min",
        "objective",
        "two_atom_min_scan",
        "two_atom_objective",
    ),
    "coupling": (
        "JointMeasure",
        "coupled_union_prob",
        "delta_search",
        "greedy_coupling_dp",
        "improved_slack",
        "worst_coupling_value",
    ),
    "counterexample": (
        "CounterexampleParams",
        "bounds_report",
        "build_counterexample",
        "entropy_lower_bound",
        "exact_small_n_check",
        "kl_upper_bound",
        "marginal_inclusion",
        "ratio_bound",
        "union_entropy_upper_bound",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["DEFAULT_SEED", *_OWNER]


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_OWNER})
