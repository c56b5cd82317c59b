import importlib

import pytest

import uclab

# every name `uclab` exported when its __init__ imported all modules eagerly,
# by defining module
EXPORTED = {
    "scalars": """GOLDEN_THRESHOLD PHI binary_entropy d3_entropy_of_square d3_s_entropy
        entropy_ratio_bound entropy_square_gap entropy_square_ratio third_deriv_numerator
        union_prob""",
    "setdist": """ExplicitSetDistribution ProductMixture UnionBoundReport expand_mixture
        golden_threshold_mixture kl_divergence load_distribution load_mixture
        mixture_entropy_bounds product_bernoulli save_distribution save_mixture
        union_entropy_check union_of_independent""",
    "families": """Family FrequencyReport enumerate_union_closed entropy_chain_diagnostics
        is_union_closed load_family max_element_frequency save_family union_closure
        verify_frequency_threshold""",
    "measures": """DEFAULT_SEED DiscreteMeasure ObjectiveReport f_mu f_mu_structure_check
        lemma_certificate linearized_objective local_search_min objective two_atom_min_scan
        two_atom_objective""",
    "coupling": """JointMeasure coupled_union_prob delta_search greedy_coupling_dp
        improved_slack worst_coupling_value""",
    "counterexample": """CounterexampleParams bounds_report build_counterexample
        entropy_lower_bound exact_small_n_check kl_upper_bound marginal_inclusion ratio_bound
        union_entropy_upper_bound""",
}
CASES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


@pytest.mark.parametrize("module, name", CASES)
def test_old_exports_resolve_to_their_defining_objects(module, name):
    owner = importlib.import_module(f"uclab.{module}")
    assert getattr(uclab, name) is getattr(owner, name)
    assert name in dir(uclab)
    assert name in uclab.__all__


def test_version_and_default_seed():
    assert uclab.__version__ == "0.1.0"
    assert uclab.DEFAULT_SEED == 1729


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        uclab.no_such_name  # noqa: B018
    assert not hasattr(uclab, "_EXPORTS_typo")
