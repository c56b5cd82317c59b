import dataclasses
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

import uclab

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# (module, class, field) that the tracer's counter hooks read from results
# and arguments of the functions it wraps
HOOK_FIELDS = (
    ("uclab.coupling", "WorstCouplingReport", "repaired"),
    ("uclab.measures", "LocalSearchReport", "restarts"),
    ("uclab.families", "FrequencyScanReport", "families_checked"),
    ("uclab.families", "FrequencyScanReport", "degenerate_excluded"),
    ("uclab.setdist", "ExplicitSetDistribution", "n"),
)


# every name `uclab` exported when its __init__ imported all modules eagerly,
# after its defining "module:", less those deleted or moved to tests/helpers.py
OLD_EXPORTS = """
scalars: GOLDEN_THRESHOLD PHI binary_entropy d3_entropy_of_square d3_s_entropy
    entropy_ratio_bound entropy_square_gap entropy_square_ratio union_prob
setdist: ExplicitSetDistribution ProductMixture UnionBoundReport expand_mixture
    golden_threshold_mixture kl_divergence load_distribution load_mixture
    mixture_entropy_bounds product_bernoulli save_distribution save_mixture
    union_entropy_check union_of_independent
families: Family FrequencyReport is_union_closed load_family max_element_frequency
    save_family verify_frequency_threshold
measures: DEFAULT_SEED DiscreteMeasure ObjectiveReport lemma_certificate local_search_min
    objective two_atom_min_scan
coupling: JointMeasure coupled_union_prob delta_search greedy_coupling_dp improved_slack
    worst_coupling_value
counterexample: CounterexampleParams bounds_report build_counterexample entropy_lower_bound
    exact_small_n_check kl_upper_bound marginal_inclusion ratio_bound
    union_entropy_upper_bound
"""
CASES = []
for token in OLD_EXPORTS.split():
    if token.endswith(":"):
        module = token[:-1]
    else:
        CASES.append((module, token))


@pytest.mark.parametrize("module, name", CASES)
def test_old_exports_resolve_to_their_defining_objects(module, name):
    # callers import each name from its defining module; the package
    # itself carries none of them but DEFAULT_SEED
    assert hasattr(importlib.import_module(f"uclab.{module}"), name)
    assert name == "DEFAULT_SEED" or not hasattr(uclab, name)


def test_version_and_default_seed():
    assert uclab.__version__ == "0.1.0"
    assert uclab.DEFAULT_SEED == 1729


def test_unknown_name_raises_attribute_error():
    # the package re-exports nothing: names live in their defining modules
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        uclab.no_such_name  # noqa: B018
    own = {k for k, v in vars(uclab).items() if not k.startswith("_")
           and not isinstance(v, types.ModuleType)}
    assert own == {"DEFAULT_SEED"}
    assert not hasattr(uclab, "__getattr__")


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("uclab_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves(monkeypatch):
    # bench/tracer.py wraps these attributes from outside; a rename or a
    # deletion here would silently break every `bench/run.py --trace 1` run
    tracer = _load_tracer(monkeypatch)
    assert tracer.TARGETS
    for module_name, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module_name}.{attr}"
    cli = importlib.import_module("uclab.cli")
    assert set(tracer.HANDLERS) == set(cli._HANDLERS)
    assert callable(importlib.import_module("uclab.measures").parallel_map)
    assert importlib.import_module("uclab.families").np.arange is not None
    for module_name, cls_name, field in HOOK_FIELDS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert field in {f.name for f in dataclasses.fields(cls)}, f"{cls_name}.{field}"
