import ast
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
coupling: coupled_union_prob delta_search greedy_coupling_dp improved_slack
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
        # report records are NamedTuple classes; validating ones stay dataclasses
        if issubclass(cls, tuple):
            names = cls._fields
        else:
            names = {f.name for f in dataclasses.fields(cls)}
        assert field in names, f"{cls_name}.{field}"


# plain report records are NamedTuple classes, which cost about a fifth
# of a frozen dataclass to define at import; the classes that validate in
# __post_init__ stay dataclasses
RECORDS = """
measures: ObjectiveReport TwoAtomScanReport LocalSearchReport LemmaCertificate
coupling: WorstCouplingReport DeltaSearchReport CouplingProcessReport
setdist: UnionBoundReport
families: FrequencyReport FrequencyScanReport
counterexample: CounterexampleReport
"""
VALIDATED = """
measures: DiscreteMeasure
setdist: ExplicitSetDistribution ProductMixture
families: Family
counterexample: CounterexampleParams
"""


def _classes(table):
    for line in table.strip().splitlines():
        module, names = line.split(":")
        for name in names.split():
            yield getattr(importlib.import_module(f"uclab.{module}"), name)


def test_report_records_are_named_tuples():
    for cls in _classes(RECORDS):
        assert issubclass(cls, tuple) and hasattr(cls, "_fields"), cls.__name__
        assert not dataclasses.is_dataclass(cls), cls.__name__
    for cls in _classes(VALIDATED):
        assert dataclasses.is_dataclass(cls) and "__post_init__" in vars(cls), cls.__name__


def test_array_classes_compare_and_hash_by_identity():
    # a generated __eq__ would compare the array fields, whose truth value is
    # ambiguous, and a frozen generated __eq__ would hash them
    import numpy as np

    from uclab.measures import DiscreteMeasure
    from uclab.setdist import ExplicitSetDistribution

    for make in (lambda: DiscreteMeasure(np.array([0.2, 0.7]), np.array([0.5, 0.5])),
                 lambda: ExplicitSetDistribution(1, np.array([0.5, 0.5]))):
        a, b = make(), make()
        assert a == a and a != b
        assert a in {a} and b not in {a}
        assert hash(a) == hash(a)


SOURCES = sorted((Path(uclab.__file__).parent).glob("*.py"))


@pytest.mark.parametrize("text, home", [
    ("strictly inside (0, 1)", {"scalars.py"}),
    ("must be positive", set()),
    ("positive integer", set()),
    # the float rule: a finite test or a float range typed out elsewhere
    ("< np.inf", {"scalars.py"}),
    ("math.isfinite(", {"scalars.py"}),
    ("need 0 < ubar", {"scalars.py"}),
    ("positive finite step", {"scalars.py"}),
    ("finite and nonnegative", {"scalars.py"}),
    ("finite and positive", {"scalars.py"}),
    # the count rule: a cap typed out elsewhere
    ("cells exceeds", set()),
])
def test_range_rule_texts_live_in_scalars(text, home):
    # each range rule is typed out once, in scalars; a copy elsewhere
    # would drift from it unseen
    assert {p.name for p in SOURCES if text in p.read_text()} <= home


def _unread_imports(path):
    """(line, name) of each name that path's module imports (outside
    __future__) and never reads, from one walk of its syntax tree."""
    imported, read = {}, set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                read.add(node.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return sorted((line, name) for name, line in imported.items() if name not in read)


MODULES = SOURCES + sorted(Path(__file__).resolve().parent.glob("*.py"))


def test_every_imported_name_is_read():
    # an import that nothing reads is dead code that hides which module
    # still uses a name
    assert len(MODULES) > len(SOURCES)
    unread = {p.name: names for p in MODULES if (names := _unread_imports(p))}
    assert unread == {}
