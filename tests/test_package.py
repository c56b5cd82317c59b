import ast
import dataclasses
import functools
import importlib
import importlib.util
import re
import sys
import types
from pathlib import Path

import pytest

import uclab

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
SOURCES = sorted(Path(uclab.__file__).parent.glob("*.py"))

# (module, class, field) that the tracer's counter hooks read from results
# and arguments of the functions it wraps
HOOK_FIELDS = (
    ("uclab.coupling", "WorstCouplingReport", "repaired"),
    ("uclab.measures", "LocalSearchReport", "restarts"),
    ("uclab.families", "FrequencyScanReport", "families_checked"),
    ("uclab.families", "FrequencyScanReport", "degenerate_excluded"),
    ("uclab.setdist", "ExplicitSetDistribution", "n"),
)


# the top-level names of src/uclab that main does not reach, each with a
# reason the guard checks; a name that one of them reaches needs no entry
LIBRARY = {
    **dict.fromkeys(["coupling.coupled_union_prob", "counterexample.ratio_bound",
                     "families.max_element_frequency", "setdist.golden_threshold_mixture",
                     "setdist.product_bernoulli"], "acceptance import"),
    **dict.fromkeys(["families.save_family", "setdist.save_distribution",
                     "setdist.save_mixture"], "writer of a CLI input format"),
    **dict.fromkeys(["families.count_union_closed", "measures.local_search_min",
                     "measures.parallel_map", "measures.two_atom_min_scan"],
                    "tracer target, until ROADMAP item 4"),
}


@functools.cache
def _graph():
    """{"module.name": (path, node, loads)} of each top-level def, class and assignment
    of src/uclab, and the loads of its other top-level statements: the names read in a
    node, resolved by its module's names and `from .m import x` at any depth."""
    defs, roots = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {a.asname or a.name: f"{n.module or '__init__'}.{a.name}" for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) and n.level for a in n.names}
        tops = [(stmt, [stmt.name] if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                 else [t.id for t in stmt.targets] if isinstance(stmt, ast.Assign)
                 else [stmt.target.id] if isinstance(stmt, ast.AnnAssign) else [])
                for stmt in tree.body]
        names.update((name, f"{path.stem}.{name}") for _, own in tops for name in own)
        for stmt, own in tops:
            loads = {names[n.id] for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in names}
            defs.update((f"{path.stem}.{name}", (path, stmt, loads)) for name in own)
            roots |= set() if own else loads
    return defs, roots


def _reached(defs, keys):
    seen, fresh = set(), set(keys) & defs.keys()
    while fresh:
        seen |= fresh
        fresh = {load for key in fresh for load in defs[key][2]} & defs.keys() - seen
    return seen


def _reason_holds(key, reason, main):
    module, name = key.split(".")
    return {
        "acceptance import": vars(importlib.import_module("test_acceptance")).get(name)
        is getattr(importlib.import_module(f"uclab.{module}"), name),
        # its load_ twin reads the format, and main reaches that
        "writer of a CLI input format": key.replace(".save_", ".load_") in main,
        # bench/tracer.py is only read here, never run
        "tracer target, until ROADMAP item 4": re.search(rf"\b{name}\b", TRACER.read_text()),
    }.get(reason)


@functools.cache
def _main():
    """ROADMAP item 12: the names that main's entry points and the module-level
    statements that are not definitions reach."""
    defs, roots = _graph()
    return _reached(defs, {"cli.main", "cli.console_main", "cli.build_parser", *roots})


def _where(key):
    """The file:line that defines key in src/uclab, else the one that names it
    in LIBRARY, and key."""
    defs = _graph()[0]
    if key in defs:
        path, node, _ = defs[key]
        return f"{path.parent.name}/{path.name}:{node.lineno} {key}"
    lines = Path(__file__).read_text().splitlines()
    line = next(i for i, text in enumerate(lines, 1) if f'"{key}"' in text)
    return f"tests/test_package.py:{line} {key}"


@pytest.mark.parametrize("key", sorted(_graph()[0]))
def test_each_name_is_reached_by_main_or_from_library(key):
    reached = key in _main() | _reached(_graph()[0], LIBRARY)
    assert reached, f"{_where(key)}: main does not reach it, and LIBRARY gives no reason"


@pytest.mark.parametrize("key", sorted(LIBRARY))
def test_each_library_entry_is_an_unreached_name_whose_reason_holds(key):
    problem = ("src/uclab defines no such name" if key not in _graph()[0]
               else "main reaches it, so LIBRARY needs no entry" if key in _main()
               else None if _reason_holds(key, LIBRARY[key], _main())
               else "its reason in LIBRARY does not hold")
    assert problem is None, f"{_where(key)}: {problem}"


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


def test_every_tracer_target_resolves(monkeypatch):
    # bench/tracer.py wraps these attributes from outside; a rename or a
    # deletion here would silently break every `bench/run.py --trace 1` run
    spec = importlib.util.spec_from_file_location("uclab_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
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
    assert importlib.import_module("uclab.families").np.arange is not None
    for module_name, cls_name, field in HOOK_FIELDS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        names = cls._fields if issubclass(cls, tuple) else [f.name for f in dataclasses.fields(cls)]
        assert field in names, f"{cls_name}.{field}"


def test_each_class_is_a_record_or_validates():
    # a report record is a NamedTuple class, a fifth of a frozen dataclass's cost
    # to define at import; a class that validates in __post_init__ is a dataclass
    classes = {key: getattr(importlib.import_module(f"uclab.{path.stem}"), node.name)
               for key, (path, node, _) in _graph()[0].items()
               if isinstance(node, ast.ClassDef) and key != "cli._Parser"}
    wrong = [key for key, cls in classes.items() if not (
        issubclass(cls, tuple) and hasattr(cls, "_fields") and not dataclasses.is_dataclass(cls)
        or dataclasses.is_dataclass(cls) and "__post_init__" in vars(cls))]
    # a generated __eq__ would compare array fields, whose truth value is
    # ambiguous, and a frozen one would hash them
    arrays = {key: cls for key, cls in classes.items() if dataclasses.is_dataclass(cls)
              and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))}
    wrong += [key for key, cls in arrays.items()
              if (cls.__eq__, cls.__hash__) != (object.__eq__, object.__hash__)]
    assert arrays and wrong == []


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


def test_every_imported_name_is_read():
    # an import that nothing reads is dead code that hides which module
    # still uses a name
    modules = SOURCES + sorted(Path(__file__).resolve().parent.glob("*.py"))
    assert len(modules) > len(SOURCES)
    unread = {p.name: names for p in modules if (names := _unread_imports(p))}
    assert unread == {}
