"""The package imports only numpy and the standard library, has no ``assert``
statement, uses every module-level import, references every module-level
private name somewhere, has a caller for every module-level public function
that it does not export and for every public method, both passes and
omits every option of a public function or method and every defaulted field
of a public dataclass in some call, and reads every attribute a method sets on
``self`` (stdlib ``ast`` scans; named exemptions)."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sakde"
MODULES = sorted(SRC.glob("*.py"))


def _dunder_all(tree):
    """Names a module exports through ``__all__``."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name.split(".")[0]): node.lineno
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _dunder_all(tree)  # names exported through __all__ count as used
    assert [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used] == []


#: the top-level modules the package may import besides the standard library
RUNTIME_IMPORTS = {"__future__", "numpy", "sakde"}


def _imported_roots(tree):
    """``(line, top-level module)`` for every import statement, at any depth, so
    that an import inside a ``try`` or a function counts too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside the package
            yield node.lineno, "sakde" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_runtime_imports_are_numpy_and_the_stdlib(path):
    # scipy and mpmath are test-only oracles; numpy is the one runtime dependency
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [f"{path.name}:{line} {root}" for line, root in _imported_roots(tree)
            if root not in RUNTIME_IMPORTS and root not in sys.stdlib_module_names] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips every assert, so a check written as one is no check
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert)] == []


def _private_definitions(node):
    """Module-level ``_private`` names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(node):
    """Names a statement reads: loaded names, attributes and ``from`` imports."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs |= {alias.name for alias in sub.names}
    return refs


def test_no_unreferenced_private_names():
    statements = [(path.name, node, _references(node)) for path in MODULES
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    orphans = []
    for name, node, _ in statements:
        for private in _private_definitions(node):
            # a definition's own body (e.g. a recursive call) does not count
            if not any(private in refs for _, other, refs in statements if other is not node):
                orphans.append(f"{name}:{node.lineno} {private}")
    assert orphans == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    # a module's private names are its own: the Monte Carlo evaluates through
    # estimators' public entry points, not through its private kernel sums
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "sakde"
               for alias in node.names}
    reads = [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules and node.attr.startswith("_")
             and not node.attr.startswith("__")]
    reads += [f"{path.name}:{node.lineno} {node.module}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sakde.")
              for alias in node.names if alias.name.startswith("_")]
    assert reads == []


#: public functions and methods kept without a package caller, with the reason for each
UNCALLED_PUBLIC = {
    "mise_leading": "the oracle test_mise_optimal_plan_is_a_fixed_point_of_mise_leading "
                    "checks mise_optimal_plan against",
    "OptimalPlan.mse": "test-only oracle: the leading MSE of an optimal plan, checked "
                       "against a numerical minimum and the exact finite-n MISE",
    "RosenblattEstimator.eval": "the evaluation entry point of the exported baseline "
                                "estimator; the benchmark's stream workload and the "
                                "estimator tests call it",
}


def _units(tree):
    """``(qualified name, statement)`` for each top-level statement, with each
    class split into its body statements, so that a method another method of
    its class calls counts as called."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        else:
            yield getattr(node, "name", None), node


def _uncalled_public():
    """``(location, qualified name)`` of each public function and method no
    package statement references."""
    units = [(path.name, qualified, unit, _references(unit)) for path in MODULES
             for qualified, unit in _units(ast.parse(path.read_text(encoding="utf-8")))]
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    # a function exported through __all__ is API; a method of an exported class is not
    exported = _dunder_all(init)
    return [(f"{name}:{unit.lineno}", qualified) for name, qualified, unit, _ in units
            if isinstance(unit, ast.FunctionDef) and not unit.name.startswith("_")
            and qualified not in exported
            and not any(unit.name in refs for *_, other, refs in units if other is not unit)]


def test_no_uncalled_public_functions():
    uncalled = _uncalled_public()
    assert [f"{where} {q}" for where, q in uncalled if q not in UNCALLED_PUBLIC] == []
    # every exemption names a function the scan flags
    assert set(UNCALLED_PUBLIC) <= {q for _, q in uncalled}


#: defaulted parameters of public functions and methods that no package call
#: passes, or that are kept for a path no package call takes, with the reason for each
UNPASSED_OPTIONS = {
    "main.argv": "the console entry point reads sys.argv; the tests pass argv",
}


def _dataclass_fields(tree):
    """``(class name, fields)`` for each public dataclass, with its fields as
    ``(name, has default)`` in the order its generated ``__init__`` takes them."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and any(
                getattr(getattr(dec, "func", dec), "id", None) == "dataclass"
                for dec in node.decorator_list):
            yield node.name, [(item.target.id, item.value is not None) for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name)]


def _options():
    """``(qualified name, callee, parameter, positional index)`` for each defaulted
    parameter of a public function or method and each defaulted field of a public
    dataclass, with ``__init__`` called by its class name, a method's positional
    index counted after ``self`` and a field's from the class's first field."""
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls, fields in _dataclass_fields(tree):
            yield from ((f"{cls}.{name}", cls, name, index)
                        for index, (name, defaulted) in enumerate(fields)
                        if defaulted and not name.startswith("_"))
        for qualified, unit in _units(tree):
            if not isinstance(unit, ast.FunctionDef) or qualified.startswith("_"):
                continue
            owner, _, name = qualified.rpartition(".")
            if name.startswith("_") and name != "__init__":
                continue
            args = unit.args
            positional = [a.arg for a in args.posonlyargs + args.args][1 if owner else 0:]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default]
            for param in defaulted:
                index = positional.index(param) if param in positional else None
                yield (f"{qualified}.{param}", owner if name == "__init__" else name,
                       param, index)


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _passes(call, param, index):
    """Whether ``call`` passes ``param`` by keyword or at positional ``index``;
    a ``*args`` or ``**kwargs`` may pass anything."""
    return (any(k.arg in (param, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (index is not None and len(call.args) > index))


def _package_calls():
    return [node for path in MODULES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)]


def test_every_option_has_a_package_caller():
    calls = _package_calls()
    unpassed = [qualified for qualified, name, param, index in _options()
                if not any(_callee(c) == name and _passes(c, param, index) for c in calls)]
    assert [q for q in unpassed if q not in UNPASSED_OPTIONS] == []
    # every exemption names an option the scan flags
    assert set(UNPASSED_OPTIONS) <= set(unpassed)


#: defaulted parameters that every package call passes, kept with their default
#: for callers outside the package, with the reason for each
ALWAYS_PASSED_OPTIONS = {
    "recursive_at_points.f0": "the benchmark's stream workload calls it without f0",
    "replication_rng.bit_generator": "without it, a new Philox: the reference path that "
                                     "the rekeyed generator is tested against",
    "CellConfig.replications": "an exact-moment cell draws nothing, and its tests build "
                               "it without replications or seed",
    "CellConfig.seed": "an exact-moment cell draws nothing, and its tests build it "
                       "without replications or seed",
}


def test_every_option_has_a_package_call_that_omits_it():
    # a default that every call overrides is a required parameter in disguise
    calls = _package_calls()
    always = [qualified for qualified, name, param, index in _options()
              if (callers := [c for c in calls if _callee(c) == name])
              and all(_passes(c, param, index) for c in callers)]
    assert [q for q in always if q not in ALWAYS_PASSED_OPTIONS] == []
    # every exemption names an option the scan flags
    assert set(ALWAYS_PASSED_OPTIONS) <= set(always)


#: attributes a package method sets on ``self`` that no package statement reads,
#: with the reason for each
UNREAD_ATTRIBUTES = {}


def _self_attributes(tree):
    """``(qualified name, line)`` for each attribute a method of a class sets on
    ``self``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.attr}", sub.lineno) for item in node.body
                        if isinstance(item, ast.FunctionDef) for sub in ast.walk(item)
                        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and getattr(sub.value, "id", None) == "self")


def test_every_attribute_set_on_self_is_read():
    # state that nothing reads is a parameter or a field in disguise
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {qualified: f"{name}:{line}" for name, tree in trees.items()
              for qualified, line in _self_attributes(tree)
              if qualified.rpartition(".")[2] not in read}
    assert [f"{where} {q}" for q, where in unread.items() if q not in UNREAD_ATTRIBUTES] == []
    # every exemption names an attribute the scan flags
    assert set(UNREAD_ATTRIBUTES) <= set(unread)
