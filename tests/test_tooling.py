"""The names the benchmark's tracer wraps exist in the package, each
conformal function is bound in ``conformal`` alone, the package ships no
public name that only the tests read, no function the run's store
keeps takes a defaulted parameter, only ``derived`` reads the store, and
each layer raises one error class, which ``cli`` catches through
``MATH_ERRORS`` alone.

``perfbench/tracer.py`` wraps each ``(module, attribute path)`` of its
``TARGETS`` by name, so a rename or deletion in ``confgeo`` would break a
traced benchmark run.  The table is read from the file's source, without
importing or editing the harness.
"""

import ast
import builtins
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import confgeo
from confgeo import conformal

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _targets() -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACER}")


def test_every_traced_name_resolves_on_confgeo():
    targets = _targets()
    assert targets
    for module, path in targets:
        owner = importlib.import_module(f"confgeo.{module}")
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        # a method is wrapped from its class's own namespace
        found = vars(owner).get(attr) if owners else getattr(owner, attr, None)
        assert callable(found), f"traced name {module}.{path} does not resolve"


def test_no_other_module_binds_a_conformal_function():
    # a module that imports a conformal function by name holds a second
    # binding, which a fault or tracer wrapper set on ``conformal`` misses;
    # classes are shared records, not terms, and may be imported
    functions = {id(f) for f in vars(conformal).values()
                 if inspect.isfunction(f) and f.__module__ == conformal.__name__}
    assert functions
    for info in pkgutil.iter_modules(confgeo.__path__):
        if info.name in ("__main__", "conformal"):  # __main__ runs the cli
            continue
        module = importlib.import_module(f"confgeo.{info.name}")
        bound = sorted(key for key, val in vars(module).items() if id(val) in functions)
        assert not bound, f"confgeo.{info.name} binds conformal's {bound}"


def _reads(tree: ast.Module) -> set:
    # the names a module reads, as a name or an attribute; a top-level
    # function or class that reads only itself (a recursion) is not read
    reads = set()
    for stmt in tree.body:
        found = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)} | \
                {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.discard(stmt.name)
        reads |= found
    return reads


def test_every_public_name_is_read_by_the_package_or_the_tracer():
    # a public function or class that nothing in src/ reads, and that the
    # tracer does not wrap, serves only the tests and belongs with them
    # (tests/oracles.py holds the oracles that were moved out)
    trees = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "confgeo").glob("*.py")}
    read = set().union(*map(_reads, trees.values()))
    traced = {(module, path.split(".")[0]) for module, path in _targets()}
    script = re.search(r'^\[project\.scripts\]\n\S+ = "confgeo\.(\w+):(\w+)"',
                       (ROOT / "pyproject.toml").read_text(), re.M)
    assert script
    unread = sorted(f"{module}.{stmt.name}" for module, tree in trees.items()
                    for stmt in tree.body
                    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_") and stmt.name not in read
                    and (module, stmt.name) not in traced and (module, stmt.name) != script.groups())
    assert not unread, f"public names only the tests read: {unread}"


def test_no_derived_function_has_a_defaulted_parameter():
    # the store keys a call by the arguments it is given, so a defaulted
    # parameter would key one value two ways: each caller passes every argument
    derived = [(f"{path.stem}.{fn.name}", fn)
               for path in sorted((ROOT / "src" / "confgeo").glob("*.py"))
               for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, ast.FunctionDef)
               and any(ast.unparse(d) in ("derived", "exprkit.derived")
                       for d in fn.decorator_list)]
    assert len(derived) >= 9, [name for name, _ in derived]  # the search finds them
    defaulted = [name for name, fn in derived if fn.args.defaults or any(fn.args.kw_defaults)]
    assert not defaulted, f"derived functions with a defaulted parameter: {defaulted}"


def test_only_derived_reads_the_store():
    # a walk is the same in a store as outside one: the one read of the
    # entered store, ``_STORE.get()``, is in ``exprkit.derived``
    readers = sorted(f"{path.stem}.{stmt.name}"
                     for path in sorted((ROOT / "src" / "confgeo").glob("*.py"))
                     for stmt in ast.parse(path.read_text()).body
                     for node in ast.walk(stmt)
                     if isinstance(node, ast.Attribute) and node.attr == "get"
                     and ast.unparse(node.value) in ("_STORE", "exprkit._STORE"))
    assert readers == ["exprkit.derived"], readers


# One error class per layer, which cli maps to an exit code, and the two
# that exprkit catches by type
ERROR_CLASSES = {"exprkit.ExprError", "geometry.GeometryError", "calculus.CalculusError",
                 "conformal.ConformalError", "cli.ScenarioError",
                 "exprkit.EvalDomainError", "exprkit._JetDomain"}


def _is_builtin_exception(name: str) -> bool:
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def test_each_layer_has_one_error_class():
    # a subclass that no caller tells apart is a second name for its
    # layer's error: cli reads only the layer, to pick the exit code
    trees = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "confgeo").glob("*.py")}
    bases = {f"{module}.{node.name}": {ast.unparse(b).rpartition(".")[2] for b in node.bases}
             for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    errors: set = set()
    while True:  # the classes whose bases are exceptions, to a fixed point
        names = {cls.rpartition(".")[2] for cls in errors}
        grown = {cls for cls, bs in bases.items()
                 if any(b in names or _is_builtin_exception(b) for b in bs)}
        if grown == errors:
            break
        errors = grown
    assert errors == ERROR_CLASSES, sorted(errors ^ ERROR_CLASSES)
    # cli catches a math error through MATH_ERRORS, never by its own class,
    # so that no load or run step maps a narrower set than another
    math_errors = {cls.rpartition(".")[2] for cls in ERROR_CLASSES} - {"ScenarioError"}
    catching = []
    for stmt in trees["cli"].body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = {ast.unparse(n).rpartition(".")[2] for n in
                          (node.type.elts if isinstance(node.type, ast.Tuple) else [node.type])}
                assert not caught & math_errors, (getattr(stmt, "name", None), sorted(caught))
                if "MATH_ERRORS" in caught:
                    catching.append(stmt.name)
    assert catching == ["_parse_field", "load_scenario", "load_scenario", "run_scenario"], catching
