"""The names the benchmark's tracer wraps exist in the package, and each
conformal function is bound in ``conformal`` alone.

``perfbench/tracer.py`` wraps each ``(module, attribute path)`` of its
``TARGETS`` by name, so a rename or deletion in ``confgeo`` would break a
traced benchmark run.  The table is read from the file's source, without
importing or editing the harness.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import confgeo
from confgeo import conformal

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
