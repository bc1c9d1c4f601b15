"""The names the benchmark's tracer wraps exist in the package.

``perfbench/tracer.py`` wraps each ``(module, attribute path)`` of its
``TARGETS`` by name, so a rename or deletion in ``confgeo`` would break a
traced benchmark run.  The table is read from the file's source, without
importing or editing the harness.
"""

import ast
import importlib
from pathlib import Path

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
