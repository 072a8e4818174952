"""The benchmark's tracer wraps library functions by name.

``perfbench/tracing.py`` lists them in ``TARGETS`` as (span name,
module, attribute path) and resolves them only when a traced run
installs it.  These tests resolve every path the same way, so a rename
or a deletion in the library shows up here and not in a benchmark run.
The list is read with ``ast``, so nothing under perfbench/ is imported
or written.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACING}")


@pytest.mark.parametrize("name, module, path",
                         [pytest.param(*target, id=target[0]) for target in _targets()])
def test_tracing_target_resolves(name, module, path):
    owner = importlib.import_module(f"bggkit.{module}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # as Tracer.install reads it: a method from the class dict
    target = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    assert callable(target), name
