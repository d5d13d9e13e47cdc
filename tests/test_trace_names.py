"""Guard: every function the benchmark's trace mode wraps by name exists in levilab.

perfbench/spans.py replaces each (module, function) of its ENTRY_POINTS table,
and FrameBatch.at_points on the class, when a run asks for layer spans; a name
missing from the program makes every traced run fail. The table is read from
the source of spans.py, which is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

from levilab.curvature import FrameBatch

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _entry_points() -> list[tuple[str, str]]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets))
    return [(row.elts[1].value, row.elts[2].value) for row in table.elts]


def test_table_is_read():
    assert ("levilab.quadrature", "surface_integral") in _entry_points()


@pytest.mark.parametrize("module, name", _entry_points())
def test_entry_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def test_frame_batch_at_points_is_a_classmethod():
    assert isinstance(FrameBatch.__dict__.get("at_points"), classmethod)
