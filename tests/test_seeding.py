"""Every source of randomness in the package is seeded: a run's outputs
depend on its config and seed, never on the operating system's entropy."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gapwalk").glob("*.py"))


def _calls(name):
    """(file:line, call) for every call of `name` or `<module>.name` in the package."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name:
                    yield f"{path.name}:{node.lineno}", node


@pytest.mark.parametrize("name, seeded", [
    # ARPACK draws its start and restart vectors from `rng`; without it, from the OS.
    ("eigsh", lambda call: any(k.arg == "rng" for k in call.keywords)),
    ("Random", lambda call: bool(call.args or call.keywords)),
])
def test_every_random_source_takes_a_seed(name, seeded):
    calls = list(_calls(name))
    assert calls, f"no {name} call found: the scan is looking in the wrong place"
    assert [where for where, call in calls if not seeded(call)] == []
