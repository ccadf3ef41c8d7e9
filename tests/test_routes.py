"""The two routes stay independent: the brute-force oracle (`enumeration`)
and the grower (`grow`) reach none of the closed-form modules, and the
closed forms and kernels reach no grower, through the package's imports,
read with ast (no import), followed transitively.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "buckettrees"
CLOSED_FORMS = {"dist_k", "dist_desc", "spectral", "urns", "montecarlo"}


def _imports(module: str) -> set:
    """The package modules that module's own source imports, anywhere in it."""
    dotted = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):  # from .m import f, from . import m
            base = ".".join(filter(None, ["buckettrees" if node.level else "", node.module]))
            dotted += [f"{base}.{a.name}" for a in node.names]
    parts = [name.split(".") for name in dotted if name.startswith("buckettrees.")]
    return {p[1] for p in parts if (PACKAGE / f"{p[1]}.py").exists()}


def _reached(module: str) -> set:
    reached, todo = set(), [module]
    while todo:
        for m in _imports(todo.pop()) - reached:
            reached.add(m)
            todo.append(m)
    return reached - {module}


@pytest.mark.parametrize("module, reached", [
    ("enumeration", {"families", "pmf", "trees"}),
    ("grow", {"families", "rng", "trees"}),
])
def test_the_oracle_and_the_grower_reach_no_closed_form(module, reached):
    assert not _reached(module) & CLOSED_FORMS
    assert _reached(module) == reached


@pytest.mark.parametrize("module", ["urns", "montecarlo", "dist_k", "dist_desc"])
def test_the_closed_forms_and_kernels_reach_no_grower(module):
    # the kernels take their streams and draw rules from `rng`
    assert "grow" not in _reached(module)


def test_the_import_walk_sees_a_closed_form_route():
    # verify checks the routes against each other, so it reaches all of them
    assert CLOSED_FORMS <= _reached("verify")
