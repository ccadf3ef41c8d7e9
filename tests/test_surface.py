"""Every public module-level function and class of the package has a caller.

A name is live when another module of the package (the CLI included) or a
file under `benchmarks/` mentions it (benchmarks also name functions in
'module.name' strings, to trace them), when the package exports it in
`__all__`, or when its own module registers it: mentions it in top-level
code (a table of checks, say) or makes it a CLI verb.  A definition that
a live one of its own module mentions is live too.  Mentions in the tests
do not count: a function that only its own tests call is a dead surface.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "buckettrees"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _mentioned(tree: ast.AST, dotted_strings: bool = False) -> set:
    """Every name a module reads, imports or reads as an attribute, and with
    dotted_strings the name in each 'module.name' string constant."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"^\w+\.(\w+)$", node.value))
    return names


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _is_verb(node) -> bool:
    """A definition registered by a `@group.command(...)` decorator."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def _unreached(tree: ast.Module, seeds: set) -> list:
    """The module's public definitions that neither the seeds, its own
    top-level code nor (transitively) a reached definition mentions."""
    defs, reached = {}, set(seeds)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = _mentioned(node)
            if _is_verb(node):
                reached.add(node.name)
        else:
            reached |= _mentioned(node)
    todo = [name for name in defs if name in reached]
    while todo:
        for name in defs[todo.pop()]:
            if name in defs and name not in reached:
                reached.add(name)
                todo.append(name)
    return [name for name in defs if not name.startswith("_") and name not in reached]


def unused_public_names(package: Path = PACKAGE, benchmarks: Path = ROOT / "benchmarks") -> list:
    modules = {path.stem: _parse(path) for path in sorted(package.glob("*.py"))}
    outside = set().union(*(_mentioned(_parse(p), dotted_strings=True)
                            for p in sorted(benchmarks.glob("*.py"))))
    outside |= _exported(modules["__init__"])
    unused = []
    for name, tree in modules.items():
        elsewhere = outside.union(*(_mentioned(t) for other, t in modules.items()
                                    if other != name))
        unused += [f"{name}.{d}" for d in _unreached(tree, elsewhere)]
    return unused


def test_every_public_name_has_a_caller():
    assert unused_public_names() == []


SAMPLE = """
def exported():
    return helper()


def helper():
    pass


def lonely():
    return lonely_helper()


def lonely_helper():
    pass


def benched():
    pass


def traced():
    pass


def tabled():
    pass


TABLE = {"t": tabled}


@main.command("verb")
def verb():
    pass


class Used:
    pass


def _private():
    pass
"""


def test_the_scan_sees_what_nothing_live_reaches(tmp_path):
    package, benchmarks = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    benchmarks.mkdir()
    (package / "__init__.py").write_text('from .a import exported\n__all__ = ["exported"]\n')
    (package / "a.py").write_text(SAMPLE)
    (package / "b.py").write_text("from .a import Used\n")
    (benchmarks / "run.py").write_text("import a\na.benched()\nTRACED = {'a.traced'}\n")
    assert unused_public_names(package, benchmarks) == ["a.lonely", "a.lonely_helper"]
