"""Every public module-level function and class of the package has a caller.

A name f of module m is live when another module of the package (the CLI
and `__init__` included) or a file under `benchmarks/` reads it through a
binding to m: `from .m import f`, `from <package>.m import f`, or `alias.f`
where an import binds alias to module m (benchmarks also name functions
in 'm.f' strings, to trace them).  A local variable that happens to share
f's name is no mention.  A name is live too when its own module registers
it: mentions it in top-level code (a table of checks, say) or makes it a
CLI verb.  A definition that a live one of its own module mentions is live
too.  Mentions in the tests do not count: a function that only its own
tests call is a dead surface.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "buckettrees"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _mentioned(tree: ast.AST) -> set:
    """Every name a definition reads or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _bound(tree: ast.Module, package: str, dotted_strings: bool = False) -> set:
    """The (module, name) pairs a file reads from the package's modules
    through an import, and with dotted_strings each 'module.name' string.

    An alias bound anywhere in the file counts everywhere in it.
    """
    modules, pairs = {}, set()  # modules: alias -> module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            if source in (".", package):  # from . import m
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif source.startswith((".", package + ".")):  # from .m import f
                pairs.update((source.rpartition(".")[2], a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update((a.asname, a.name.rpartition(".")[2]) for a in node.names
                           if a.asname and a.name.startswith(package + "."))
        elif dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            pairs.update(re.findall(r"^(\w+)\.(\w+)$", node.value))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            pairs.add((modules[node.value.id], node.attr))
    return pairs


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
    outside = set().union(*(_bound(_parse(p), package.name, dotted_strings=True)
                            for p in sorted(benchmarks.glob("*.py"))))
    unused = []
    for name, tree in modules.items():
        elsewhere = outside.union(*(_bound(t, package.name) for other, t in modules.items()
                                    if other != name))
        seeds = {f for m, f in elsewhere if m == name}
        unused += [f"{name}.{d}" for d in _unreached(tree, seeds)]
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


def shadowed():
    pass


def aliased():
    pass


def named_elsewhere():
    pass
"""


def test_the_scan_sees_what_nothing_live_reaches(tmp_path):
    package, benchmarks = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    benchmarks.mkdir()
    (package / "__init__.py").write_text('from .a import exported\n__all__ = ["exported"]\n')
    (package / "a.py").write_text(SAMPLE)
    # b's local `shadowed` and c's `named_elsewhere` of another module are
    # not reads of a's functions
    (package / "b.py").write_text("from .a import Used\n\n\ndef _read(shadowed):\n"
                                  "    return shadowed.named_elsewhere\n")
    (package / "c.py").write_text("from . import a as first, b\n"
                                  "first.aliased()\nb.named_elsewhere()\n")
    (benchmarks / "run.py").write_text("from pkg import a\na.benched()\n"
                                       "TRACED = {'a.traced'}\n")
    assert unused_public_names(package, benchmarks) == [
        "a.lonely", "a.lonely_helper", "a.shadowed", "a.named_elsewhere"]
