"""Every top-level name and every dataclass field of the package has a
user in the shipped code.

A function, class or constant that only the tests call is a second code
path that no verb runs. The first scan takes each top-level name defined in
src/ontomatch/*.py and looks for it as code, a name or an attribute (f-string
expressions included), in the rest of src/ontomatch and in perfbench/*.py,
with the lines of its own definition left out. A mention in a docstring,
comment or other string does not count. Dunder names are not checked:
Python itself reads them (`__all__`, `__version__`).

A dataclass field that nothing reads is built, copied and compared for no
one. The second scan fails on a field of a @dataclass in src/ontomatch whose
name is never read as an attribute (`x.name` in a load context) anywhere in
src/ontomatch or perfbench/*.py.

The third scan fails on a call of the builtin open() in a read mode in any
src/ontomatch module but fileio.py, so every input is read through fileio.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ontomatch").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _top_level_names(tree):
    """(name, defining node) for each function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _uses(tree):
    """(name, line) for each name and attribute the code reads or sets."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_top_level_name_is_used_in_src_or_perfbench():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + BENCH
    }
    uses = {path: list(_uses(tree)) for path, tree in trees.items()}
    orphans = []
    for path in PACKAGE:
        for name, node in _top_level_names(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(
                used == name
                and (other != path or not node.lineno <= line <= node.end_lineno)
                for other, found in uses.items()
                for used, line in found
            ):
                orphans.append(f"{path.name}:{name}")
    assert orphans == []


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else target.id
    return name == "dataclass"


def test_every_dataclass_field_is_read_in_src_or_perfbench():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + BENCH
    }
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.name}:{node.name}.{item.target.id}"
        for path in PACKAGE
        for node in trees[path].body
        if isinstance(node, ast.ClassDef)
        and any(_is_dataclass(d) for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in read
    ]
    assert unread == []


def _open_mode(call):
    """The mode argument of an open() call; "r" when it is left out."""
    if len(call.args) > 1:
        return call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return ast.Constant("r")


def test_only_fileio_opens_files_for_reading():
    # Every input goes through fileio.open_input, which turns a missing or
    # unreadable file into ConfigError, and through fileio's text readers,
    # which turn bytes that are not UTF-8 into MalformedRecord.
    readers = []
    for path in PACKAGE:
        if path.name == "fileio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = _open_mode(node)
            if not (isinstance(mode, ast.Constant) and "r" not in mode.value
                    and "+" not in mode.value):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
