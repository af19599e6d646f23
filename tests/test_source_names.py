"""Every top-level name and every dataclass field of the package has a
user in the shipped code.

A function, class or constant that only the tests call is a second code
path that no verb runs. The first scan takes each top-level name defined in
src/ontomatch/*.py and looks for it, as a whole word, in the rest of
src/ontomatch and in perfbench/*.py, with the lines of its own definition
left out. Dunder names are not checked: Python itself reads them
(`__all__`, `__version__`).

A dataclass field that nothing reads is built, copied and compared for no
one. The second scan fails on a field of a @dataclass in src/ontomatch whose
name is never read as an attribute (`x.name` in a load context) anywhere in
src/ontomatch or perfbench/*.py.
"""

import ast
import re
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


def test_every_top_level_name_is_used_in_src_or_perfbench():
    texts = {path: path.read_text(encoding="utf-8") for path in PACKAGE + BENCH}
    orphans = []
    for path in PACKAGE:
        lines = texts[path].splitlines(keepends=True)
        for name, node in _top_level_names(ast.parse(texts[path])):
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = lines[:node.lineno - 1] + lines[node.end_lineno:]
            rest = ["".join(outside)] + [
                text for other, text in texts.items() if other != path
            ]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in rest):
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
