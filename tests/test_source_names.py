"""Every top-level name and every record field of the package has a user
in the shipped code.

A function, class or constant that only the tests call is a second code
path that no verb runs. The first scan takes each top-level name defined in
src/ontomatch/*.py and looks for it as code, a name or an attribute (f-string
expressions included), in the rest of src/ontomatch and in perfbench/*.py,
with the lines of its own definition left out. A mention in a docstring,
comment or other string does not count. Dunder names are not checked:
Python itself reads them (`__all__`, `__version__`).

A record field that nothing reads is built, copied and compared for no
one. The second scan fails on a field of a class in src/ontomatch whose
name is never read as an attribute (`x.name` in a load context) anywhere in
src/ontomatch or perfbench/*.py. A NamedTuple's `x._asdict()` reads all its
fields, where x is self in a method of the class or a parameter annotated
with it. A class's fields are its annotated names (the fields of a NamedTuple
or dataclass), its __slots__ and the attributes its __init__ sets on self.
The exceptions in errors.py are left out: their fields are for the callers
that catch them.

The third scan fails on a call of the builtin open() in a read mode in any
src/ontomatch module but fileio.py, so every input is read through fileio.

A parameter with a default that no shipped call passes is an option only
the tests can turn. The fourth scan fails on a defaulted parameter of a
function, method or constructor in src/ontomatch that no call in
src/ontomatch or perfbench/*.py passes, by keyword, by position or through
`**name`, where name is assigned a dict literal or dict(...) call naming
the key. Calls match by the called name (a class name for __init__,
super().__init__ for the bases of the class it is in), so a method is
passed a parameter when any call of that method name passes it. The
constructor a NamedTuple generates is not scanned: its fields are the
second scan's.

The fifth scan fails on a use of the gc module in src/ontomatch anywhere
but cli.console_main: a verb's process runs without the cyclic collector,
and a caller of the library in its own process keeps its collector.

Retrieval has one float64 scoring path, so every score has one summation
order. The sixth scan fails on a matrix product in retrieval.py (`@`, or a
call of dot, matmul, inner or einsum, as a numpy function or a method)
other than the float32 GEMM in _blocked_pass and the row-wise einsum in
_row_dots.
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


def _fields(cls):
    """A class's record fields: its annotated names (the fields of a
    dataclass or NamedTuple), its __slots__ and what its __init__ sets on
    self."""
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id
        elif isinstance(item, ast.Assign) and any(
            getattr(target, "id", None) == "__slots__" for target in item.targets
        ):
            yield from (slot.value for slot in ast.walk(item.value)
                        if isinstance(slot, ast.Constant))
        elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
            yield from (
                node.attr for node in ast.walk(item)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "id", None) == "self"
            )


def _read_whole(tree):
    """The classes an `x._asdict()` call reads in full: x is self in a
    method of the class, or a parameter annotated with it."""
    methods = {
        item: cls.name
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body if isinstance(item, ast.FunctionDef)
    }
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        types = {arg.arg: getattr(arg.annotation, "id", None)
                 for arg in function.args.args}
        if function in methods:
            types["self"] = methods[function]
        for node in ast.walk(function):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_asdict"
                    and types.get(getattr(node.func.value, "id", None))):
                yield types[node.func.value.id]


def test_every_record_field_is_read_in_src_or_perfbench():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + BENCH
    }
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    read_whole = {cls for tree in trees.values() for cls in _read_whole(tree)}
    unread = [
        f"{path.name}:{node.name}.{name}"
        for path in PACKAGE
        if path.name != "errors.py"  # an exception's fields are for its catchers
        for node in ast.walk(trees[path])
        if isinstance(node, ast.ClassDef) and node.name not in read_whole
        for name in _fields(node)
        if name not in read
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


# Defaulted parameters that no shipped call passes, each with its reason.
UNPASSED_ALLOWED = {
    # test hooks: the tests shorten the retry loop of the HTTP clients
    "embedding.py:HttpProvider.__init__(max_retries)",
    "embedding.py:HttpProvider.__init__(backoff_seconds)",
    "llm.py:HttpChatClient.__init__(max_retries)",
    "llm.py:HttpChatClient.__init__(backoff_seconds)",
    # test hook: the tests run the blocked pass at block sizes 1 and 3
    "retrieval.py:build_candidate_dbs(chunk)",
    # test hook: the search-equivalence checks prompt every bidirectional pair
    "matcher.py:match_mila(hcb_enabled)",
    # the entry point reads sys.argv unless a caller hands it the arguments
    "cli.py:main(argv)",
    # numpy's ISeedSequence protocol signature, which numpy calls
    "embedding.py:Words.generate_state(dtype)",
}


def _defaulted_parameters(tree):
    """(qualified name, called name, parameter, position or None) for each
    parameter with a default; position counts the arguments a call passes
    positionally, self or cls left out, and is None for keyword-only ones."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, cls)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            if cls and not any(getattr(d, "id", None) == "staticmethod"
                               for d in child.decorator_list):
                positional = positional[1:]
            qualified = f"{cls}.{child.name}" if cls else child.name
            called = cls if cls and child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            for position, arg in enumerate(positional[first:], start=first):
                yield qualified, called, arg.arg, position
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qualified, called, arg.arg, None
            yield from visit(child, None)

    return visit(tree, None)


def _dict_keys(node):
    """The keys a dict literal or dict(...) call names."""
    if isinstance(node, ast.Dict):
        return {key.value for key in node.keys if isinstance(key, ast.Constant)}
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
        return {keyword.arg for keyword in node.keywords if keyword.arg}
    return set()


def _called_names(call, bases):
    """The names a call may reach: the bases of the class it is in for
    super().__init__(...), else the called name or attribute."""
    func = call.func
    if (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"):
        return bases
    return [getattr(func, "id", None) or getattr(func, "attr", None)]


def _calls(tree):
    """(called name, positional count, starred, keyword names) per call."""
    dicts = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    dicts.setdefault(target.id, set()).update(_dict_keys(node.value))

    def visit(node, bases):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, [getattr(b, "id", None) for b in child.bases])
                continue
            if isinstance(child, ast.Call):
                keys = set()
                for keyword in child.keywords:
                    if keyword.arg:
                        keys.add(keyword.arg)
                    elif isinstance(keyword.value, ast.Name):
                        keys |= dicts.get(keyword.value.id, set())
                    else:
                        keys |= _dict_keys(keyword.value)
                starred = any(isinstance(arg, ast.Starred) for arg in child.args)
                for name in _called_names(child, bases):
                    yield name, len(child.args), starred, keys
            yield from visit(child, bases)

    return visit(tree, [])


def test_every_defaulted_parameter_is_passed_in_src_or_perfbench():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + BENCH
    }
    calls = [call for tree in trees.values() for call in _calls(tree)]
    unpassed = {
        f"{path.name}:{qualified}({param})"
        for path in PACKAGE
        for qualified, called, param, position in _defaulted_parameters(trees[path])
        if not any(
            name == called and (param in keys or position is not None
                                and (position < count or starred))
            for name, count, starred, keys in calls
        )
    }
    assert sorted(unpassed - UNPASSED_ALLOWED) == []
    assert sorted(UNPASSED_ALLOWED - unpassed) == []  # no stale exception


def test_only_the_console_entry_point_touches_the_collector():
    touches = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for top in tree.body
            if path.name == "cli.py" and getattr(top, "name", None) == "console_main"
            for node in ast.walk(top)
        }
        names = {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name == "gc"
        }
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (isinstance(node, ast.ImportFrom) and node.module == "gc"
                    or isinstance(node, ast.Attribute)
                    and getattr(node.value, "id", None) in names):
                touches.append(f"{path.name}:{node.lineno}")
    assert touches == []


PRODUCTS = {"dot", "matmul", "inner", "einsum"}


def _products(node, function=None):
    """(enclosing function, product) for each matrix product under node;
    an einsum is named with its subscripts."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _products(child, child.name)
            continue
        if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(
            child.op, ast.MatMult
        ):
            yield function, "@"
        elif isinstance(child, ast.Call):
            name = getattr(child.func, "attr", None) or getattr(child.func, "id", None)
            if name == "einsum" and child.args and isinstance(child.args[0], ast.Constant):
                yield function, f"einsum {child.args[0].value}"
            elif name in PRODUCTS:
                yield function, name
        yield from _products(child, function)


def test_retrieval_keeps_one_float64_scoring_path():
    tree = ast.parse(
        (ROOT / "src" / "ontomatch" / "retrieval.py").read_text(encoding="utf-8")
    )
    assert sorted(_products(tree)) == [
        ("_blocked_pass", "@"), ("_row_dots", "einsum ij,ij->i"),
    ]
