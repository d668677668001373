"""Checks on the package source itself, made with the standard library's ``ast``."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fairtopk"

# (file, qualified function name, parameter) -> why it stays unread
UNUSED_ALLOWED = {
    ("optimizer.py", "TrainerState.fresh", "cfg"):
        "bench/run.py calls TrainerState.fresh(cfg, num_params)",
}


# (file, qualified name) -> why it stays though nothing in src/ reads it
UNREAD_ALLOWED = {
    ("cli.py", "_Parser.error"): "argparse.ArgumentParser calls it on a usage error",
    ("data.py", "BatchSample.per_query"): "bench/run.py counts the sampled queries with it",
    ("evaluation.py", "ndcg_at_k"): "bench/run.py wraps it as a layer",
    ("evaluation.py", "spearman"): "acceptance criterion 5 ranks MAE against C with it",
    ("lambda_solver.py", "exact_lambda"):
        "the exact order statistic that criterion 3 and test_lambda_solver compare against",
}

# (file, qualified function name, parameter) -> why its default stays though
# no call in src/ passes it
UNSET_DEFAULTS_ALLOWED = {
    ("cli.py", "run", "argv"):
        "main(), the console entry point, calls run() so that argparse reads sys.argv; "
        "tests pass argv",
    ("evaluation.py", "ndcg_at_k", "item_ids"):
        "only tests and bench/run.py reach ndcg_at_k; ROADMAP item 9 deletes it",
}


def _functions(tree):
    """(qualified name, node) of every ``def``, nested ones included.  Lambdas
    are left out: a callback's parameters are its caller's to choose."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                yield name, child
                yield from walk(child, f"{name}.")
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def unused_parameters(path: Path) -> list[tuple[str, str, str]]:
    """(file, function, parameter) for every parameter its function never reads."""
    out = []
    for name, fn in _functions(ast.parse(path.read_text())):
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if p is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(path.name, name, p) for p in params
                if p not in ("self", "cls") and p not in read]
    return out


def unused_imports(path: Path) -> list[tuple[str, str]]:
    """(file, name) for every name an import binds that the module never reads;
    a name read in an annotation, quoted or not, counts as read."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    notes = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    notes += [n.returns for n in ast.walk(tree)
              if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    quoted = [ast.parse(n.value, mode="eval") for n in notes
              if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    read = {n.id for root in [tree] + quoted for n in ast.walk(root) if isinstance(n, ast.Name)}
    return [(path.name, name) for name in sorted(bound, key=bound.get) if name not in read]


def unread_definitions(paths: list[Path]) -> list[tuple[str, str]]:
    """(file, qualified name) of every top-level ``def`` or ``class``, every
    method and every name a top-level assignment binds, that no module in
    ``paths`` reads.  A top-level name counts as read when its own module
    reads it as a bare name, or a module other than ``__init__`` imports it
    by name from its module or reads it as an attribute of its module
    (``data.f`` after ``from . import data``); a re-export from ``__init__``
    alone does not count, nor does an attribute of another object that
    shares its name.  A method counts as read when any module but
    ``__init__`` reads its name, as a name, an attribute or an import.
    Methods and assigned names with a leading ``__`` are left out: Python
    reads the dunders."""
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    package = paths[0].parent.name if paths else ""
    read, names = set(), set()      # (module, top-level name) read; any name read
    for stem, tree in trees.items():
        modules = {}                # local name -> the module in ``paths`` it binds
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and stem != "__init__":
                source = (n.module or "").rsplit(".", 1)[-1]
                for alias in n.names:
                    read.add((source, alias.name))
                    names.add(alias.name)
                    if n.module in (None, package) and alias.name in trees:
                        modules[alias.asname or alias.name] = alias.name
            elif isinstance(n, ast.Import):
                modules.update((alias.asname, alias.name.rsplit(".", 1)[-1])
                               for alias in n.names if alias.asname)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add((stem, n.id))
                names.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                names.add(n.attr)
                if isinstance(n.value, ast.Name) and n.value.id in modules:
                    read.add((modules[n.value.id], n.attr))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for stem, tree in trees.items():
        name = f"{stem}.py"
        for node in (n for n in tree.body if isinstance(n, kinds)):
            if (stem, node.name) not in read:
                out.append((name, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(name, f"{node.name}.{m.name}") for m in node.body
                        if isinstance(m, kinds[:2]) and not m.name.startswith("__")
                        and m.name not in names]
        targets = [t for n in tree.body if isinstance(n, ast.Assign) for t in n.targets]
        targets += [n.target for n in tree.body if isinstance(n, ast.AnnAssign)]
        out += [(name, t.id) for target in targets for t in ast.walk(target)
                if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
                and not t.id.startswith("__") and (stem, t.id) not in read]
    return out


def test_every_definition_is_read():
    found = unread_definitions(sorted(SRC.glob("*.py")))
    assert sorted(set(found) - set(UNREAD_ALLOWED)) == []
    assert sorted(set(UNREAD_ALLOWED) - set(found)) == []      # no stale entry


def test_the_scan_sees_an_unread_definition(tmp_path):
    (tmp_path / "a.py").write_text("class A:\n"
                                   "    def __len__(self):\n"
                                   "        return 0\n"
                                   "    def used(self):\n"
                                   "        def nested():\n"
                                   "            return 1\n"
                                   "        return 1\n"
                                   "    def unused(self):\n"
                                   "        return 2\n"
                                   "def f():\n"
                                   "    return A().used()\n"
                                   "def g():\n"
                                   "    return 3\n"
                                   "class B:\n"
                                   "    pass\n")
    (tmp_path / "__init__.py").write_text("from .a import A, f, g\n")
    (tmp_path / "cli.py").write_text("from .a import A, f\n")
    # cli's import reads A and f, f reads used; a re-export from __init__ reads
    # nothing; nested defs and dunders are not scanned
    assert unread_definitions(sorted(tmp_path.glob("*.py"))) == [
        ("a.py", "A.unused"), ("a.py", "g"), ("a.py", "B")]


def test_the_scan_sees_a_function_behind_a_shared_attribute_name(tmp_path):
    (tmp_path / "a.py").write_text("def shared():\n"
                                   "    return 1\n"
                                   "def by_module():\n"
                                   "    return 2\n"
                                   "def by_import():\n"
                                   "    return 3\n"
                                   "class P:\n"
                                   "    @property\n"
                                   "    def shared(self):\n"
                                   "        return 0\n"
                                   "def f():\n"
                                   "    return P().shared\n")
    (tmp_path / "b.py").write_text("from . import a as m\n"
                                   "from .a import by_import\n"
                                   "def g():\n"
                                   "    return m.by_module() + by_import()\n")
    (tmp_path / "cli.py").write_text("from .a import f\n"
                                     "from .b import g\n")
    # P().shared reads the property, not the function; m.by_module reads a's
    assert unread_definitions(sorted(tmp_path.glob("*.py"))) == [("a.py", "shared")]


def test_the_scan_sees_an_unread_assignment(tmp_path):
    (tmp_path / "a.py").write_text("__all__ = ['f']\n"
                                   "LIMIT = 4\n"
                                   "UNUSED = 5\n"
                                   "A, (B, C) = 1, (2, 3)\n"
                                   "T: int = 0\n"
                                   "table = {}\n"
                                   "table['k'] = LIMIT\n"
                                   "def f():\n"
                                   "    local = 1\n"
                                   "    return A + C + table['k']\n")
    (tmp_path / "cli.py").write_text("from .a import f\n")
    # dunders, names read anywhere and names bound inside a def are not reported
    assert unread_definitions(sorted(tmp_path.glob("*.py"))) == [
        ("a.py", "UNUSED"), ("a.py", "B"), ("a.py", "T")]


def test_every_parameter_is_read():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in unused_parameters(path)]
    assert sorted(set(found) - set(UNUSED_ALLOWED)) == []
    assert sorted(set(UNUSED_ALLOWED) - set(found)) == []      # no stale entry


def test_the_scan_sees_an_unread_parameter(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("class A:\n"
                    "    def f(self, a, b, *c, d, **e):\n"
                    "        def g(x, y):\n"
                    "            return x + a\n"
                    "        b = 1\n"
                    "        return d + g(1, 2) + len(e)\n")
    # a is read by the nested g; b is only written
    assert unused_parameters(path) == [("m.py", "A.f", "b"), ("m.py", "A.f", "c"),
                                       ("m.py", "A.f.g", "y")]


def test_every_import_is_read():
    # __init__.py imports to re-export
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert [hit for path in paths if path.name != "__init__.py"
            for hit in unused_imports(path)] == []


def test_the_scan_sees_an_unread_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\n"
                    "import numpy as np\n"
                    "from enum import Enum\n"
                    "from typing import TYPE_CHECKING\n"
                    "from dataclasses import dataclass, field\n"
                    "if TYPE_CHECKING:\n"
                    "    from x import A, B\n"
                    "def f(a: A) -> \"B\":\n"
                    "    return np.zeros(1), os.sep\n")
    # annotations read A and B, the body np and os; Enum, dataclass and field go unread
    assert unused_imports(path) == [("m.py", "Enum"), ("m.py", "dataclass"), ("m.py", "field")]


def text_opens_without_encoding(path: Path) -> list[tuple[str, int]]:
    """(file, line) of every ``open()`` in text mode, the default, that names
    no encoding: the locale would choose one, so a file written on one machine
    could fail to read on another.  A mode that is not a literal counts as text."""
    out = []
    for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "open"):
            continue
        keywords = {k.arg: k.value for k in n.keywords}
        mode = n.args[1] if len(n.args) > 1 else keywords.get("mode")
        binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
        if not binary and "encoding" not in keywords and len(n.args) < 4:
            out.append((path.name, n.lineno))
    return out


def test_every_text_file_names_its_encoding():
    assert [hit for path in sorted(SRC.glob("*.py"))
            for hit in text_opens_without_encoding(path)] == []


def test_the_scan_sees_an_open_without_encoding(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("open('a')\n"
                    "open('a', 'w', newline='')\n"
                    "open('a', mode='rb')\n"
                    "open('a', 'wb')\n"
                    "open('a', 'r', -1, 'utf-8')\n"
                    "open('a', encoding='utf-8')\n"
                    "open('a', mode)\n"
                    "fh.open('a')\n")
    # binary modes and a named encoding pass; a mode not written out counts as text
    assert text_opens_without_encoding(path) == [("m.py", 1), ("m.py", 2), ("m.py", 7)]


def unset_defaults(paths: list[Path]) -> list[tuple[str, str, str]]:
    """(file, function, parameter) for every parameter with a default that no
    call in ``paths`` passes, by position or by keyword: a value no caller sets
    is a constant.  A call is matched to every ``def`` of its bare name, and a
    class name calls its ``__init__``; a ``*`` argument counts as passing every
    positional parameter, a ``**`` one every parameter."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    calls = {}      # bare name -> [(positional count, keyword names or None for **)]
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                positional = (float("inf") if any(isinstance(a, ast.Starred) for a in n.args)
                              else len(n.args))
                keywords = (None if any(k.arg is None for k in n.keywords)
                            else {k.arg for k in n.keywords})
                calls.setdefault(name, []).append((positional, keywords))
    out = []
    for file, tree in trees.items():
        methods = {id(m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for m in c.body}
        for qualified, fn in _functions(tree):
            a = fn.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            bound = 1 if id(fn) in methods and not static else 0     # self or cls
            name = qualified.split(".")[-2] if fn.name == "__init__" else fn.name
            ordered = a.posonlyargs + a.args
            defaulted = [(i - bound, p.arg, i < len(a.posonlyargs)) for i, p in
                         enumerate(ordered) if i >= len(ordered) - len(a.defaults)]
            defaulted += [(float("inf"), p.arg, False)
                          for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            out += [(file, qualified, p) for i, p, only_pos in defaulted
                    if not any(n > i or (not only_pos and (kws is None or p in kws))
                               for n, kws in calls.get(name, []))]
    return out


def test_every_default_is_set_by_a_caller():
    found = unset_defaults(sorted(SRC.glob("*.py")))
    assert sorted(set(found) - set(UNSET_DEFAULTS_ALLOWED)) == []
    assert sorted(set(UNSET_DEFAULTS_ALLOWED) - set(found)) == []      # no stale entry


def test_the_scan_sees_a_default_no_caller_sets(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("class A:\n"
                    "    def __init__(self, a, b=1, c=2):\n"
                    "        self.a = a\n"
                    "    def m(self, x=0, y=0):\n"
                    "        return x\n"
                    "    @staticmethod\n"
                    "    def s(x=0, y=0):\n"
                    "        return x\n"
                    "def f(a, /, b=1, *, c=2, d=3):\n"
                    "    return a\n"
                    "def g(a=1, b=2):\n"
                    "    return a\n"
                    "def h(a=1, *, b=2):\n"
                    "    return a\n"
                    "A(0, c=3).m(1)\n"
                    "A.s(1)\n"
                    "f(0, 1, d=4)\n"
                    "g(*[1, 2])\n"
                    "h(**{})\n")
    # a bound method's first argument fills the parameter after self; *args
    # reaches every positional parameter, **kwargs every parameter
    assert unset_defaults([path]) == [("m.py", "A.__init__", "b"), ("m.py", "A.m", "y"),
                                      ("m.py", "A.s", "y"), ("m.py", "f", "c")]
