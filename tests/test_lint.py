"""Static checks on the package source, with the standard library's ``ast``."""

import ast
import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gfgpda"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# The paper's constructions and the DPA writer stay in the package without a
# caller there; zoo.py is the fixture corpus, whose entries tests pick by name.
KEPT = {"compose_sigma_d", "moore_as_pdt", "format_dpa"}
LIBRARY = [p for p in MODULES if p.name != "zoo.py"]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``from __future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unused_private_names(source: str) -> list[str]:
    """Module-level private functions, classes and constants the module never reads.

    Private means one leading underscore; dunder names such as ``__all__``
    are left alone.
    """
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {line}: {name}" for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def names_in(tree: ast.AST) -> set[str]:
    """Identifiers a tree names: names, attributes, imported names, and
    strings that are identifiers (the benchmark names what it wraps in strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and str(node.value).isidentifier():
            out.add(node.value)
    return out


def uncalled_public_names(source: str, elsewhere: set[str]) -> list[str]:
    """Public module-level functions and classes that neither the rest of
    the module (outside their own definition) nor ``elsewhere`` names."""
    tree = ast.parse(source)
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            rest = ast.Module([n for n in tree.body if n is not node], [])
            if node.name not in elsewhere and node.name not in names_in(rest):
                out.append(f"line {node.lineno}: {node.name}")
    return out


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports of a source."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def stack_reads(source: str) -> list[str]:
    """Reads of a ``.stack`` attribute: a configuration's stack tuple is an
    O(height) view that only ``core`` builds."""
    return [
        f"line {node.lineno}: .stack" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "stack"
        and isinstance(node.ctx, ast.Load)
    ]


def declared_hooks(source: str) -> set[str]:
    """The methods the class ``Resolver`` defines."""
    cls = next(node for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef) and node.name == "Resolver")
    return {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}


def undeclared_hooks(source: str, hooks: set[str]) -> list[str]:
    """Public methods of ``Resolver`` subclasses (in this source, at any
    depth) outside ``hooks``: an override of a hook that ``Resolver`` no
    longer declares is dead code that still looks live."""
    subclasses, out = {"Resolver"}, []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and subclasses & names_in(ast.Module(node.bases, [])):
            subclasses.add(node.name)
            out += [f"line {item.lineno}: {node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_") and item.name not in hooks]
    return out


def body_key(fn: ast.FunctionDef) -> str:
    """A function's parameters and body, without its name, docstring and
    annotations, with each parameter renamed by its position."""
    fn = copy.deepcopy(fn)
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
    names = {p.arg: f"_{i}" for i, p in enumerate(params)}
    for p in params:
        p.arg, p.annotation = names[p.arg], None
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id in names:
            node.id = names[node.id]
    if ast.get_docstring(fn) is not None:
        fn.body = fn.body[1:]
    fn.name, fn.returns = "", None
    return ast.dump(fn)


def duplicate_bodies(sources: dict[str, str]) -> list[str]:
    """Each function or method, at any depth, of ``sources`` (a name per
    source text) whose ``body_key`` an earlier one has, with that one."""
    seen, out = {}, []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                where = f"{name}:{node.lineno} {node.name}"
                first = seen.setdefault(body_key(node), where)
                if first != where:
                    out.append(f"{where} repeats {first}")
    return out


def test_the_check_sees_an_unused_import():
    source = "from .core import Configuration, step\n\nConfiguration('q', ())\n"
    assert unused_imports(source) == ["line 1: step"]
    assert unused_imports("import os.path\n\nos.sep\n") == []


def test_the_check_sees_an_unused_private_name():
    source = (
        "def _used():\n    return _LIMIT\n\n"
        "def _flags(t):\n    return 1\n\n"
        "_LIMIT = 3\n_DEAD: int = 4\n__all__ = []\n\n"
        "class _Gone:\n    pass\n\n"
        "def public():\n    _x = 1\n    return _used()\n"
    )
    assert unused_private_names(source) == [
        "line 4: _flags", "line 8: _DEAD", "line 11: _Gone",
    ]


def test_the_check_sees_an_uncalled_public_name():
    source = (
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Exported:\n    pass\n\n"
        "def orphan():\n    return used()\n"
    )
    assert uncalled_public_names(source, {"Exported"}) == [
        "line 7: recursive", "line 13: orphan",
    ]
    assert names_in(ast.parse("wrap('games', 'simulate_play', 'a b')")) >= {"simulate_play"}


def test_the_check_sees_an_imported_module():
    source = (
        "import os.path\nfrom dataclasses import dataclass\nfrom . import core\n"
        "from .games import solve\n\ndef f():\n    import inspect\n"
    )
    assert imported_modules(source) == {"os", "dataclasses", "inspect"}


def test_the_check_sees_a_stack_read():
    source = (
        "def top(config):\n    return config.stack[-1]\n\n"
        "def height(config):\n    return config.frame.height\n\n"
        "class Holder:\n    def __init__(self):\n        self.stack = []\n"
    )
    assert stack_reads(source) == ["line 2: .stack"]


def test_the_check_sees_an_undeclared_resolver_hook():
    source = (
        "class Resolver:\n    def start(self):\n        pass\n\n"
        "    def key(self, state, w):\n        return None\n\n"
        "class Moore(resolvers.Resolver):\n    def key(self, state, w):\n        return state\n\n"
        "    def summary(self, state):\n        return state\n\n"
        "    def _index(self):\n        return {}\n\n"
        "class Lifted(Moore):\n    def __init__(self, base):\n        self.base = base\n\n"
        "    def fingerprint(self, state):\n        return state\n\n"
        "class Other:\n    def summary(self):\n        return 0\n"
    )
    assert declared_hooks(source) == {"start", "key"}
    assert undeclared_hooks(source, declared_hooks(source)) == [
        "line 12: Moore.summary", "line 22: Lifted.fingerprint",
    ]


def test_the_check_sees_a_duplicate_body():
    first = (
        "def pair_id(a1: str, a2: str) -> str:\n    return f'({a1},{a2})'\n\n"
        "class Machine:\n    def start(self):\n        \"\"\"Doc.\"\"\"\n"
        "        return self.close(self.initial)\n"
    )
    second = (
        "def pair_letter(x, y):\n    return f'({x},{y})'\n\n"
        "def swapped(x, y):\n    return f'({y},{x})'\n\n"
        "class Strategy:\n    def start(self) -> int:\n        return self.close(self.initial)\n\n"
        "    def final(self):\n        return self.close(self.final)\n\n"
        "    def with_arg(self, x):\n        return self.close(self.initial)\n\n"
        "def outer(n):\n    def inner(t):\n        return f'({t},{n})'\n    return inner\n"
    )
    assert duplicate_bodies({"a.py": first, "b.py": second}) == [
        "b.py:1 pair_letter repeats a.py:1 pair_id",
        "b.py:8 start repeats a.py:5 start",
    ]


def test_the_package_has_modules():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_public_names_have_a_caller(path):
    """Code that only tests call belongs in tests/helpers.py.  A caller is
    another package module, the benchmark or an export of ``gfgpda``."""
    callers = [p for p in SRC.glob("*.py") if p != path]
    callers += sorted((ROOT / "benchmark").glob("*.py"))
    elsewhere = KEPT.union(*(names_in(ast.parse(p.read_text())) for p in callers))
    assert uncalled_public_names(path.read_text(), elsewhere) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_resolvers_define_only_declared_hooks(path):
    hooks = declared_hooks((SRC / "resolvers.py").read_text())
    assert hooks == {"start", "feed", "pick", "key"}
    assert undeclared_hooks(path.read_text(), hooks) == []


def test_no_two_functions_have_the_same_body():
    """A second copy is one more place to keep in step: define it once and
    import it."""
    assert duplicate_bodies({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"],
                         ids=lambda p: p.name)
def test_only_core_reads_a_stack_tuple(path):
    assert stack_reads(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    """``core.Record`` stands in for them: generating the methods of the
    package's classes took most of its import time."""
    assert "dataclasses" not in imported_modules(path.read_text())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, gfgpda.cli, gfgpda.zoo\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
