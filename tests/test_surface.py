"""The package defines no name, method or parameter default that its own code never uses.

A name that only tests read belongs in `tests/testkit.py` or its test, not
in `src/detmit`.  Each name below is kept although no `src/detmit` code
refers to it, for the reason given.  A method counts as used when any code
reads an attribute of its name, whatever the object, unless the object is a
builtin named as such (`int.from_bytes` uses no package method).

A parameter with a default that no package call passes is a constant: only
tests could set it.  Calls match a function by name, as uses match names: a
call of `f`, or of any `obj.f`, passes the parameters it names by keyword and
those its positional arguments reach (a `*args` reaches every position, a
`**kwargs` every name); a call of a class passes its `__init__`'s.

No module but `crypto` reads what a crypto object keeps private: its MAC
key and pad states, its master secret, salts, registries and streams.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path
from typing import Iterator

import detmit

SRC = Path(detmit.__file__).parent

# (module, name) -> why it stays with no reference in src/detmit
UNREFERENCED = {
    ("commands", "cmd_gen_instance"): "a click command; @main.command registers it",
    ("commands", "cmd_verify_pair"): "a click command; @main.command registers it",
    ("commands", "cmd_run"): "a click command; @main.command registers it",
    ("commands", "cmd_report"): "a click command; @main.command registers it",
    ("crypto", "snark_extract"): "the proof extractor gate 5 checks soundness with",
    ("cli", "run_batch"): "perfbench/harness.py and tests run the list form",
    ("wire", "pack_fields"): "perfbench/spans.py traces it by name",
    ("crypto", "StepMeter.step"): "perfbench/spans.py traces it by name",
}

# (module, function, parameter) -> why its default stays with no package call passing it
UNPASSED = {
    ("core", "run_dbd_trial", "trial_id"): "cli.run_trial passes it through its `runner` alias",
    ("core", "run_dbm_trial", "trial_id"): "cli.run_trial passes it through its `runner` alias",
}


def _defined(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The module-level functions, classes and constants of `tree`, and the
    methods of its classes as `Class.method`, with their nodes.

    Dunder names such as `__version__` or `__init__` are read by name from
    outside.
    """
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in out if not name.rpartition(".")[2].startswith("__")]


def unreferenced(src: Path) -> set[tuple[str, str]]:
    """(module, name) of each module-level definition under `src` that no code there uses.

    A use is a load of the name or an attribute of that name anywhere in
    the package, outside the name's own definition; an import is not one.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and hasattr(builtins, node.value.id)
            ):
                uses.setdefault(node.attr, []).append(node)
    out = set()
    for module, tree in trees.items():
        for name, definition in _defined(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if all(id(use) in inside for use in uses.get(name.rpartition(".")[2], ())):
                out.add((module, name))
    return out


def _functions(tree: ast.Module) -> Iterator[tuple[str, str, bool, ast.FunctionDef]]:
    """Each module-level function and method of `tree`, as (name, called, bound, node).

    `called` is the name its calls use: the class's own for `__init__`.
    `bound` is whether a call supplies its first parameter: not for a
    function or a static method.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, False, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    called = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", called, not static, item


def unpassed_defaults(src: Path) -> set[tuple[str, str, str]]:
    """(module, function, parameter) of each default under `src` that no call there passes."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passed(call: ast.Call, index: int | None, name: str) -> bool:
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        return index is not None and (
            len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
        )

    out = set()
    for module, tree in trees.items():
        for qualname, called, bound, node in _functions(tree):
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            first_default = len(positional) - len(args.defaults)
            offered = [
                (i - bound, a.arg) for i, a in enumerate(positional) if i >= first_default
            ] + [
                (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            for index, name in offered:
                if not any(passed(call, index, name) for call in calls.get(called, ())):
                    out.add((module, qualname, name))
    return out


def test_every_package_name_is_used_by_the_package():
    assert unreferenced(SRC) == set(UNREFERENCED)


def test_the_guard_counts_neither_imports_nor_self_references(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "def used(n):\n    return min(n, LIMIT)\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "class Helper:\n    pass\n"
        "class Box:\n"
        "    def __init__(self):\n        self.n = 0\n"
        "    def grow(self):\n        self.n += 1\n        return self.grow\n"
        "    def size(self):\n        return self.n\n"
        "    def spare(self):\n        return used(self.n)\n"
        "    def from_bytes(self):\n        return 0\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import Box, Helper, used\nprint(used(4), Box().size())\n"
        "print(int.from_bytes(b'', 'big'), bytes.fromhex(''))\n"
    )
    assert unreferenced(tmp_path) == {
        ("a", "recursive"), ("a", "Helper"), ("a", "Box.grow"), ("a", "Box.spare"),
        ("a", "Box.from_bytes"),
    }


# what crypto objects keep private: only `crypto` itself reads these
CRYPTO_PRIVATE = {
    "_mac", "_signed", "_inner", "_outer", "_mac_key", "_msk", "_salt", "_ciphers",
    "_registry", "_known", "_drbg",
}


def crypto_private_reads(src: Path) -> set[tuple[str, str]]:
    """(module, name) of each use of a `CRYPTO_PRIVATE` name outside `crypto`.

    A use is an attribute of that name on any object, or the name as a
    string, as `getattr` would take it.
    """
    out = set()
    for path in sorted(src.glob("*.py")):
        if path.stem == "crypto":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name in CRYPTO_PRIVATE:
                out.add((path.stem, name))
    return out


def test_no_module_but_crypto_reads_a_crypto_private():
    assert crypto_private_reads(SRC) == set()


def test_the_private_guard_reports_a_planted_read(tmp_path):
    (tmp_path / "crypto.py").write_text(
        "class Key:\n    def __init__(self):\n        self._mac = b''\n"
        "def sign(key):\n    return key._mac\n"
    )
    (tmp_path / "task.py").write_text(
        "from .crypto import Key, sign\n"
        "def forge(key, fhe):\n    return key._mac, getattr(fhe, '_msk'), sign(key)\n"
        "def fine(rng):\n    return rng._buf, '_mac and more'\n"
    )
    assert crypto_private_reads(tmp_path) == {("task", "_mac"), ("task", "_msk")}


def test_every_parameter_default_is_passed_by_the_package():
    assert unpassed_defaults(SRC) == set(UNPASSED)


def test_the_default_guard_counts_calls_by_keyword_position_and_class(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(a, b=1, *, c=2, d=3):\n    return a\n"
        "def g(a, b=1):\n    return a\n"
        "def h(a=1, b=2):\n    return a\n"
        "class K:\n"
        "    def __init__(self, x, y=0):\n        self.x = x\n"
        "    def m(self, p=1, q=2):\n        return p\n"
        "    @staticmethod\n"
        "    def s(p=1, q=2):\n        return p\n"
        "    def unused(self, r=0):\n        return r\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import K, f, g, h\n"
        "f(1, c=3)\n"  # b and d unpassed
        "g(1, 2)\n"
        "h(*[1, 2])\n"
        "K(1)\n"  # y unpassed
        "K(1).m(5)\n"  # q unpassed
        "K.s(4, **{})\n"
    )
    assert unpassed_defaults(tmp_path) == {
        ("a", "f", "b"), ("a", "f", "d"), ("a", "K.__init__", "y"), ("a", "K.m", "q"),
        ("a", "K.unused", "r"),
    }


# the modules that run every task alike, through the instance's own methods
TASK_BLIND = ("cli", "commands", "core")


def task_classes(src: Path) -> set[str]:
    """The classes under `src` that define `sample_pair`: the task instances."""
    return {
        node.name
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(getattr(item, "name", None) == "sample_pair" for item in node.body)
    }


def task_class_names(path: Path, classes: set[str]) -> set[str]:
    """The names in `classes` that the module at `path` imports, annotates with or reads.

    A quoted annotation counts as the expression it holds.
    """
    nodes = list(ast.walk(ast.parse(path.read_text())))
    for node in list(nodes):
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                nodes += ast.walk(ast.parse(note.value, mode="eval"))
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names & classes


def test_the_runner_and_the_cli_name_no_task_class():
    classes = task_classes(SRC)
    assert {"DataTaskInstance", "TimeTaskInstance", "ToyClassificationInstance"} <= classes
    assert {m: task_class_names(SRC / f"{m}.py", classes) for m in TASK_BLIND} == {
        m: set() for m in TASK_BLIND
    }


def test_the_task_class_guard_reports_an_import_an_annotation_and_a_branch(tmp_path):
    (tmp_path / "task.py").write_text(
        "class Ladder:\n    def sample_pair(self, rng):\n        return b'', b''\n"
        "class Chain:\n    def sample_pair(self, rng):\n        return b'', b''\n"
        "class Toy:\n    def sample_pair(self, rng):\n        return b'', b''\n"
        "class Model:\n    def __call__(self, x):\n        return x\n"
    )
    (tmp_path / "runner.py").write_text(
        "from . import task\nfrom .task import Ladder, Model\n"
        "def world(instance: 'Chain', seed) -> task.Toy:\n"
        "    return instance if isinstance(instance, Ladder) else Model()\n"
        "def fine(instance, seed):\n    return instance.world(seed), 'Chain'\n"
    )
    classes = task_classes(tmp_path)
    assert classes == {"Ladder", "Chain", "Toy"}
    assert task_class_names(tmp_path / "runner.py", classes) == classes
