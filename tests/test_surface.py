"""The package defines no module-level name or method that its own code never uses.

A name that only tests read belongs in `tests/testkit.py` or its test, not
in `src/detmit`.  Each name below is kept although no `src/detmit` code
refers to it, for the reason given.  A method counts as used when any code
reads an attribute of its name, whatever the object, unless the object is a
builtin named as such (`int.from_bytes` uses no package method).
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

import detmit

SRC = Path(detmit.__file__).parent

# (module, name) -> why it stays with no reference in src/detmit
UNREFERENCED = {
    ("cli", "cmd_gen_instance"): "a click command; @main.command registers it",
    ("cli", "cmd_verify_pair"): "a click command; @main.command registers it",
    ("cli", "cmd_run"): "a click command; @main.command registers it",
    ("cli", "cmd_report"): "a click command; @main.command registers it",
    ("crypto", "snark_extract"): "the proof extractor gate 5 checks soundness with",
    ("wire", "pack_fields"): "perfbench/spans.py traces it by name",
    ("crypto", "StepMeter.step"): "perfbench/spans.py traces it by name",
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
