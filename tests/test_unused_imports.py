"""No module of the package imports a top-level name it never uses.

An ``ast`` scan of every module under ``lucene_ray/``: a name bound by a
module-level ``import`` or ``from ... import`` must be read somewhere in
its module (attribute access, annotation, ``__all__`` entry), or be
imported from that module by another file of the repository (a
re-export, e.g. a name a test imports through a pipeline module). ``from
__future__`` imports and ``__init__.py`` files are exempt.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "lucene_ray")


def _py_files(top: str) -> List[str]:
    out = []
    for d, dirs, files in os.walk(top):
        dirs[:] = [x for x in dirs if not x.startswith((".", "__pycache__"))]
        out += [os.path.join(d, f) for f in files if f.endswith(".py")]
    return sorted(out)


def _module_name(path: str) -> str:
    rel = os.path.relpath(path, ROOT)[: -len(".py")]
    return rel.replace(os.sep, ".")


def _imported_names(tree: ast.Module) -> Dict[str, int]:
    """Names bound by the module's top-level imports → line."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    out[a.asname or a.name] = node.lineno
    return out


def _used_names(tree: ast.Module) -> Set[str]:
    """Names the module reads, also inside string annotations and
    ``__all__`` entries (strings that parse as an expression)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def _reexports() -> Set[Tuple[str, str]]:
    """(module, name) pairs some file of the repository imports by
    ``from module import name``."""
    out = set()
    for path in _py_files(ROOT):
        try:
            tree = ast.parse(open(path, encoding="utf-8").read())
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                out.update((node.module, a.name) for a in node.names)
    return out


def unused_imports() -> List[str]:
    reexported = _reexports()
    problems = []
    for path in _py_files(PACKAGE):
        if os.path.basename(path) == "__init__.py":
            continue
        tree = ast.parse(open(path, encoding="utf-8").read())
        used = _used_names(tree)
        mod = _module_name(path)
        for name, line in _imported_names(tree).items():
            if name not in used and (mod, name) not in reexported:
                problems.append(f"{os.path.relpath(path, ROOT)}:{line}: {name}")
    return problems


def test_no_unused_top_level_imports():
    problems = unused_imports()
    assert not problems, "unused imports:\n" + "\n".join(problems)


def test_scan_sees_an_unused_import():
    tree = ast.parse(
        "import os\nimport sys\nfrom typing import List, Set\n"
        "x: 'Set[int]' = set()\nprint(sys)\n"
    )
    imported = _imported_names(tree)
    used = _used_names(tree)
    assert sorted(n for n in imported if n not in used) == ["List", "os"]
