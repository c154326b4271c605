"""The runtime dependency stays numpy only: every module of the package
imports from the standard library, numpy or semidx itself, nothing else."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semidx"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "semidx"}


def imported_roots(tree: ast.AST) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_src_imports_only_stdlib_numpy_and_semidx():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = {f"{path.name}: {root}" for path in modules
               for root in imported_roots(ast.parse(path.read_text(encoding="utf-8")))
               if root not in ALLOWED}
    assert outside == set()
