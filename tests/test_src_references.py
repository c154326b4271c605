"""Every public function and method in ``src/semidx`` is used by the program
or the benchmark: one that only tests call belongs in the tests
(``tests/oracles.py``). A use is a name, an attribute, an import alias or a
string constant (``bench/tracing.py`` names the methods it wraps by string)
anywhere in ``src/semidx/`` or ``bench/``. Likewise every field of a
``src/semidx`` dataclass is read there, as an attribute or a string: a field
only tests read is state the program carries for nothing."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semidx"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def public_defs(tree: ast.Module) -> dict[str, str]:
    """Qualified name -> bare name of each public module-level function and
    method of a module-level class."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = {}
    for node in tree.body:
        if isinstance(node, funcs):
            out[node.name] = node.name
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, funcs):
                    out[f"{node.name}.{member.name}"] = member.name
    return {qual: name for qual, name in out.items() if not name.startswith("_")}


def references(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def dataclass_fields(tree: ast.Module) -> dict[str, str]:
    """Qualified name -> bare name of each field of a module-level dataclass."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in references(d) for d in node.decorator_list):
            for member in node.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    out[f"{node.name}.{member.target.id}"] = member.target.id
    return out


def reads(tree: ast.Module) -> set[str]:
    """Attributes loaded and string constants: what can read a field."""
    return {node.attr if isinstance(node, ast.Attribute) else node.value
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Constant) and isinstance(node.value, str))}


def trees():
    src_trees = {p: parse(p) for p in sorted(SRC.glob("*.py"))}
    bench_trees = [parse(p) for p in sorted((ROOT / "bench").glob("*.py"))]
    assert src_trees and bench_trees
    return src_trees, [*src_trees.values(), *bench_trees]


def test_every_public_def_is_used_outside_the_tests():
    src_trees, all_trees = trees()
    used = set().union(*(references(t) for t in all_trees))
    unused = {f"{path.stem}.{qual}" for path, tree in src_trees.items()
              for qual, name in public_defs(tree).items() if name not in used}
    assert unused == set()


def test_every_dataclass_field_is_read_outside_the_tests():
    src_trees, all_trees = trees()
    read = set().union(*(reads(t) for t in all_trees))
    unread = {f"{path.stem}.{qual}" for path, tree in src_trees.items()
              for qual, name in dataclass_fields(tree).items() if name not in read}
    assert unread == set()
