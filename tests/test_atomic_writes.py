"""Every file the package writes goes through ``model.atomic_writer``, so a
stage that fails part-way leaves the previous file or none, never a cut one.
The only ``open`` calls that write are the temp file inside
``atomic_writer`` and the streamed log of ``cli._jsonl_logger``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semidx"
ALLOWED = {("model.py", "atomic_writer"), ("cli.py", "_jsonl_logger")}


def opens_for_writing(call: ast.Call) -> bool:
    """``open(path, mode)`` or ``path.open(mode)`` with a write, append,
    create or update mode (or one that is not a literal), or
    ``path.write_text``/``write_bytes``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    position = 1 if isinstance(func, ast.Name) else 0
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[position] if len(call.args) > position else None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(set(mode.value) & set("wax+"))


def writing_calls(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call that opens a file for writing."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and opens_for_writing(child):
                found.append((where, child.lineno))
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_detector_sees_each_form():
    calls = ('open(p, "w")', 'open(p, mode="ab")', 'p.open("x")', 'open(p, "r+")',
             "open(p, m)", "p.write_text(s)", "p.write_bytes(b)")
    assert all(writing_calls(ast.parse(c)) for c in calls)
    assert not any(writing_calls(ast.parse(c))
                   for c in ("open(p)", 'open(p, "rb")', 'p.open()', 'p.read_text()'))


def test_files_are_written_only_through_atomic_writer():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    bare = [f"{path.name}:{line} in {where}" for path in modules
            for where, line in writing_calls(ast.parse(path.read_text(encoding="utf-8")))
            if (path.name, where) not in ALLOWED]
    assert bare == []
