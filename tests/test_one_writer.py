"""Only `artifacts` writes files.

Every artifact goes through its one atomic writer, so a crash leaves each
file whole; this guard fails as soon as another module opens a file for
writing, writes one through pathlib, or renames one into place.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "speechbp"


def _opens_for_writing(call: ast.Call) -> bool:
    """open(...) or x.open(...) with a mode that writes."""
    func = call.func
    is_open = ((isinstance(func, ast.Name) and func.id == "open")
               or (isinstance(func, ast.Attribute) and func.attr == "open"))
    if not is_open:
        return False
    position = 1 if isinstance(func, ast.Name) else 0
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    if len(call.args) > position:
        modes.append(call.args[position])
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and set(m.value) & set("wax+") for m in modes)


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_text", "write_bytes"):
            return True
        if (func.attr == "replace" and isinstance(func.value, ast.Name)
                and func.value.id == "os"):
            return True
    return _opens_for_writing(call)


def write_sites() -> list:
    sites = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "artifacts.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _writes(node)]
    return sites


def test_only_artifacts_writes_files():
    assert write_sites() == []


def test_guard_sees_every_kind_of_write():
    source = "\n".join([
        "open(p, 'w')", "open(p, mode='wb')", "open(p, 'a')",
        "open(p, 'x')", "p.open('w')", "p.write_text(s)",
        "p.write_bytes(b)", "os.replace(a, b)",
        "open(p)", "open(p, 'rb')", "p.read_text()", "s.replace(a, b)"])
    calls = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)]
    flagged = [ast.unparse(c) for c in calls if _writes(c)]
    assert flagged == ["open(p, 'w')", "open(p, mode='wb')", "open(p, 'a')",
                       "open(p, 'x')", "p.open('w')", "p.write_text(s)",
                       "p.write_bytes(b)", "os.replace(a, b)"]
