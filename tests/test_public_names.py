"""Every public function and class in the package has a caller in the package.

A public helper that no stage reaches is code that tests keep alive but the
pipeline never runs; this guard fails as soon as one appears.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "speechbp"


def _named(node) -> set:
    """Every identifier that node refers to as a Name or an Attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_definition_is_named_elsewhere():
    defined = []      # (module, name, defining node)
    top_nodes = []    # every top-level statement of every module
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            top_nodes.append(node)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.append((path.stem, node.name, node))
    uses = [(node, _named(node)) for node in top_nodes]
    unused = [f"{module}.{name}" for module, name, own in defined
              if not any(name in names for node, names in uses
                         if node is not own)]
    assert not unused, f"public names with no caller: {unused}"
