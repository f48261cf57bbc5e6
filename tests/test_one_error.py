"""One failure class per exit code, all in `errors`.

`bp` promises the README's exit-code table; each failure code belongs to
one class of `speechbp.errors`, and no other module defines an exception
class, so the code a failure exits with never hangs on which of two
overlapping types a stage happened to raise.
"""

import ast
import builtins
import re
from pathlib import Path

import pytest

from speechbp import cli, errors

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "speechbp"
FAILURE_CLASSES = ("ConfigError", "MalformedArtifact", "InsufficientData",
                   "TrainingDiverged", "DegenerateInput")
BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                      if isinstance(obj, type)
                      and issubclass(obj, BaseException)}


def exception_classes(source: str, known: set) -> list:
    """Classes defined in `source` whose bases name one of `known` or an
    exception class defined earlier in the same source."""
    known = set(known)
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {b.id if isinstance(b, ast.Name) else b.attr
                 for b in node.bases
                 if isinstance(b, (ast.Name, ast.Attribute))}
        if bases & known:
            known.add(node.name)
            found.append(node.name)
    return found


def test_errors_defines_the_five_failure_classes():
    source = (SRC / "errors.py").read_text()
    assert tuple(exception_classes(source, BUILTIN_EXCEPTIONS)) \
        == FAILURE_CLASSES


def test_no_other_module_defines_an_exception_class():
    known = BUILTIN_EXCEPTIONS | set(FAILURE_CLASSES)
    others = {path.name: exception_classes(path.read_text(), known)
              for path in sorted(SRC.glob("*.py"))
              if path.name != "errors.py"}
    assert {name: found for name, found in others.items() if found} == {}


def test_guard_sees_exception_classes():
    source = ("class A(ValueError): pass\n"
              "class B(A): pass\n"
              "class C(errors.ConfigError): pass\n"
              "class D: pass\n"
              "class E(object): pass\n")
    assert exception_classes(source, BUILTIN_EXCEPTIONS | {"ConfigError"}) \
        == ["A", "B", "C"]


def readme_exit_code(name: str) -> int:
    """The code of the README exit-code row that names the class."""
    rows = re.findall(r"^\| (\d) \| (.*) \|$",
                      (ROOT / "README.md").read_text(), flags=re.M)
    codes = [int(code) for code, text in rows if f"`{name}`" in text]
    assert len(codes) == 1, f"{name} is named in {len(codes)} exit rows"
    return codes[0]


@pytest.mark.parametrize("name", FAILURE_CLASSES)
def test_each_class_exits_with_its_readme_code(name, monkeypatch, tmp_path,
                                               capsys):
    def stage(cfg):
        raise getattr(errors, name)("planted failure")
    monkeypatch.setattr(cli, "cmd_report", stage)
    code = cli.main(["report", "--workdir", str(tmp_path)])
    assert code == readme_exit_code(name)
    captured = capsys.readouterr()
    assert captured.err == "error: planted failure\n"
    assert captured.out == ""
