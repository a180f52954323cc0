"""No module of fusionkit runs code it builds at run time: every call to
the builtins ``eval``, ``exec`` or ``compile`` fails this test. Attribute
calls such as ``re.compile`` are fine."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fusionkit

PACKAGE = Path(fusionkit.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _builtin_code_calls(tree: ast.AST) -> list[tuple[int, str]]:
    return [(node.lineno, node.func.id) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("eval", "exec", "compile")]


def test_the_guard_sees_a_builtin_call_and_not_an_attribute_call() -> None:
    tree = ast.parse("import re\nre.compile('x')\nf = eval('lambda o: o')\n")
    assert _builtin_code_calls(tree) == [(3, "eval")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_module_calls_no_eval_exec_or_compile(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _builtin_code_calls(tree) == []
