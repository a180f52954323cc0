"""Only ``jsontypes`` parses JSON text in fusionkit: every JSON input goes
through ``jsontypes.json_object``, so that one place decides what is not
valid JSON and names it. Any ``json.loads``, ``json.load``,
``JSONDecoder`` or ``raw_decode`` in another module fails this test,
unless ``EXCEPTIONS`` names the function it sits in. An entry of
``EXCEPTIONS`` that matches nothing fails too, so the table only
shrinks."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fusionkit

PACKAGE = Path(fusionkit.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "jsontypes.py")

_PARSERS = {"loads", "load", "JSONDecoder", "raw_decode"}

# (module, function) -> why it parses JSON text itself
EXCEPTIONS = {
    ("risk_qa", "_extract_json"):
        "a chat reply may carry prose after its JSON, which only a prefix "
        "parse (raw_decode) reads",
}


def _json_parses(tree: ast.AST) -> list[tuple[str, int, str]]:
    """(enclosing function, line, name) of each JSON parser the module
    names: ``json.<parser>``, ``<anything>.raw_decode``, or a parser
    imported by name from ``json``. Code outside any function is ``""``."""
    found: list[tuple[str, int, str]] = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and (
                node.attr == "raw_decode" or node.attr in _PARSERS
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append((function, node.lineno, node.attr))
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend((function, node.lineno, alias.name)
                         for alias in node.names if alias.name in _PARSERS)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")
    return found


def _module_parses(path: Path) -> list[tuple[str, int, str]]:
    return _json_parses(ast.parse(path.read_text(encoding="utf-8"),
                                  filename=str(path)))


def test_the_guard_sees_each_parser_and_not_a_writer() -> None:
    tree = ast.parse(
        "import json\n"
        "from json import JSONDecoder as D, dumps\n"
        "ROW = json.loads('{}')\n"
        "def f(handle, text):\n"
        "    json.dump({}, handle)\n"
        "    return json.load(handle), json.JSONDecoder().raw_decode(text)\n")
    assert _json_parses(tree) == [
        ("", 2, "JSONDecoder"), ("", 3, "loads"), ("f", 6, "load"),
        ("f", 6, "raw_decode"), ("f", 6, "JSONDecoder")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_leaves_json_parsing_to_jsontypes(path: Path) -> None:
    assert [(function, line, name)
            for function, line, name in _module_parses(path)
            if (path.stem, function) not in EXCEPTIONS] == []


@pytest.mark.parametrize("owner, function", sorted(EXCEPTIONS))
def test_every_exception_still_parses_json(owner: str, function: str) -> None:
    assert any(found == function
               for found, _, _ in _module_parses(PACKAGE / f"{owner}.py"))
