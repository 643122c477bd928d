"""Guards on the shape of the package source."""

import ast
from pathlib import Path

import bohrsound

SRC = Path(bohrsound.__file__).parent


def test_every_top_level_name_is_used_or_exported():
    # a def or class that no other module names and the package does not
    # export is test-only code; it belongs in tests/oracles.py
    defined = {}
    named = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in named and name not in bohrsound.__all__)
    assert unused == []
