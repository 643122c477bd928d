"""Guards on the shape of the package source."""

import ast
import importlib.util
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


def test_traced_layers_name_existing_functions():
    # perfbench/tracing.py wraps each LAYERS function by name, so a rename
    # in src/ would crash every traced benchmark run; read it, install nothing
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}"
               for module, names in tracing.LAYERS.values() for name in names
               if not callable(getattr(importlib.import_module(
                   f"bohrsound.{module}"), name, None))]
    assert missing == []


def test_lie_runs_no_smith_normal_form():
    # the Lie invariants are counted on the gluing subgroup's rows; the
    # pure-Python Smith normal form is cubic in the factors it touches
    tree = ast.parse((SRC / "lie.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    assert not names & {"smith_normal_form", "snf_diagonal"}


def test_no_family_wide_prime():
    # every table is computed at its own group's prime; the family-wide
    # prime is kept only as the reference route in tests/oracles.py
    assert "common_prime" not in bohrsound.__all__
    assert [path.name for path in SRC.glob("*.py")
            if "common_prime" in path.read_text(encoding="utf-8")] == []
