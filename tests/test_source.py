"""Guards on the shape of the package source."""

import ast
import importlib.util
import inspect
import re
from collections import Counter
from pathlib import Path

import bohrsound

SRC = Path(bohrsound.__file__).parent
ROOT = Path(__file__).parents[1]


def _named_in_src() -> set[str]:
    """Every name, attribute and imported name that src/ code uses, outside
    the package's export list in __init__."""
    named = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return named


def test_every_top_level_name_is_used_or_exported():
    # a def or class that no other module names and the package does not
    # export is test-only code; it belongs in tests/oracles.py
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
    named = _named_in_src()
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in named and name not in bohrsound.__all__)
    assert unused == []


def test_every_export_has_a_caller():
    # an exported function or class earns its place by a caller in src/ (the
    # CLI's routes included), an acceptance criterion or the benchmark, which
    # names the layers it wraps as strings; any other export is a
    # library-only route, to be deleted or moved to tests/oracles.py
    named = _named_in_src()
    for path in [ROOT / "tests" / "test_acceptance.py",
                 *sorted((ROOT / "perfbench").glob("*.py"))]:
        named |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    uncalled = [name for name in bohrsound.__all__
                if (inspect.isfunction(getattr(bohrsound, name))
                    or inspect.isclass(getattr(bohrsound, name)))
                and name not in named]
    assert uncalled == []


def _trees():
    """The parsed modules of src/, and those trees together with the
    acceptance criteria and the benchmark, whose uses also count."""
    src = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}
    users = [ast.parse(path.read_text(encoding="utf-8"))
             for path in [ROOT / "tests" / "test_acceptance.py",
                          *sorted((ROOT / "perfbench").glob("*.py"))]]
    return src, [*src.values(), *users]


def _members(src):
    """(class object, class node, method node) for every method in src/."""
    for stem, tree in src.items():
        module = importlib.import_module(f"bohrsound.{stem}")
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for member in cls.body:
                    if isinstance(member, ast.FunctionDef):
                        yield getattr(module, cls.name, None), cls, member


def _attributes(tree) -> Counter:
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute))


def _reads(tree) -> Counter:
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def _calls(tree) -> Counter:
    return Counter(node.func.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute))


def test_every_class_member_is_named():
    # a method or property earns its place by being named as an attribute
    # outside its own body: in src/, an acceptance criterion or the
    # benchmark; any other member is test-only code
    src, trees = _trees()
    named = sum(map(_attributes, trees), Counter())
    unnamed = [f"{cls.name}.{member.name}" for _, cls, member in _members(src)
               if not member.name.startswith("__")
               and named[member.name] == _attributes(member)[member.name]]
    assert unnamed == []


def test_every_stored_attribute_is_read():
    # state a class keeps on self earns its place by a read outside the
    # method that stores it; an exception's witness is for its callers
    src, trees = _trees()
    reads = sum(map(_reads, trees), Counter())
    unread = sorted({f"{cls.name}.{node.attr}"
                     for obj, cls, member in _members(src)
                     if not (isinstance(obj, type)
                             and issubclass(obj, BaseException))
                     for node in ast.walk(member)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Store)
                     and isinstance(node.value, ast.Name)
                     and node.value.id == "self"
                     and reads[node.attr] == _reads(member)[node.attr]})
    assert unread == []


def test_every_method_is_called():
    # a plain method earns its place by a call outside its own body; a bare
    # x.name is no proof, as another class may have a field of that name
    src, trees = _trees()
    calls = sum(map(_calls, trees), Counter())
    uncalled = [f"{cls.name}.{member.name}" for _, cls, member in _members(src)
                if not member.name.startswith("__")
                and not {"property", "cached_property"} & {
                    ast.unparse(d) for d in member.decorator_list}
                and calls[member.name] == _calls(member)[member.name]]
    assert uncalled == []


def test_traced_layers_name_existing_functions():
    # perfbench/tracing.py wraps each LAYERS function by name, so a rename
    # in src/ would crash every traced benchmark run; read it, install nothing
    path = ROOT / "perfbench" / "tracing.py"
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
    assert "smith_normal_form" not in names


def test_no_family_wide_prime():
    # every table is computed at its own group's prime; the family-wide
    # prime is kept only as the reference route in tests/oracles.py
    assert "common_prime" not in bohrsound.__all__
    assert [path.name for path in SRC.glob("*.py")
            if "common_prime" in path.read_text(encoding="utf-8")] == []


def test_descriptor_fields_are_read_by_one_walker():
    # descriptors.SCHEMAS and its walker decide every descriptor field; the
    # per-site field readers they replaced must not come back
    readers = re.compile(r"\b(require_field|optional_field|check_schema)\b")
    assert [path.name for path in SRC.glob("*.py")
            if readers.search(path.read_text(encoding="utf-8"))] == []


def test_only_main_prints_in_cli():
    # every handler returns its answer as (JSON document, text lines, exit
    # code) and main alone prints it, so both formats print one answer
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))

    def writes(node) -> bool:
        return any((isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "print")
                   or (isinstance(n, ast.Attribute) and n.attr == "stdout")
                   for n in ast.walk(node))

    printers = [fn.name for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and fn.name != "main" and writes(fn)]
    printers += [f"line {stmt.lineno}" for stmt in tree.body
                 if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                 and writes(stmt)]
    assert printers == []
    assert any(fn.name == "main" and writes(fn) for fn in tree.body
               if isinstance(fn, ast.FunctionDef))
