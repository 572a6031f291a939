import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import ledc

PACKAGE = Path(ledc.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_package_has_no_assert():
    """`python -O` strips assert statements, so a check in src/ledc must raise instead."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_json_encoding_with_indent():
    """`indent=` sends json.dump(s) through the pure-Python encoder; the CLI formats code files itself."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert found == []


def test_sources_parse_as_the_oldest_supported_python():
    """Every file in src/ledc and tests parses with the grammar of the oldest Python that pyproject.toml
    allows (3.10), through ast's feature_version. This checks grammar only, not standard-library APIs."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    oldest = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()))
    assert oldest == (3, 10)
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=oldest)


def entry_points():
    """[project.scripts] of pyproject.toml, name -> "module:function"; tomllib is new in Python 3.11."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    return dict(re.findall(r'^([\w.-]+)\s*=\s*"([^"]+)"\s*$', table, re.M))


def test_imported_distributions_are_declared():
    """Every module the tests import, the standard library, ledc and the tests' own modules aside,
    is a distribution named in `dependencies` or in the `test` extra of pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    lists = re.findall(r'^(?:dependencies|test) = \[(.*)\]$', text, re.M)
    assert len(lists) == 2
    declared = {name.lower().replace("-", "_") for name in re.findall(r'"([\w.-]+)', " ".join(lists))}
    files = sorted((ROOT / "tests").rglob("*.py"))
    own = {path.stem for path in files} | {"ledc"}
    imported = {
        name.split(".")[0]
        for path in files
        for node in ast.walk(parse(path))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
    }
    assert {"numpy", "pytest", "hypothesis"} <= imported
    assert sorted(imported - set(sys.stdlib_module_names) - own - declared) == []


def references(node):
    """How often each name, attribute and imported name occurs under one AST node."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else sub.name
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))
    )


def test_every_function_is_used():
    """No function or method in src/ledc that only tests call.

    A top-level function counts as used when the package refers to it
    outside its own body (another module imports it, or its own module calls
    it), when it is in `ledc.__all__`, when it is the CLI entry point, or
    when the benchmark's workloads call it. A method or property of a
    package class, dunders aside, counts as used when the package refers to
    its name outside its own body, or the benchmark's workloads do.
    """
    modules = [parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    nodes = [node for module in modules for node in module.body]
    names = [set(references(node)) for node in nodes]
    users = Counter(name for found in names for name in found)  # top-level statements per name
    scripts = entry_points()
    workloads = set(references(parse(ROOT / "perfbench" / "workloads.py")))
    outside = set(ledc.__all__) | {target.rsplit(":", 1)[1] for target in scripts.values()} | workloads
    unused = [
        node.name
        for node, found in zip(nodes, names)
        if isinstance(node, ast.FunctionDef)
        and node.name not in outside
        and users[node.name] == (node.name in found)
    ]
    mentions = sum(map(references, modules), Counter())
    unused += [
        f"{cls.name}.{method.name}"
        for cls in nodes
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and method.name not in workloads
        and mentions[method.name] == references(method)[method.name]
    ]
    assert unused == []


def test_every_import_is_used():
    """Each name a src/ledc module imports is referenced in that module; __init__.py re-exports, so it is aside."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{path.name}:{name}" for name in bound if name not in used]
    assert unused == []


def test_every_error_type_is_raised():
    """Each exception class in errors.py, the base class aside, is raised somewhere in src/ledc."""
    declared = {node.name for node in parse(PACKAGE / "errors.py").body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(declared - raised - {"LedcError"}) == []


def test_benchmark_contract_resolves():
    """The benchmark reaches into the package by name: every layer its tracer wraps imports as
    `ledc.<layer>`, and every `lib.<layer>.<attr>` its workloads call exists. Both files are only read."""
    bench = ROOT / "perfbench"
    layers = next(
        ast.literal_eval(node.value)
        for node in parse(bench / "tracer.py").body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    modules = {layer: importlib.import_module(f"ledc.{layer}") for layer in layers}
    calls = {
        (node.value.attr, node.attr)
        for node in ast.walk(parse(bench / "workloads.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and (getattr(node.value.value, "id", None) == "lib" or getattr(node.value.value, "attr", None) == "lib")
    }
    assert len(calls) >= 10
    modules.update((layer, importlib.import_module(f"ledc.{layer}")) for layer, _ in calls)
    missing = [f"{layer}.{attr}" for layer, attr in sorted(calls) if not hasattr(modules[layer], attr)]
    assert missing == []
