"""Size budget, import and parameter hygiene of the package source."""

import ast
from pathlib import Path

# the ceiling of the project's design aim: the package may get faster and
# better checked, but not larger than this
MAX_SOURCE_LINES = 2380

SOURCES = sorted((Path(__file__).parents[1] / "src" / "utal").glob("*.py"))


def test_package_source_within_line_budget():
    assert SOURCES
    total = sum(len(path.read_text().splitlines()) for path in SOURCES)
    assert total <= MAX_SOURCE_LINES, f"src/utal/*.py holds {total} lines"


def unused_imports(source: str) -> list[str]:
    """Names an import statement binds that the module never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path.read_text()) for path in SOURCES}
    assert not any(found.values()), {name: hits for name, hits in found.items() if hits}


def unread_parameters(source: str) -> list[str]:
    """Parameters a def's or a lambda's body never reads; `self` and `_`-prefixed names aside."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]  # a lambda: one expression
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [
            f"line {node.lineno}: {getattr(node, 'name', 'lambda')}({name})"
            for name in params
            if name != "self" and not name.startswith("_") and name not in read
        ]
    return found


def test_no_function_takes_a_parameter_it_never_reads():
    found = {path.name: unread_parameters(path.read_text()) for path in SOURCES}
    assert not any(found.values()), {name: hits for name, hits in found.items() if hits}


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, and methods not named `__*__`, whose name no
    `ast.Name` or `ast.Attribute` in any of `sources` (file name -> text) reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for file_name, tree in trees.items():
        for node in tree.body:
            defs = [node] if isinstance(node, (*funcs, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [m for m in node.body if isinstance(m, funcs)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
            found += [f"{file_name}:{d.name}" for d in defs if d.name not in used]
    return found


def test_no_package_code_exists_only_for_tests():
    """Every definition is used by the package itself, not by its tests alone."""
    assert unreferenced_definitions({path.name: path.read_text() for path in SOURCES}) == []
