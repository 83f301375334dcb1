"""Every public function and class in ``src/cacheopt`` has a caller.

Code that has no caller gets deleted.  So each public name defined at the top
level of a module must be exported in ``cacheopt.__all__`` or be named, as a
name or an attribute, somewhere in the package outside its own definition.
"""

import ast
from pathlib import Path

import cacheopt


def test_every_public_definition_is_exported_or_named():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(cacheopt.__file__).parent.glob("*.py"))}
    statements = [(module, stmt) for module, tree in trees.items() for stmt in tree.body]
    named = [{node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
              if isinstance(node, (ast.Name, ast.Attribute))} for _, stmt in statements]
    uncalled = []
    for i, (module, stmt) in enumerate(statements):
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
                and stmt.name not in cacheopt.__all__
                and not any(stmt.name in seen for j, seen in enumerate(named) if j != i)):
            uncalled.append(f"{module}:{stmt.name}")
    assert uncalled == []
