"""The package runs in one process and one thread.

A sweep solves its points in the calling process, so no module in
``src/cacheopt`` imports a process pool or a thread API: each row depends only
on its own point, and several cores are used by splitting a grid across
``cacheopt sweep`` processes.
"""

import ast
from pathlib import Path

import cacheopt

CONCURRENCY = ("concurrent", "multiprocessing", "threading")


def test_no_module_imports_a_concurrency_api():
    found = []
    for path in sorted(Path(cacheopt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{name}" for name in names
                      if name.split(".")[0] in CONCURRENCY]
    assert found == []
