import ast
import sys
from pathlib import Path

import cyclocert


def test_every_exported_name_resolves():
    assert len(cyclocert.__all__) == len(set(cyclocert.__all__))
    missing = [name for name in cyclocert.__all__ if not hasattr(cyclocert, name)]
    assert missing == []


def test_star_import_is_clean():
    namespace: dict = {}
    exec("from cyclocert import *", namespace)
    exported = set(namespace) - {"__builtins__"}
    assert exported == set(cyclocert.__all__)


def test_runtime_imports_are_standard_library_only():
    # the package has no runtime dependencies: every absolute import in its
    # modules names a standard-library module; relative imports stay inside
    package = Path(cyclocert.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) >= 8
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
