import ast
import subprocess
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


# runs coeff, scan and hunt through cli.main and prints the exit codes, then
# the top-level names of the modules loaded since the interpreter started;
# argv[1] is the directory holding the package under test
RUN_COMMANDS = """
import contextlib, io, sys
started = set(sys.modules)
sys.path.insert(0, sys.argv[1])
from cyclocert import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["coeff", "a", "105", "7"]),
        cli.main(["scan", "--m", "6", "--nmax", "20"]),
        cli.main(["hunt", "--m", "30", "--value", "3", "--mode", "a"]),
    ]
print(codes)
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - started}))
"""


def test_commands_load_standard_library_modules_only():
    # the zero-runtime-dependency rule, checked on what the commands import
    # at run time rather than on the import statements alone
    package_dir = str(Path(cyclocert.__file__).parent.parent)
    child = subprocess.run(
        [sys.executable, "-I", "-c", RUN_COMMANDS, package_dir],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    codes, loaded = child.stdout.splitlines()
    assert codes == "[0, 0, 0]"
    assert "cyclocert" in loaded.split()
    outside = set(loaded.split()) - set(sys.stdlib_module_names) - {"cyclocert"}
    assert outside == set()
