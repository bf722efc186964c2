import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import cyclocert
from cyclocert import cli, hunter


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



def test_no_module_imports_a_name_it_never_uses():
    # __init__ re-exports what it imports, so it is left out; every other
    # module must read each name it imports (no linter runs on the package)
    package = Path(cyclocert.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, line, name) for name, line in imported.items() if name not in used]
    assert unused == []

def test_every_memo_is_bounded():
    # memory may grow with what a call returns, never with the inputs a
    # process has seen: every functools cache the package defines, found
    # both as a decorator in the source and as a live object, has a maxsize
    package = Path(cyclocert.__file__).parent
    memos = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__main__.py":  # runs the command line on import
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorated = sum(
            ast.unparse(decorator).partition("(")[0] in {"lru_cache", "functools.lru_cache",
                                                         "cache", "functools.cache"}
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for decorator in node.decorator_list
        )
        module = importlib.import_module(
            "cyclocert" if path.stem == "__init__" else f"cyclocert.{path.stem}"
        )
        found = {}
        for name, value in vars(module).items():
            scopes = [(name, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                scopes += [(f"{name}.{attr}", getattr(member, "__func__", member))
                           for attr, member in vars(value).items()]
            found.update(
                (f"{module.__name__}.{qualified}", memo)
                for qualified, memo in scopes
                if hasattr(memo, "cache_parameters") and memo.__module__ == module.__name__
            )
        assert len(found) == decorated, (path.name, sorted(found))
        memos.update(found)
    assert {"cyclocert.cyclo._c_table_cached", "cyclocert.hunter._cluster_cached"} <= set(memos)
    unbounded = [name for name, memo in memos.items() if memo.cache_parameters()["maxsize"] is None]
    assert unbounded == []


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


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_every_reason_code():
    # a new reason code cannot land undocumented, nor a dropped one linger
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"stable reason codes \(([^)]*)\)", text).group(1)
    codes = re.findall(r"`([^`]+)`", listed)
    constants = {getattr(hunter, name) for name in dir(hunter) if name.startswith("REASON_")}
    assert len(codes) == len(set(codes))
    assert set(codes) == constants



def test_readme_lists_every_document_field_in_order():
    # the table under "Certificate documents" names exactly cli's fields
    text = README.read_text(encoding="utf-8")
    section = text.split("## Certificate documents", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    assert tuple(listed) == cli._DOCUMENT_KEYS

def test_readme_lists_every_environment_override():
    # the CYCLO_* variables named under "Environment overrides" are exactly
    # the string literals of that form in cli
    text = README.read_text(encoding="utf-8")
    section = text.split("Environment overrides:", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`(CYCLO_\w+)`", section))
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("CYCLO_")
    }
    assert read and documented == read
