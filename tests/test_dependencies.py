"""The package runs on the standard library alone: `dependencies = []`; the
CLI loads only the part of it that the commands run."""

import ast
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import slab_harmonics
from tracer import TARGETS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slab_harmonics"


def test_pyproject_declares_no_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_package_imports_only_itself_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:  # not an import, or a package-relative one
                continue
            outside += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside


def test_the_cli_imports_only_the_standard_library_it_runs():
    # -S: a site-packages .pth file may import some of these modules itself
    code = "import slab_harmonics.cli, sys; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(proc.stdout.split())
    unused = {"dataclasses", "inspect", "typing", "pathlib", "random", "contextlib",
              "argparse", "gettext", "slab_harmonics.randgen"}
    assert not loaded & unused
    # bench/tracer.py reads these from sys.modules right after importing the cli
    traced = {"cli", "poly", "laplace", "slab", "diffeq", "complex_oracle"}
    assert {f"slab_harmonics.{name}" for name in traced} <= loaded


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds: `import a.b` binds a."""
    return [alias.asname or alias.name.partition(".")[0] for alias in node.names]


def test_every_imported_name_is_used():
    # a name counts as used when the module reads it, or lists it in __all__
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                unused += [
                    f"{path.name}:{node.lineno}: {name}"
                    for name in _bound_names(node)
                    if name not in read
                ]
    assert not unused


def test_every_private_helper_is_read_in_the_package():
    # a module-level _name function or class that no module of the package
    # reads is code only the tests call
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = {
        node.name for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    assert defined and not defined - read


def test_every_public_name_is_reached():
    # a name in __all__ is read by another module of the package, imported
    # by the acceptance suite, or the last part of a bench tracer target
    read = {attr.rsplit(".", 1)[-1] for _, attr in TARGETS}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    acceptance = ROOT / "tests" / "test_acceptance.py"
    for node in ast.walk(ast.parse(acceptance.read_text(), str(acceptance))):
        if isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    assert [name for name in slab_harmonics.__all__ if name not in read] == []
