"""Every top-level import in the package modules and the tests is used.

No linter is a dependency of negsim, so this AST scan keeps unused imports
out. The package's `__init__.py` only re-exports and is skipped; an import
line marked `# noqa: F401` is kept on purpose (a name other code looks up
by module). A child interpreter also checks that importing negsim loads no
scipy module, and none of the modules the package loads on first use.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "negsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def unused_imports(source: str):
    """(line, name) of each module-level import binding no other code reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in "\n".join(lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((node.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for note in annotations(tree):  # quoted annotations hold names too
        for node in ast.walk(note):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom typing import List, Tuple\nx: 'List[int]' = []\n"
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


def test_import_negsim_loads_no_scipy():
    code = "import sys, negsim, negsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr


def test_import_negsim_loads_no_oracle_polymer_or_analysis():
    # they load on first use of one of their names; each cost 5-9 ms per import
    code = (
        "import sys, negsim; lazy = ('analysis', 'oracle', 'polymer');"
        " print(sorted(m for m in lazy if 'negsim.' + m in sys.modules));"
        " negsim.kpz_scan, negsim.oracle.DenseState, negsim.SweepSpec;"
        " print(sorted(m for m in lazy if 'negsim.' + m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "['analysis', 'oracle', 'polymer']"]


def test_every_public_name_resolves():
    import negsim

    for name in negsim.__all__:
        assert getattr(negsim, name) is not None, name
    for module in ("analysis", "oracle", "polymer"):
        assert getattr(negsim, module).__name__ == f"negsim.{module}"
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        negsim.nope
