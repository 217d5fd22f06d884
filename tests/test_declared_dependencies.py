"""Every third-party module the test-suite imports is a declared dependency.

CI installs the package with ``pip install -e ".[test]"`` and then runs
this suite, so a test module that imports something outside the stdlib,
the repository and ``pyproject.toml``'s ``dependencies`` plus its ``test``
extra fails to collect on a clean machine.  This test reads the imports
with ``ast`` (nothing is imported) and the two requirement lists with a
regex, so it runs on Python 3.10, which has no ``tomllib``.
"""

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories whose top-level modules and packages tests may import
#: directly (``tests/test_bench_all.py`` puts ``benchmarks/`` on sys.path).
LOCAL_ROOTS = ("src", "tests", "benchmarks")


def _requirement_names(pyproject: str, key: str) -> set:
    """Import names of the requirements in the TOML array ``key = [...]``."""
    match = re.search(rf"^{re.escape(key)} = \[(.*?)^\]", pyproject, re.M | re.S)
    assert match, f"no `{key} = [...]` array in pyproject.toml"
    requirements = re.findall(r'"([A-Za-z0-9._-]+)', match.group(1))
    return {name.lower().replace("-", "_") for name in requirements}


def _local_names() -> set:
    names = set()
    for root in LOCAL_ROOTS:
        for path in (REPO_ROOT / root).iterdir():
            if path.suffix == ".py" or (path / "__init__.py").is_file():
                names.add(path.stem)
    return names


def _top_level_imports(path: Path):
    """(line, module) for each absolute import in the module body."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_test_imports_are_declared_dependencies():
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = _requirement_names(pyproject, "dependencies") | _requirement_names(
        pyproject, "test"
    )
    allowed = declared | _local_names() | set(sys.stdlib_module_names)
    undeclared = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {module}"
        for path in sorted((REPO_ROOT / "tests").rglob("*.py"))
        for line, module in _top_level_imports(path)
        if module not in allowed
    ]
    assert not undeclared, (
        "test modules import packages missing from pyproject.toml's "
        "`dependencies` and `test` extra:\n" + "\n".join(undeclared)
    )
