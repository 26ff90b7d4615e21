"""numpy is the package's only runtime dependency: every absolute import in
``src/discrel`` names a standard-library module or numpy."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "discrel"


def absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_the_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    outside = [f"{path.name}: {name}" for path in modules for name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert outside == []
