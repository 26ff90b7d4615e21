"""What the package's source may depend on: every absolute import in
``src/discrel`` names a standard-library module or numpy, and every public
op of ``tensor`` has a caller in the package, so no test-only code lives in
``src/``."""

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


# A Tensor operator calls the op of the same name.
OPERATORS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.MatMult: "matmul"}


def tensor_names_used(path: Path) -> set[str]:
    """Names of ``tensor`` that ``path`` uses: as an attribute of the module
    imported under any alias, imported by name, or through an operator."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name == "tensor"}
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("tensor"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in OPERATORS:
            names.add(OPERATORS[type(node.op)])
    return names


def test_every_public_tensor_op_has_a_caller_in_the_package():
    from discrel import tensor

    used = set().union(*(tensor_names_used(path) for path in PACKAGE.glob("*.py")
                         if path.name != "tensor.py"))
    assert sorted(set(tensor.__all__) - used) == []
