"""Import rules between the package's modules."""

import ast
from pathlib import Path

import scenestruct

PACKAGE = Path(scenestruct.__file__).parent


def _module_name(path: Path) -> str:
    parts = ("scenestruct", *path.relative_to(PACKAGE).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_module(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """The absolute name of the module a from-import reads from."""
    if not node.level:
        return node.module or ""
    base = module.split(".")
    base = base[: len(base) - node.level + (1 if is_package else 0)]
    return ".".join([*base, *([node.module] if node.module else [])])


def test_no_private_imports_across_modules():
    """No module imports a private (underscore) name from another
    scenestruct module: a name two modules share is public."""
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = _imported_module(node, module, path.name == "__init__.py")
            if source.split(".")[0] != "scenestruct" or source == module:
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: "
                                     f"from {source} import {alias.name}")
    assert offenders == []
