"""Rules about which module owns what, checked on the source."""

import ast
import importlib
import pkgutil
from pathlib import Path

import qsteenrod

PACKAGE = Path(qsteenrod.__file__).parent

# The Weyl-algebra route: the algebra API and the reference the tests compare
# the monomial rules with.  No computation outside these modules takes it.
WEYL_ROUTE = {"weyl_apply", "weyl_compose", "make_pk", "dual_pk", "make_p_lambda"}
WEYL_OWNERS = {"weyl", "steenrod", "__init__"}


def _mentioned_names(tree):
    """Every name a module mentions, however it is reached: imported by name
    (aliased or not) or from a module, read as an attribute of a module
    (``weyl.weyl_apply``, ``s.make_pk``), or looked up by string."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)
            if isinstance(node, ast.ImportFrom) and node.module:
                yield node.module
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_only_the_algebra_modules_take_the_weyl_route():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in WEYL_OWNERS:
            continue
        names = set(_mentioned_names(ast.parse(path.read_text()))) & WEYL_ROUTE
        offenders.extend(f"{path.name}: {name}" for name in sorted(names))
    assert offenders == []


def test_only_factor_over_z_names_sympy():
    """Importing sympy costs about 33 MB of RSS and 0.4 s, so only the body of
    `specialize.factor_over_z`, which splits a rootless cofactor, may name it."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem == "specialize":
            tree.body = [
                node
                for node in tree.body
                if not (isinstance(node, ast.FunctionDef) and node.name == "factor_over_z")
            ]
        names = {name.split(".")[0] for name in _mentioned_names(tree)}
        if "sympy" in names:
            offenders.append(path.name)
    assert offenders == []


def test_every_cache_is_bounded():
    sizes = {}
    for info in pkgutil.iter_modules(qsteenrod.__path__):
        module = importlib.import_module(f"qsteenrod.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                sizes[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert {"spaces.harm_component", "isotypic.block_basis"} <= set(sizes)
    assert [name for name, size in sizes.items() if size is None] == []
