"""Module boundaries: no relusafe module reaches into another's private names."""

import ast
from pathlib import Path

import relusafe

PACKAGE = Path(relusafe.__file__).parent


def _module_name(node):
    """Dotted relusafe module a ``from ... import`` statement reads, or None."""
    if node.level:
        base = ".".join(["relusafe"] + ([node.module] if node.module else []))
    else:
        base = node.module or ""
    return base if base == "relusafe" or base.startswith("relusafe.") else None


def private_uses(path):
    """(line, text) of each underscore name taken from another relusafe module,
    by ``from ... import _name`` or by ``module._name`` on an imported module."""
    here = f"relusafe.{path.stem}"
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _module_name(node)
            if source is None:
                continue
            for alias in node.names:
                target = alias.asname or alias.name
                if source == "relusafe":
                    aliases[target] = f"relusafe.{alias.name}"
                if alias.name.startswith("_") and source != here:
                    found.append((node.lineno, f"from {source} import {alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("relusafe.") and alias.asname:
                    aliases[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")
                and aliases[node.value.id] != here):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_imports_another_modules_private_names():
    offenders = {path.name: uses for path in sorted(PACKAGE.glob("*.py"))
                 if (uses := private_uses(path))}
    assert offenders == {}


def test_checker_flags_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .graph import _bisect_region, cell_node\n"
                     "from . import smc as s\n"
                     "from .probe import _own\n"
                     "s._make_witness()\n"
                     "s.solve()\n")
    assert private_uses(probe) == [(1, "from relusafe.graph import _bisect_region"),
                                   (4, "s._make_witness")]
