"""Every name the package exports must be used outside its own definition.

A public name that only tests call is surface to keep with nothing in the
package, the demos or the bench harness resting on it.  A name counts as
used where a top-level statement other than its own def or class reads it
(as a name, an attribute or an imported name) in a module under
src/wellscape, a demo or a bench script, found by AST.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wellscape"

# exported but, for the reason given, used nowhere else yet
UNUSED = {"pq_region": "ROADMAP item 4 decides whether the p-q region stays"}


def _exports():
    """The names that __init__.py imports from the package's modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _statement_reads(path):
    """(the name a top-level def or class defines or None, the names the
    statement reads) for each top-level statement of path."""
    for top in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        yield getattr(top, "name", None), names


def test_every_export_is_used_outside_its_definition():
    exports = _exports()
    assert len(exports) > 40
    paths = [p for p in [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                         *(ROOT / "bench").glob("*.py")] if p.name != "__init__.py"]
    statements = [s for p in paths for s in _statement_reads(p)]
    unused = {name for name in exports
              if not any(name in names for defined, names in statements if defined != name)}
    assert unused == set(UNUSED)
