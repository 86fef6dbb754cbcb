"""Every name the package defines has a caller.

The package's module-level functions, classes and assigned names, and the
methods of its classes, must each appear somewhere in ``src/``, ``tests/`` or
``perfbench/`` besides their own definition.  Occurrences are whole words in
the raw text, so a name the benchmark resolves from a string counts as used.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "perfbench")


def defined_names(source: str) -> list[str]:
    """Module-level function, class and assigned names, and class method
    names, in definition order; dunders are skipped."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, ast.Assign):
            names += [n.id for target in node.targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def searched_text() -> str:
    files = [path for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))
             if ".work" not in path.relative_to(ROOT).parts]
    return "\n".join(path.read_text(encoding="utf-8") for path in files)


def test_defined_names_cover_functions_classes_methods_and_assignments():
    source = ("_probe_const = 1\n"
              "_probe_a, (_probe_b, _probe_c) = 2, (3, 4)\n"
              "_probe_typed: int = 5\n"
              "def _probe_fn():\n"
              "    _probe_local = 6\n"
              "class _ProbeClass:\n"
              "    _probe_field = 7\n"
              "    def __init__(self): pass\n"
              "    def _probe_method(self): pass\n")
    assert defined_names(source) == ["_probe_const", "_probe_a", "_probe_b", "_probe_c",
                                     "_probe_typed", "_probe_fn", "_ProbeClass",
                                     "_probe_method"]


def test_every_package_name_has_a_caller():
    definitions = Counter(name for path in sorted((ROOT / "src" / "vqlat").glob("*.py"))
                          for name in defined_names(path.read_text(encoding="utf-8")))
    assert len(definitions) > 100  # the scan sees the whole package
    text = searched_text()
    uses = Counter(re.findall(r"\w+", text))
    dead = sorted(name for name, count in definitions.items() if uses[name] <= count)
    assert dead == [], f"names defined in src/vqlat with no use anywhere: {dead}"
