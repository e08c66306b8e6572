"""Each equivariance formula is written once in ``src/equihol``.

Four readings stand for four formulas:
- ``SIMPSON``, the second rule of the holonomy cross-check: read in
  ``holonomy._holonomies``, the holonomy of a path stack, and in
  ``geometry.rk4_line_integral``;
- a call of ``.differential(...)``, the pushforward behind the pullback
  defect g*w - w: made in ``GroupElement.pullback_defect``;
- ``lambda_field.many``, the section field behind the shift
  Lambda - Lambda o phi: read in ``Section.shift``;
- ``generator_values[...]``, a generator's cocycle value behind the law
  alpha_gh(x) = alpha_g(h x) + alpha_h(x): read in ``bundle._law_rows``,
  the fold of the law over a stack of words.

A reading anywhere else is a second copy of its formula, which a change
of the formula would have to find and keep in step; this test names it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "equihol"

# Reading -> the (module, qualified function) of every place allowed to read it.
HOMES = {
    "SIMPSON": {("holonomy", "_holonomies"), ("geometry", "rk4_line_integral")},
    ".differential(": {("geometry", "GroupElement.pullback_defect")},
    "lambda_field.many": {("bundle", "Section.shift")},
    "generator_values[...]": {("bundle", "_law_rows")},
}


def _reading(node):
    """The reading a node makes, or None."""
    if isinstance(node, ast.Name) and node.id == "SIMPSON" and isinstance(node.ctx, ast.Load):
        return "SIMPSON"
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        if node.attr == "SIMPSON":
            return "SIMPSON"
        if node.attr == "many" and isinstance(node.value, ast.Attribute):
            if node.value.attr == "lambda_field":
                return "lambda_field.many"
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
        if node.value.attr == "generator_values":
            return "generator_values[...]"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "differential":
            return ".differential("
    return None


def readings():
    """``(reading, module, qualified function, line)`` of every reading in
    the package; code outside any function has the qualified name ``""``."""
    found = []

    def visit(node, module, qualname, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                inner = name if not isinstance(child, ast.ClassDef) else qualname
                visit(child, module, inner, name + ".")
                continue
            what = _reading(child)
            if what is not None:
                found.append((what, module, qualname, child.lineno))
            visit(child, module, qualname, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem, "", "")
    return found


def test_each_formula_is_read_only_in_its_home():
    stray = [(what, f"{module}.py:{line}", qualname or "<module>")
             for what, module, qualname, line in readings()
             if (module, qualname) not in HOMES[what]]
    assert stray == [], stray


def test_every_home_still_reads_its_formula():
    # A home renamed or moved would leave its entry naming nothing.
    seen = {(what, module, qualname) for what, module, qualname, _ in readings()}
    missing = [(what, home) for what, homes in HOMES.items() for home in homes
               if (what, *home) not in seen]
    assert missing == [], missing
