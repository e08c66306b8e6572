"""List the ``equihol`` functions that no captured CLI call enters.

Usage, from the root of a checkout:

    python3 tools/unreached.py

Runs every call of ``tools/capture_reports.py`` (its ``capture()``) under
``sys.setprofile`` against the ``src`` directory of this checkout, and
prints each function, method or nested function defined in
``src/equihol/*.py`` that was never entered: its module, first line,
qualified name and line count (decorators included), then the totals.
Functions that only tests or other tools call show up here; that is the
point of the list.
"""

import ast
import os
import sys

TOOLS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TOOLS), "src")
PACKAGE = os.path.join(SRC, "equihol")


def defined_functions():
    """``(path, first line) -> (qualified name, line count)`` of every
    function definition in the package, the first line being that of its
    first decorator, as a code object's ``co_firstlineno`` gives it."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    out[(path, first)] = (qualname, child.end_lineno - first + 1)
                    visit(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


def entered_code():
    """The ``(path, first line)`` of every code object entered while the
    captured calls run."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, SRC)
    sys.path.insert(0, TOOLS)
    import capture_reports

    sys.setprofile(profile)
    try:
        capture_reports.capture()
    finally:
        sys.setprofile(None)
    return {(os.path.abspath(path), line) for path, line in seen}


def main():
    defined = defined_functions()
    entered = entered_code()
    unreached = sorted(key for key in defined if key not in entered)
    for path, line in unreached:
        qualname, count = defined[(path, line)]
        module = os.path.splitext(os.path.basename(path))[0]
        print(f"{module}:{line} {qualname} ({count} lines)")
    total = sum(defined[key][1] for key in unreached)
    print(f"{len(unreached)} of {len(defined)} functions never entered, {total} lines")


if __name__ == "__main__":
    main()
