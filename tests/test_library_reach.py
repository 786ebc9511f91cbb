"""The library holds what the commands and the benchmark run.  A top-level
function, class or method of linnik_lab must be reached by name from code
that runs: module-level code of linnik_lab (the command table), the
perfbench/ files, or the body of a def that is itself reached.  Tests do
not count, so an oracle that only tests call lives under tests/."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "linnik_lab"
BENCH = ROOT / "perfbench"
# kept for later commands: the proof's case analysis, and the dense T route
# of the dual-route tests
KEPT = {"pipeline.case_analysis", "pipeline._classify_k", "pipeline.CaseReport",
        "pipeline.t_function_easy", "pipeline.t_function_general"}


def _body(node) -> list:
    """A def's statements without its docstring."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        return body[1:]
    return body


def _names(nodes, strings: bool = False) -> set[str]:
    """Identifiers read in nodes: names and attributes, and with strings the
    words of string constants (the benchmark tracer hooks by dotted name)."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.update(re.findall(r"\w+", sub.value))
    return out


def _defs():
    """(qualified name, name, names its body reads) of every top-level
    function, class and method, and the names module-level code reads."""
    defs, roots = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in _body(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots |= _names([node])
                continue
            qual = f"{path.stem}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                defs.append((qual, node.name, _names(
                    node.decorator_list + [node.args] + _body(node))))
                continue
            rest = node.decorator_list + node.bases
            for sub in _body(node):
                if isinstance(sub, ast.FunctionDef):
                    defs.append((f"{qual}.{sub.name}", sub.name, _names(
                        sub.decorator_list + [sub.args] + _body(sub))))
                else:
                    rest.append(sub)
            defs.append((qual, node.name, _names(rest)))
    for path in sorted(BENCH.glob("*.py")):
        roots |= _names([ast.parse(path.read_text())], strings=True)
    return defs, roots


def test_every_library_def_is_reached():
    defs, live = _defs()
    assert KEPT <= {qual for qual, _, _ in defs}
    reached = set()
    grew = True
    while grew:
        grew = False
        for qual, name, reads in defs:
            dunder = name.startswith("__") and name.endswith("__")
            if qual not in reached and (dunder or qual in KEPT or name in live):
                reached.add(qual)
                live |= reads
                grew = True
    assert sorted(qual for qual, _, _ in defs if qual not in reached) == []
