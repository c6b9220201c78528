"""Every text input of bove is read through bove.encoding.text_lines.

An `open` call that reads text decodes on its own, so a byte that is not
UTF-8 would leave it as a UnicodeDecodeError naming neither file nor line.
This test reads each module of src/bove as a syntax tree, without importing
it, and allows an `open` call outside text_lines only with a constant mode
that is binary ("b") or only writes ("w", "a" or "x", without "+").  A
`read_text` call is never allowed.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bove"


def text_reads(tree, allowed_in=None):
    """Line numbers of the calls in tree that may read text, leaving out
    those inside the function named allowed_in."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == allowed_in:
            inside.update(id(call) for call in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "read_text":
            found.append(node.lineno)
        elif name == "open":
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and ("b" in mode.value
                         or (set(mode.value) & set("wax") and "+" not in mode.value))):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_text_read_outside_text_lines(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    allowed_in = "text_lines" if module == "encoding.py" else None
    assert text_reads(tree, allowed_in) == [], (
        "%s reads text outside encoding.text_lines at these lines" % module)


def test_text_lines_is_where_the_reads_are():
    tree = ast.parse((SRC / "encoding.py").read_text(encoding="utf-8"))
    assert text_reads(tree) != []  # the one text open, which the test above allows


@pytest.mark.parametrize("source, flagged", [
    ("open(p)", True),
    ("open(p, encoding='utf-8')", True),
    ("open(p, 'r')", True),
    ("open(p, 'w+')", True),
    ("open(p, mode)", True),
    ("io.open(p, encoding='utf-8')", True),
    ("p.read_text()", True),
    ("open(p, 'rb')", False),
    ("open(p, mode='rb')", False),
    ("open(p, 'w', encoding='utf-8')", False),
    ("open(p, 'ab')", False),
    ("open(p, 'x')", False),
    ("def text_lines(p):\n    open(p)", False),
])
def test_the_scan_tells_reads_from_writes(source, flagged):
    assert bool(text_reads(ast.parse(source), "text_lines")) == flagged
