"""Every name the library defines has a reader outside the tests.

An AST scan of ``src/gpfield``: each top-level function or class, and
each method or property of a top-level class (dunders aside), must be
referenced, as a name or an attribute, in the library itself, in
perfbench (whose tracer also names the attributes it wraps as strings)
or in the acceptance checks; a top-level name may instead be exported
through ``gpfield.__all__``. A name only the other tests read is code
the pipeline never runs. Equal names in different places count as one,
so the check errs on the lenient side.
"""

import ast
from pathlib import Path

import gpfield

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gpfield"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def referenced(tree, strings=False) -> set:
    """Names read as ast.Name or ast.Attribute in tree; with strings, also
    every string constant that is an identifier."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            names.add(node.value)
    return names


def definitions():
    """(where, name, top-level) of every definition the check covers."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(SRC.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, defs):
                continue
            yield f"{path.name}:{node.lineno}", node.name, True
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, defs[:2])
                            and not member.name.startswith("__")):
                        yield (f"{path.name}:{member.lineno}",
                               f"{node.name}.{member.name}", False)


def test_every_library_name_has_a_reader_outside_the_tests():
    readers = set()
    for path in SRC.glob("*.py"):
        readers |= referenced(parse(path))
    for path in (ROOT / "perfbench").glob("*.py"):
        readers |= referenced(parse(path), strings=True)
    readers |= referenced(parse(ROOT / "tests" / "test_acceptance.py"))
    exported = set(gpfield.__all__)
    unread = [f"{where} {name}" for where, name, top in definitions()
              if name.rpartition(".")[2] not in readers
              and not (top and name in exported)]
    assert not unread, "read only by tests: " + ", ".join(unread)
