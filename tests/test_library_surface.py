"""Every name the library defines has a reader outside the tests.

An AST scan of ``src/gpfield``: each top-level function or class, and
each method or property of a top-level class (dunders aside), must be
referenced, as a name or an attribute, in the library itself, in
perfbench (whose tracer also names the attributes it wraps as strings)
or in the acceptance checks; a top-level name may instead be exported
through ``gpfield.__all__``. A name only the other tests read is code
the pipeline never runs. Equal names in different places count as one,
so the check errs on the lenient side.

The same holds for state: each dataclass field of a class that is
neither a NamedTuple nor exported, and each attribute its methods assign
through self, must be loaded as an attribute in those places. A counter
the library only increments fails. So does a parameter that its own
function never reads.
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


def named(node):
    """The name a base class or decorator expression names, if any."""
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", getattr(node, "attr", None))


def self_assigned(method) -> set:
    """Attributes a method assigns through its first parameter, by =, an
    augmented or an annotated assignment, tuple targets included."""
    if not method.args.args:
        return set()
    me = method.args.args[0].arg
    names = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for t in ast.walk(target):
                if (isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == me):
                    names.add(t.attr)
    return names


def fields():
    """(where, Class.attribute) of every dataclass field and every
    attribute assigned through self in a top-level class of the library
    that is neither a NamedTuple nor exported."""
    exported = set(gpfield.__all__)
    for path in sorted(SRC.glob("*.py")):
        for cls in parse(path).body:
            if (not isinstance(cls, ast.ClassDef) or cls.name in exported
                    or "NamedTuple" in map(named, cls.bases)):
                continue
            dataclass = "dataclass" in map(named, cls.decorator_list)
            names = {}
            for member in cls.body:
                if (dataclass and isinstance(member, ast.AnnAssign)
                        and isinstance(member.target, ast.Name)):
                    names.setdefault(member.target.id, member.lineno)
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for name in self_assigned(member):
                        names.setdefault(name, member.lineno)
            for name, line in names.items():
                yield f"{path.name}:{line}", f"{cls.name}.{name}"


def loaded_attributes(tree) -> set:
    """Attribute names tree reads (ast.Attribute in a load context)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_library_field_has_a_reader_outside_the_tests():
    """A field of an unexported class that only the tests read, or that
    the library only writes, is state the pipeline keeps for nobody. A
    read is an attribute load in the library, in perfbench or in the
    acceptance checks; equal names in different classes count as one."""
    readers = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                 ROOT / "tests" / "test_acceptance.py"]:
        readers |= loaded_attributes(parse(path))
    unread = [f"{where} {name}" for where, name in fields()
              if name.rpartition(".")[2] not in readers]
    assert not unread, "read only by tests: " + ", ".join(unread)


# Parameters with a default that no call in the library, perfbench or the
# acceptance checks passes, each kept on purpose.
UNPASSED_ALLOWED = {
    # public or reference API
    "fuse_point.prop": "the reference one-voxel fusion takes a property",
    "fuse_point.prop_variance": "its property variance goes with it",
    "train.properties": "gp.train is the public one-model call of train_many",
    "look_at.up": "a camera's up vector is the caller's choice",
    "main.argv": "cli.main reads sys.argv unless a caller passes a list",
    # names perfbench's tracer wraps, whose signatures it keeps
    "infer_property.clip_range": "tracer target gp.infer_property",
    "generate.band_width": "tracer target query_points.generate",
    "normal_augment.reach": "tracer target query_points.normal_augment",
}


def defaulted_parameters():
    """(where, function name, parameter, position) of every parameter
    with a default of a function or method in the library, position None
    for a keyword-only one. A method's position counts from the first
    argument after self or cls, as a call through an instance passes
    it; an __init__ goes by its class's name."""
    for path in sorted(SRC.glob("*.py")):
        tree = parse(path)
        methods = {id(member): cls for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for member in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = methods.get(id(fn))
            name = cls.name if cls and fn.name == "__init__" else fn.name
            bound = (cls is not None
                     and "staticmethod" not in map(named, fn.decorator_list))
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            for i, arg in enumerate(args[first:], first):
                yield f"{path.name}:{fn.lineno}", name, arg.arg, i - bound
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield f"{path.name}:{fn.lineno}", name, arg.arg, None


def passed_arguments() -> set:
    """(callee name, parameter name or position) of what each call in the
    library, perfbench and the acceptance checks passes; "*" stands for a
    starred argument, which may pass any position, and "**" for a double
    starred one, which may pass any keyword."""
    passed = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                 ROOT / "tests" / "test_acceptance.py"]:
        for call in ast.walk(parse(path)):
            if not isinstance(call, ast.Call) or named(call) is None:
                continue
            for i, arg in enumerate(call.args):
                passed.add((named(call),
                            "*" if isinstance(arg, ast.Starred) else i))
            for kw in call.keywords:
                passed.add((named(call), kw.arg or "**"))
    return passed


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """A parameter with a default that no call outside the unit tests
    passes, by keyword or by position, is an option the pipeline never
    takes. Calls are matched by the callee's name alone, so functions and
    methods of one name count together: the two query_batch methods are
    one name here, and the pipeline passes the local field's stage_ms by
    position. So the scan alone cannot see a second parameter of the
    global field's query_batch, such as a per-batch node count q, that
    only tests pass."""
    passed = passed_arguments()
    unpassed = [
        f"{where} {name}({param})"
        for where, name, param, pos in defaulted_parameters()
        if not {(name, param), (name, "**")} & passed
        and (pos is None or not {(name, pos), (name, "*")} & passed)
        and f"{name}.{param}" not in UNPASSED_ALLOWED]
    assert not unpassed, "defaults no call overrides: " + ", ".join(unpassed)


def unread_parameters(path):
    """(where, Function.parameter) of each parameter of a function or
    method in the module at path that its body never loads, self or cls
    aside. A load inside the value of an assignment to the parameter
    itself, as in x = np.asarray(x), is no read: it only feeds the
    parameter's own reassignment."""
    tree = parse(path)
    methods = {id(member) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for member in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        if (id(fn) in methods
                and "staticmethod" not in map(named, fn.decorator_list)):
            params = params[1:]
        reassigning = {id(node): {t.id for t in stmt.targets
                                  if isinstance(t, ast.Name)}
                       for stmt in ast.walk(fn) if isinstance(stmt, ast.Assign)
                       for node in ast.walk(stmt.value)}
        loaded = {node.id for node in ast.walk(fn)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)
                  and node.id not in reassigning.get(id(node), ())}
        for p in params:
            if p is not None and p.arg not in loaded:
                yield f"{path.name}:{fn.lineno}", f"{fn.name}.{p.arg}"


def test_every_library_parameter_is_read():
    """A parameter the body never reads is an input the caller must find
    and pass for nothing."""
    unread = [f"{where} {name}" for path in sorted(SRC.glob("*.py"))
              for where, name in unread_parameters(path)]
    assert not unread, "parameters never read: " + ", ".join(unread)
