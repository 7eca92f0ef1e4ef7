"""Three rules that keep test-only and dead code out of src/blowlab.

Every defaulted parameter of a function in src/blowlab is set by some call
in src/blowlab, or is listed in ALLOWED with the reason it stays. A value
that only tests set is a module constant, not a parameter.

Every function or method defined in src/blowlab is referenced by name in
src/blowlab outside __init__.py, or is listed in UNREFERENCED with the
reason it stays. A function that only tests call is deleted, unless it is an
oracle, a public primitive or a target of perfbench's tracer.

Every name that a module of src/blowlab imports is read in that module, or
is listed in UNREAD_IMPORTS with the reason it stays. __future__ imports and
the re-exports of __init__.py are not checked.

Calls are matched to definitions by name, as the AST shows them: f(...) and
obj.f(...) both reach every def named f, and C(...) reaches C.__init__. A
call sets a parameter by position, by keyword, or by *args / **kwargs that
may carry it. Dataclass fields are not parameters here. A reference is any
name or attribute f, called or not; dunder methods, which Python calls
itself, need none.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "blowlab"

# (module.qualified name, parameter): why it keeps a default that no call in
# src/blowlab sets
ALLOWED = {
    ("cli.main", "argv"):
        "the console script calls main() with no arguments; tests pass argv",
    ("evolution.linearized_matrix", "geometry"):
        "the dense oracle of the stable mode, called only by tests",
    ("profiles.rk4_shoot", "r_max"):
        "the independent fixed-step oracle of shoot, called only by tests",
    ("profiles.rk4_shoot", "h"):
        "the oracle's step, which the fourth-order convergence test varies",
    ("evolution.solve_physical", "fixed_dt"):
        "blowup.json and report.json record it as null, and perfbench/reference/ "
        "compares them; it goes when those are re-recorded (ROADMAP items 2 and 5)",
}

# module.qualified name: why it stays though nothing in src/blowlab outside
# __init__.py names it
UNREFERENCED = {
    "profiles.rk4_shoot":
        "the independent fixed-step oracle of shoot, called only by tests",
    "evolution.linearized_matrix":
        "the dense oracle of the stable mode, called only by tests",
    "evolution.exact_energy_kappa":
        "the closed-form oracle E(kappa) that acceptance criterion 10 checks energy against",
    "calculus.SampledField.constant":
        "public primitive in blowlab.__all__: the constant field of the README's "
        "library example and of acceptance criterion 4",
    "calculus.weighted_inner":
        "public primitive in blowlab.__all__: the Gaussian-weighted inner product",
    "calculus.linearized_apply":
        "public primitive in blowlab.__all__: L_w applied to a field (acceptance "
        "criterion 4)",
    "calculus.SampledField.from_callable":
        "perfbench's tracer wraps it by name (ROADMAP items 1 and 8)",
    "profiles.solve_ivp":
        "perfbench's tracer wraps it by name (ROADMAP items 1 and 8)",
}

# module.imported name: why the module imports it without reading it
UNREAD_IMPORTS = {
    "_scipy.scipy":
        "its distributor init locates the bundled OpenBLAS before _flapack loads",
}


def _functions(tree, module):
    """(module.qualified name, enclosing class name or None, def node) for
    each def in the module, nested ones included."""
    found = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((f"{prefix}{child.name}", cls, child))
                visit(child, f"{prefix}{child.name}.", None)
            else:
                visit(child, prefix, cls)

    visit(tree, f"{module}.", None)
    return found


def _definitions(tree, module):
    """(qualified name, call name, parameter, call position or None) for each
    defaulted parameter of each def in the module."""
    found = []
    for qual, cls, node in _functions(tree, module):
        call_name = cls if node.name == "__init__" else node.name
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list)
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i in range(first, len(positional)):
            found.append((qual, call_name, positional[i].arg, i - bound))
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((qual, call_name, a.arg, None))
    return found


def _call_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _sets(call, name, position):
    if any(k.arg is None for k in call.keywords):          # **kwargs
        return True
    if any(k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):  # *args
        return True
    return position < len(call.args)


def unset_defaults(sources):
    """(module.qualified name, parameter) for each defaulted parameter that
    no call in sources, a {module: source text} dict, sets."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    return {
        (qual, param)
        for module, tree in trees.items()
        for qual, call_name, param, position in _definitions(tree, module)
        if not any(_sets(c, param, position) for c in calls.get(call_name, []))
    }


def unreferenced_functions(sources):
    """module.qualified name of each def in sources, a {module: source text}
    dict, whose name no module but __init__ references; dunders excepted."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for module, tree in trees.items() if module != "__init__"
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    }
    return {
        qual
        for module, tree in trees.items()
        for qual, _, node in _functions(tree, module)
        if node.name not in names
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def unread_imports(sources):
    """module.name for each name that a module of sources, a {module: source
    text} dict, binds by an import and never reads; __future__ imports and
    __init__ are skipped."""
    found = set()
    for module, text in sources.items():
        if module == "__init__":
            continue
        tree = ast.parse(text)
        bound = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found |= {f"{module}.{name}" for name in bound - read}
    return found


def _library_sources():
    return {path.stem: path.read_text() for path in SRC.glob("*.py")}


def test_every_default_is_set_by_the_library_or_allowed():
    assert unset_defaults(_library_sources()) == set(ALLOWED)


def test_every_function_is_referenced_by_the_library_or_listed():
    assert unreferenced_functions(_library_sources()) == set(UNREFERENCED)


def test_every_import_is_read_by_its_module_or_listed():
    assert unread_imports(_library_sources()) == set(UNREAD_IMPORTS)


def test_the_checker_sees_positions_keywords_and_stars():
    # b is set by position, e by keyword, x by position through the class
    # (self is not counted), z and u by *args; c, d and y are not set
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "class C:\n"
        "    def __init__(self, x=0, y=0):\n        pass\n"
        "    def m(self, z=0, u=0):\n        pass\n"
        "f(0, 5)\nf(0, e=1)\nC(1)\nobj.m(*args)\n")
    assert unset_defaults({"mod": source}) == {
        ("mod.f", "c"), ("mod.f", "d"), ("mod.C.__init__", "y")}


def test_the_checker_sees_names_attributes_and_skips_init():
    # g is called, h read as an attribute, k passed as a value and C.m read
    # off an instance; only __init__ names f, and C.__init__ is a dunder
    sources = {
        "mod": ("def f():\n    pass\n"
                "def g():\n    pass\n"
                "def h():\n    pass\n"
                "def k():\n    pass\n"
                "class C:\n"
                "    def __init__(self):\n        pass\n"
                "    def m(self):\n        pass\n"
                "    def unused(self):\n        pass\n"
                "g()\nmod.h\nmap(k, [])\nC().m()\n"),
        "__init__": "from .mod import f\nf()\n",
    }
    assert unreferenced_functions(sources) == {"mod.f", "mod.C.unused"}


def test_the_import_checker_reads_names_and_skips_future_and_init():
    # np and w are read, a through its attribute; os, y and the alias
    # unused are not. The __future__ import and __init__'s re-export of v
    # are not checked
    sources = {
        "mod": ("from __future__ import annotations\n"
                "import os, numpy as np\n"
                "import a.b\n"
                "from .x import y, z as w\n"
                "def f():\n"
                "    import q as unused\n"
                "    return np.zeros(1), a.b, w\n"),
        "__init__": "from .mod import v\n",
    }
    assert unread_imports(sources) == {"mod.os", "mod.y", "mod.unused"}
