"""The eigensolves blowlab calls LAPACK for directly, against the scipy
functions they stand in for: spectral.eigh against scipy.linalg.eigh,
spectral.fd_eigenvalues_1d's dstebz against scipy.linalg.eigh_tridiagonal,
and quadrature.roots_genlaguerre against scipy.special.roots_genlaguerre,
all bitwise, sign bits included. Every nonzero LAPACK info raises
NumericError by one rule, and only blowlab._scipy reaches scipy.
"""

import ast
import re
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from blowlab import NumericError, ProblemParams, _scipy, quadrature, spectral

SRC = Path(__file__).resolve().parents[1] / "src" / "blowlab"


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("N", [1, 2, 5, 32, 100, 300])
def test_eigh_is_scipys(N):
    a = np.random.default_rng(N).standard_normal((N, N))
    a = a + a.T
    before = a.copy()
    w, v = spectral.eigh(a)
    want_w, want_v = scipy.linalg.eigh(a)
    assert same(w, want_w) and same(v, want_v)
    assert same(a, before)


@pytest.fixture
def recorded_dstebz(monkeypatch):
    """The LAPACK module with dstebz recording the diagonals it is given."""
    real = _scipy._flapack()
    calls = []

    def dstebz(d, e, *args):
        calls.append((d.copy(), e.copy()))
        return real.dstebz(d, e, *args)

    fake = types.SimpleNamespace(dstebz=dstebz)
    monkeypatch.setattr(_scipy, "_flapack", lambda: fake)
    return calls


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0])
@pytest.mark.parametrize("k", [1, 6, 12])
def test_fd_eigenvalues_are_eigh_tridiagonals(recorded_dstebz, p, k):
    params = ProblemParams(n=1, p=p)
    got = spectral.fd_eigenvalues_1d(lambda y: 0.8 * np.exp(-y * y / 8.0), params, k)
    (d, e), = recorded_dstebz
    mu = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                       select_range=(d.size - k, d.size - 1))
    assert same(got, -mu[::-1])


@pytest.mark.parametrize("degree", [2, 3, 16, 32, 48, 64, 96, 200, 300, 363])
def test_gauss_laguerre_rule_is_scipys(degree):
    for n in range(1, 12):
        alpha = n / 2.0 - 1.0
        with np.errstate(all="ignore"):
            got = quadrature.roots_genlaguerre(degree, alpha)
            want = scipy.special.roots_genlaguerre(degree, alpha)
        assert same(got[0], want[0]) and same(got[1], want[1]), n


class _Lapack:
    """The LAPACK module, but routine returns info in place of its own."""

    def __init__(self, routine, info):
        self.real, self.routine, self.info = _scipy._flapack(), routine, info

    def __getattr__(self, name):
        real = getattr(self.real, name)
        if name != self.routine:
            return real
        return lambda *args, **kwargs: (*real(*args, **kwargs)[:-1], self.info)


def _tridiagonal_solve():
    _scipy.tridiagonal_solver(np.ones(3), np.full(4, 4.0), np.ones(3))(np.ones(4))


# a call of blowlab that reaches each LAPACK routine
REACHES = {
    "dgtsv": lambda: _scipy.gtsv(np.ones(3), np.full(4, 4.0), np.ones(3), np.ones(4)),
    "dgttrf": _tridiagonal_solve,
    "dgttrs": _tridiagonal_solve,
    "dsyevr_lwork": lambda: spectral.eigh(np.eye(3)),
    "dsyevr": lambda: spectral.eigh(np.eye(3)),
    "dstebz": lambda: spectral.fd_eigenvalues_1d(np.zeros_like, ProblemParams(n=1, p=2.0), 3),
    "dsbevd": lambda: quadrature.roots_genlaguerre(8, 0.5),
}


# info < 0 is an illegal argument; info > 0 a zero pivot (dgtsv, dgttrf) or
# a failed convergence (dsyevr, dstebz, dsbevd). dgttrs and dsyevr_lwork
# report none, and the rule refuses one all the same
INFOS = [
    ("dgtsv", -1, "failed with info -1"),
    ("dgtsv", -4, "failed with info -4"),
    ("dgtsv", 2, "hit a zero pivot in row 2"),
    ("dgttrf", -1, "failed with info -1"),
    ("dgttrf", 3, "hit a zero pivot in row 3"),
    ("dgttrs", -1, "failed with info -1"),
    ("dgttrs", 2, "failed with info 2"),
    ("dsyevr_lwork", -1, "failed with info -1"),
    ("dsyevr", -1, "failed with info -1"),
    ("dsyevr", 1, "failed with info 1"),
    ("dstebz", -1, "failed with info -1"),
    ("dstebz", 1, "failed with info 1"),
    ("dsbevd", -1, "failed with info -1"),
    ("dsbevd", 1, "failed with info 1"),
]


@pytest.mark.parametrize("routine, info, message", INFOS,
                         ids=[f"{routine}{info:+d}" for routine, info, _ in INFOS])
def test_nonzero_info_raises_numeric_error(monkeypatch, routine, info, message):
    stand_in = _Lapack(routine, info)
    monkeypatch.setattr(_scipy, "_flapack", lambda: stand_in)
    with pytest.raises(NumericError, match=f"^LAPACK {routine} {message}$") as raised:
        REACHES[routine]()
    assert raised.value.payload == {"routine": routine, "info": info}


def test_nonfinite_matrix_raises_numeric_error():
    a = np.eye(3)
    a[1, 2] = a[2, 1] = np.nan
    with pytest.raises(NumericError, match="not finite"):
        spectral.eigh(a)


# (module.function, reach): why it reaches scipy outside _scipy
REACHES_SCIPY = {
    ("profiles.solve_ivp", "import scipy.integrate"):
        "the forwarder that perfbench's tracer wraps by name and nothing in "
        "blowlab calls (ROADMAP items 1 and 8)",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree):
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, *_DEFS)) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _reach(node, docstrings):
    """How node reaches scipy by itself, or None."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        modules = [node.module]
    elif isinstance(node, ast.ImportFrom):
        private = [a.name for a in node.names if node.module == "_scipy" and a.name[0] == "_"]
        return f"_scipy.{private[0]}" if private else None
    elif isinstance(node, ast.Attribute):
        private = (isinstance(node.value, ast.Name) and node.value.id == "_scipy"
                   and node.attr[0] == "_")
        return f"_scipy.{node.attr}" if private else None
    elif isinstance(node, ast.Constant):
        named = (isinstance(node.value, str) and id(node) not in docstrings
                 and re.search(r"\bscipy\b", node.value))
        return repr(node.value) if named else None
    else:
        return None
    return next((f"import {m}" for m in modules if m.split(".")[0] == "scipy"), None)


def scipy_reaches(sources):
    """(module.function, reach) for each way a module of sources, a {module:
    source text} dict, reaches scipy other than through _scipy's public
    names: an import of scipy, a string other than a docstring that names
    scipy, or an underscore name of _scipy. module.function is the innermost
    def or class around it, else the module; _scipy itself is skipped."""
    found = set()

    def visit(node, where, docstrings):
        for child in ast.iter_child_nodes(node):
            reach = _reach(child, docstrings)
            if reach:
                found.add((where, reach))
            visit(child, f"{where}.{child.name}" if isinstance(child, _DEFS) else where,
                  docstrings)

    for module, text in sources.items():
        if module != "_scipy":
            tree = ast.parse(text)
            visit(tree, module, _docstrings(tree))
    return found


def test_only_scipy_module_reaches_scipy():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert scipy_reaches(sources) == set(REACHES_SCIPY)
    # _scipy imports the scipy package and no scipy module: it loads the
    # LAPACK module and scipy.special._special_ufuncs by themselves
    imported = {
        alias.name if isinstance(node, ast.Import) else f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(sources["_scipy"]))
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.level == 0)
        for alias in node.names
    }
    assert {name for name in imported if name.split(".")[0] == "scipy"} == {"scipy"}


def test_the_boundary_rule_sees_imports_strings_and_private_names():
    source = ('"""scipy.linalg, in a docstring."""\n'
              "import numpy, scipy\n"
              "from scipy.linalg import eigh\n"
              "from ._scipy import _lone, lapack\n"
              "from . import _scipy\n"
              "def f():\n"
              '    """scipy.special, in a docstring."""\n'
              '    return _scipy._flapack(), _scipy.lapack, "scipy.special._special_ufuncs"\n'
              "class C:\n"
              "    def m(self):\n"
              '        return f"{self} loads scipy", "scipyish"\n')
    assert scipy_reaches({"mod": source, "_scipy": "import scipy\n_x = 'scipy'\n"}) == {
        ("mod", "import scipy"), ("mod", "import scipy.linalg"), ("mod", "_scipy._lone"),
        ("mod.f", "_scipy._flapack"), ("mod.f", "'scipy.special._special_ufuncs'"),
        ("mod.C.m", "' loads scipy'")}


def test_every_lapack_call_passes_its_info_to_the_one_rule():
    # in _scipy, each function that takes a routine from _flapack() hands
    # its info to _check
    tree = ast.parse((SRC / "_scipy.py").read_text())
    callers = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if "_flapack" in names:
                callers[node.name] = "_check" in names
    assert callers == {"lapack": True, "gtsv": True, "tridiagonal_solver": True}
