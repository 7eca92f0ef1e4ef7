"""The eigensolves blowlab calls LAPACK for directly, against the scipy
functions they stand in for: spectral.eigh against scipy.linalg.eigh,
spectral.fd_eigenvalues_1d's dstebz against scipy.linalg.eigh_tridiagonal,
and quadrature.roots_genlaguerre against scipy.special.roots_genlaguerre,
all bitwise, sign bits included. A nonzero LAPACK info raises NumericError,
and no module of blowlab imports the scipy.linalg or scipy.special package.
"""

import ast
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from blowlab import NumericError, ProblemParams, _cubic, quadrature, spectral

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
    real = _cubic._flapack()
    calls = []

    def dstebz(d, e, *args):
        calls.append((d.copy(), e.copy()))
        return real.dstebz(d, e, *args)

    fake = types.SimpleNamespace(dstebz=dstebz)
    monkeypatch.setattr(_cubic, "_flapack", lambda: fake)
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


@pytest.mark.parametrize("routine", ["dsyevr", "dstebz", "dsbevd"])
def test_lapack_failure_raises_numeric_error(monkeypatch, routine):
    # each routine's info comes back 1, as a failed convergence reports it
    real = _cubic._flapack()

    def failing(*args, **kwargs):
        *out, info = getattr(real, routine)(*args, **kwargs)
        return (*out, 1)

    fake = types.SimpleNamespace(
        dsyevr_lwork=real.dsyevr_lwork,
        **{name: failing if name == routine else getattr(real, name)
           for name in ("dsyevr", "dstebz", "dsbevd")})
    monkeypatch.setattr(_cubic, "_flapack", lambda: fake)
    with pytest.raises(NumericError, match=f"LAPACK {routine} failed with info 1"):
        if routine == "dsyevr":
            spectral.eigh(np.eye(3))
        elif routine == "dstebz":
            spectral.fd_eigenvalues_1d(lambda y: np.zeros_like(y),
                                       ProblemParams(n=1, p=2.0), 3)
        else:
            quadrature.roots_genlaguerre(8, 0.5)


def test_nonfinite_matrix_raises_numeric_error():
    a = np.eye(3)
    a[1, 2] = a[2, 1] = np.nan
    with pytest.raises(NumericError, match="not finite"):
        spectral.eigh(a)


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _imported(package):
    return {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _imports(ast.parse(path.read_text()))
        if name == package or name.startswith(package + ".")
    }


def test_no_module_imports_scipy_linalg():
    assert _imported("scipy.linalg") == set()


def test_no_module_imports_scipy_special():
    # the radial rule's Laguerre values are ported, and its gamma, gammaln
    # and binom come from the lone-loaded scipy.special._special_ufuncs
    assert _imported("scipy.special") == set()
