"""Constants and exponent thresholds, pinned against closed forms."""

import math

import numpy as np
import pytest

from blowlab import (
    CriticalExponents,
    DomainError,
    ProblemParams,
    admissible_m_interval,
    critical_exponents,
    kappa,
    kappa_identity_residual,
    m_condition,
)

SQRT_HALF = 0.7071067811865476  # (1/2)^(1/2), the kappa value shared by p = 3 and p = 5


def test_kappa_closed_forms():
    assert kappa(2.0) == 1.0
    # p = 3: (1/2)^(1/2); p = 5: (1/4)^(1/4) -- the same number
    assert kappa(3.0) == pytest.approx(SQRT_HALF, abs=1e-15)
    assert kappa(5.0) == pytest.approx(SQRT_HALF, abs=1e-15)
    # p = 1.5: (1/0.5)^(1/0.5) = 4
    assert kappa(1.5) == pytest.approx(4.0, rel=1e-14)


def test_kappa_identity_random_battery():
    rng = np.random.default_rng(7)
    ps = 1.0 + 10.0 ** rng.uniform(-2.0, 1.3, size=100)
    worst = max(kappa_identity_residual(float(p)) for p in ps)
    assert worst < 1e-12


def test_kappa_domain():
    # below p ~ 1.00699 kappa passes the largest float
    for bad in (1.0, 0.5, -3.0, math.inf, math.nan, 1.001, math.nextafter(1.0, 2.0)):
        with pytest.raises(DomainError):
            kappa(bad)


def test_critical_exponents_low_dimensions():
    assert critical_exponents(1).p_S == math.inf
    assert critical_exponents(2).p_S == math.inf
    assert critical_exponents(3).p_S == 5.0
    assert critical_exponents(4).p_S == 3.0
    assert critical_exponents(6).p_S == 2.0
    # Joseph-Lundgren and Lepin thresholds only exist above dimension 10
    for n in (3, 9, 10):
        e = critical_exponents(n)
        assert e.p_JL == math.inf and e.p_L == math.inf


def test_critical_exponents_dimension_11():
    e = critical_exponents(11)
    assert e.p_S == pytest.approx(13.0 / 9.0, rel=1e-15)
    assert e.p_L == 7.0
    # frozen from 1 + 4(n - 4 + 2 sqrt(n-1))/((n-2)(n-10)) at n = 11
    assert e.p_JL == pytest.approx(6.922024586816337, abs=1e-12)
    assert abs(e.p_JL - 6.9220) < 1e-3


def test_exponent_ordering_window():
    for n in range(11, 51):
        e = critical_exponents(n)
        assert e.ordering_holds(), f"ordering failed at n = {n}"
        assert e.p_S < e.p_JL < e.p_L


def test_critical_exponents_domain():
    for bad in (0, -1, 2.5, "3"):
        with pytest.raises(DomainError):
            critical_exponents(bad)


def test_m_condition_documented_cases():
    assert m_condition(2.0, 2.0) is True
    assert m_condition(2.2, 0.6) is True
    assert m_condition(2.0, 0.5) is False   # m > 1/2 is strict
    # m = (p-1)/2 becomes admissible just above p = 1 + 2/sqrt(3)
    assert m_condition(2.16, 0.58) is True
    assert m_condition(2.15, 0.575) is False


def test_m_equal_p_always_admissible():
    rng = np.random.default_rng(11)
    for p in 1.0 + 10.0 ** rng.uniform(-2.0, 1.0, size=50):
        assert m_condition(float(p), float(p))


def test_admissible_m_interval_boundary():
    lo, hi = admissible_m_interval(2.0)
    assert lo == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-15)
    assert hi == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-15)
    eps = 1e-9
    assert m_condition(2.0, lo + eps) and m_condition(2.0, hi - eps)
    assert not m_condition(2.0, lo - eps)
    assert not m_condition(2.0, hi + eps)


def test_problem_params():
    pp = ProblemParams(n=3, p=3.0)
    assert pp.kappa == pytest.approx(SQRT_HALF)
    with pytest.raises(DomainError):
        ProblemParams(n=0, p=2.0)
    with pytest.raises(DomainError):
        ProblemParams(n=1, p=1.0)
    with pytest.raises(DomainError):
        ProblemParams(n=1, p=math.nan)


def test_exponents_dataclass_is_plain():
    e = CriticalExponents(n=12, p_S=1.4, p_JL=5.0, p_L=4.0)
    assert not e.ordering_holds()
