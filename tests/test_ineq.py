"""Periodic-box inequality lab: quadrature norms and sampled constants."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpelab import UsageFault
from cpelab.ineq import (
    LabField,
    TorusLab,
    alg_sample,
    cal_sample,
    check_exponents,
    come_sample,
    constant_commutator_sample,
    lab_size,
    lebesgue_norm,
    run_trials,
    w_norm,
)

SIN2X_L2 = 11.136655993663416  # ||sin 2x||_{L2}, tools/oracles.py


@pytest.mark.parametrize("band,n", [(6, 30), (8, 36), (12, 54)])
def test_lab_size_table(band, n):
    assert lab_size(band) == n


@given(band=st.integers(1, 40))
def test_lab_size_resolves_quartic_products(band):
    n = lab_size(band)
    assert n % 6 == 0
    assert n >= 4 * band + 2


def test_lebesgue_norm_constants():
    lab = TorusLab(12)
    u = np.full((12, 12, 12), -3.0)
    vol = (2 * np.pi) ** 3
    for q in (2.0, 3.0, 4.0, 6.0):
        np.testing.assert_allclose(lebesgue_norm(lab, u, q), 3.0 * vol ** (1 / q), rtol=1e-13)
    assert lebesgue_norm(lab, u, math.inf) == 3.0


def test_derivative_norm_closed_form():
    """dx(cos^2 x) = -sin 2x, within band for any lab size >= 6."""
    lab = TorusLab(lab_size(4))
    x = 2 * np.pi * np.arange(lab.n) / lab.n
    f = LabField(lab, np.broadcast_to(np.cos(x[:, None, None]) ** 2, (lab.n,) * 3).copy())
    dfx = f.deriv((1, 0, 0))
    np.testing.assert_allclose(lebesgue_norm(lab, dfx, 2.0), SIN2X_L2, rtol=1e-12)


def test_w_norm_reduces_to_lebesgue():
    lab = TorusLab(24)
    f = lab.random_field(np.random.default_rng(0), band=4)
    np.testing.assert_allclose(
        w_norm(f, 0, 2.0), lebesgue_norm(lab, f.data, 2.0), rtol=1e-14
    )
    assert w_norm(f, 2, 2.0) >= w_norm(f, 1, 2.0) >= w_norm(f, 0, 2.0)


def test_random_fields_band_limited_and_seeded():
    lab = TorusLab(30)
    a = lab.random_field(np.random.default_rng(42), band=5)
    b = lab.random_field(np.random.default_rng(42), band=5)
    assert np.array_equal(a.data, b.data)
    outside = ~lab.band_mask(5)
    assert np.abs(a.spec[outside]).max() <= 1e-12


def test_check_exponents():
    check_exponents(2, 2.0, math.inf, 2.0, math.inf, 2.0)
    check_exponents(1, 2.0, 4.0, 4.0, 6.0, 3.0)
    with pytest.raises(UsageFault):
        check_exponents(2, 2.0, 2.0, 2.0, math.inf, 2.0)  # 1/2 != 1/2 + 1/2
    with pytest.raises(UsageFault):
        check_exponents(2, 5.0, math.inf, 5.0, math.inf, 5.0)  # not quadrature-exact
    with pytest.raises(UsageFault):
        check_exponents(-1, 2.0, math.inf, 2.0, math.inf, 2.0)


def _pair(seed, band=6):
    lab = TorusLab(lab_size(band))
    rng = np.random.default_rng(seed)
    return lab.random_field(rng, band=band), lab.random_field(rng, band=band), lab


def test_product_rule_samples_bounded():
    f, g, _ = _pair(3)
    s = cal_sample(f, g, 2, 2.0, math.inf, 2.0, math.inf, 2.0)
    assert 0.0 < s.ratio < 1.0
    c = come_sample(f, g, 2, 2.0, math.inf, 2.0, math.inf, 2.0)
    assert 0.0 < c.ratio < 1.0
    a = alg_sample(f, g, 2, 2.0)
    assert 0.0 < a.ratio < 1.0


def test_alg_sample_needs_finite_exponent():
    f, g, _ = _pair(1)
    with pytest.raises(UsageFault):
        alg_sample(f, g, 2, math.inf)


def test_commutator_with_constant_factor_is_exactly_zero():
    s = constant_commutator_sample()
    assert s.lhs == 0.0
    assert s.ratio == 0.0


def test_run_trials_deterministic():
    exps = (2.0, math.inf, 2.0, math.inf, 2.0)
    a = run_trials("CAL", 2, exps, trials=5, band=6, seed=11)
    b = run_trials("CAL", 2, exps, trials=5, band=6, seed=11)
    assert a.ratios == b.ratios
    assert a.max_ratio == max(a.ratios)
    assert 0.0 < a.mean_ratio <= a.max_ratio
    assert a.n == lab_size(6)


def test_run_trials_unknown_kind():
    with pytest.raises(UsageFault):
        run_trials("SOB", 2, (2.0, math.inf, 2.0, math.inf, 2.0), 3, 6, 0)
