"""Grid, field, stencil, and Hamiltonian model contracts."""

import math

import numpy as np
import pytest

import hjvisc as hv


def test_grid_basic_geometry():
    for n, length in ((8, hv.TWO_PI), (100, hv.TWO_PI), (64, 3.5)):
        g = hv.Grid1D(n, length)
        assert abs(g.h * g.n - length) <= 1e-14 * length
        assert g.x.shape == (n,)
        assert g.x[0] == 0.0
        assert abs(g.x[-1] - (length - g.h)) <= 1e-12


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        hv.Grid1D(7)
    with pytest.raises(ValueError):
        hv.Grid1D(0)
    with pytest.raises(ValueError):
        hv.Grid1D(16, length=-1.0)
    with pytest.raises(ValueError):
        hv.Grid1D(16, length=math.inf)


def test_scalar_field_validation():
    g = hv.Grid1D(16)
    f = hv.ScalarField(g, np.ones(16))
    with pytest.raises(ValueError):
        f.values[0] = 2.0  # values are frozen read-only
    with pytest.raises(ValueError):
        hv.ScalarField(g, np.ones(15))
    bad = np.ones(16)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        hv.ScalarField(g, bad)


def test_density_field_gates():
    g = hv.Grid1D(16)
    uniform = np.full(16, 1.0 / g.length)
    d = hv.DensityField(g, uniform)
    assert d.renorm_factor is None

    with pytest.raises(ValueError):
        hv.DensityField(g, 1.1 * uniform)  # mass off by 10 percent

    vals = uniform.copy()
    vals[1] += vals[0] + 1e-6
    vals[0] = -1e-6  # mass exact, one entry below the -1e-12 floor
    with pytest.raises(ValueError):
        hv.DensityField(g, vals)

    vals = uniform.copy()
    vals[1] += vals[0] + 1e-13
    vals[0] = -1e-13  # within the roundoff floor: accepted
    hv.DensityField(g, vals)


def test_pendulum_model_point_values():
    m = hv.pendulum_hamiltonian()
    assert m.descriptor == "pendulum"
    assert m.h(0.0, 0.0) == 0.0
    assert m.h(np.pi, 0.0) == -2.0
    assert m.lagrangian(0.0, 0.0) == 0.0
    assert m.dhdp(1.3, 0.7) == 0.7
    assert m.d2hdp2(1.3, 0.7) == 1.0
    # running cost L(x, v) = v^2/2 - cos x + 1 is nonnegative
    x = np.linspace(0.0, hv.TWO_PI, 40)
    v = np.linspace(-3.0, 3.0, 40)
    assert np.min(m.lagrangian(x, v)) >= 0.0


def test_separable_model_variants():
    g = hv.Grid1D(32)
    m_sin = hv.separable_hamiltonian(np.sin)
    assert abs(m_sin.h(np.pi / 2, 0.0) - 1.0) <= 1e-15

    # sampled potential: exact at the nodes it was sampled on
    samples = np.cos(g.x) - 1.0
    m_samp = hv.separable_hamiltonian(hv.ScalarField(g, samples), grid=g)
    pend = hv.pendulum_hamiltonian()
    gap = np.max(np.abs(m_samp.h(g.x, 0.5) - pend.h(g.x, 0.5)))
    assert gap <= 1e-14

    m_flat = hv.flat_hamiltonian()
    assert m_flat.h(2.0, 3.0) == 4.5
    assert m_flat.lagrangian(2.0, 3.0) == 4.5

    with pytest.raises(ValueError):
        hv.separable_hamiltonian(np.ones(32))  # samples need a grid


def test_legendre_duality_closed_form_models():
    """L(x, H_p(x, p)) + H(x, p) == p * H_p(x, p) for quadratic kinetic models."""
    g = hv.Grid1D(16)
    for m in (hv.pendulum_hamiltonian(), hv.separable_hamiltonian(np.sin),
              hv.flat_hamiltonian()):
        for p in np.linspace(-3.0, 3.0, 25):
            v = m.dhdp(g.x, p)
            defect = m.lagrangian(g.x, v) + m.h(g.x, p) - p * v
            assert np.max(np.abs(defect)) <= 1e-10


def test_legendre_duality_numeric_transform():
    # quartic kinetic energy: the Lagrangian has no closed form here and
    # goes through the bracketed golden-section maximization
    m = hv.generic_hamiltonian(
        h=lambda x, p: 0.25 * p ** 4 + 0.5 * p ** 2 + 0.0 * x,
        dhdp=lambda x, p: p ** 3 + p + 0.0 * x,
        d2hdp2=lambda x, p: 3.0 * p ** 2 + 1.0 + 0.0 * x,
        descriptor="quartic",
    )
    for p in np.linspace(-2.0, 2.0, 17):
        v = float(m.dhdp(0.0, p))
        lag = float(m.lagrangian(0.0, v))
        exact = 0.75 * p ** 4 + 0.5 * p ** 2
        assert abs(lag - exact) <= 1e-8
        assert abs(lag + m.h(0.0, p) - p * v) <= 1e-8


def test_verify_tonelli_accepts_convex_rejects_concave():
    g = hv.Grid1D(32)
    floor = hv.verify_tonelli(hv.pendulum_hamiltonian(), g)
    assert abs(floor - 1.0) <= 1e-12

    concave = hv.generic_hamiltonian(
        h=lambda x, p: -0.5 * p ** 2 + 0.0 * x,
        dhdp=lambda x, p: -p + 0.0 * x,
        d2hdp2=lambda x, p: -1.0 + 0.0 * x,
        descriptor="concave",
    )
    with pytest.raises(ValueError):
        hv.verify_tonelli(concave, g)


def test_stencils_annihilate_constants():
    g = hv.Grid1D(64)
    c = hv.ScalarField(g, np.full(64, 2.7))
    assert np.all(hv.central_gradient(c).values == 0.0)
    assert np.all(hv.discrete_laplacian(c).values == 0.0)


def test_stencils_match_trig_derivatives():
    g = hv.Grid1D(1024)
    u = hv.ScalarField(g, np.sin(g.x))
    grad_err = np.max(np.abs(hv.central_gradient(u).values - np.cos(g.x)))
    lap_err = np.max(np.abs(hv.discrete_laplacian(u).values + np.sin(g.x)))
    assert grad_err <= 1e-4
    assert lap_err <= 1e-4
    u2 = hv.ScalarField(g, np.cos(2.0 * g.x))
    lap2_err = np.max(np.abs(hv.discrete_laplacian(u2).values
                             + 4.0 * np.cos(2.0 * g.x)))
    assert lap2_err <= 1e-4


def test_stencils_are_second_order():
    """Halving h divides the trig-polynomial stencil error by about 4."""

    def errs(n):
        g = hv.Grid1D(n)
        vals = np.sin(g.x) + 0.2 * np.cos(3.0 * g.x)
        u = hv.ScalarField(g, vals)
        dex = np.cos(g.x) - 0.6 * np.sin(3.0 * g.x)
        lex = -np.sin(g.x) - 1.8 * np.cos(3.0 * g.x)
        return (np.max(np.abs(hv.central_gradient(u).values - dex)),
                np.max(np.abs(hv.discrete_laplacian(u).values - lex)))

    e256 = errs(256)
    e512 = errs(512)
    e1024 = errs(1024)
    for coarse, fine in ((e256, e512), (e512, e1024)):
        assert 3.5 <= coarse[0] / fine[0] <= 4.5
        assert 3.5 <= coarse[1] / fine[1] <= 4.5


def test_gradient_sees_the_periodic_seam():
    # u = x is not periodic; the wrap-around row must feel the jump
    g = hv.Grid1D(128)
    u = hv.ScalarField(g, g.x.copy())
    grad = hv.central_gradient(u).values
    interior = grad[1:-1]
    assert np.max(np.abs(interior - 1.0)) <= 1e-12
    # seam rows see the full drop: (u[1] - u[n-1]) / 2h = 1 - n/2
    assert np.isclose(np.max(np.abs(grad)), g.n / 2 - 1.0, rtol=1e-12)


def test_inf_norm_diff():
    g = hv.Grid1D(16)
    a = hv.ScalarField(g, np.zeros(16))
    b = hv.ScalarField(g, np.full(16, 0.25))
    assert hv.inf_norm_diff(a, b) == 0.25
    assert hv.inf_norm_diff(a, a) == 0.0
    with pytest.raises(ValueError):
        hv.inf_norm_diff(a, hv.ScalarField(hv.Grid1D(32), np.zeros(32)))


def test_every_exported_name_resolves():
    missing = [name for name in hv.__all__ if not hasattr(hv, name)]
    assert not missing, missing
