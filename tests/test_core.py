"""Grid, field, stencil, and Hamiltonian model contracts."""

import numpy as np
import pytest

import hjvisc as hv
from hjvisc.core import forward_difference, shift


def test_grid_basic_geometry():
    for n in (8, 100, 64):
        g = hv.Grid1D(n)
        assert g.length == hv.TWO_PI
        assert abs(g.h * g.n - hv.TWO_PI) <= 1e-14 * hv.TWO_PI
        assert g.x.shape == (n,)
        assert g.x[0] == 0.0
        assert abs(g.x[-1] - (hv.TWO_PI - g.h)) <= 1e-12


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        hv.Grid1D(7)
    with pytest.raises(ValueError):
        hv.Grid1D(0)


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
    assert m.h(0.0, 0.0) == 0.0
    assert m.h(np.pi, 0.0) == -2.0
    assert m.lagrangian(0.0, 0.0) == 0.0
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
    m_samp = hv.separable_hamiltonian(samples, g)
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
            v = p
            defect = m.lagrangian(g.x, v) + m.h(g.x, p) - p * v
            assert np.max(np.abs(defect)) <= 1e-10


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


@pytest.mark.parametrize("n", [8, 9, 681])
def test_shift_is_the_periodic_roll(n):
    v = np.arange(3 * n, dtype=float).reshape(n, 3) ** 1.5
    for arr in (v[:, 0], v):
        assert np.array_equal(shift(arr, 1), np.roll(arr, -1, axis=0))
        assert np.array_equal(shift(arr, -1), np.roll(arr, 1, axis=0))


def test_forward_difference_is_the_half_node_drift():
    g = hv.Grid1D(681)
    u = hv.ScalarField(g, np.sin(g.x) + 0.3 * np.cos(2.0 * g.x))
    d_plus = forward_difference(u.values, g.h)
    assert np.array_equal(d_plus, hv.drift_field(hv.pendulum_hamiltonian(), u).values)

    # second order at x_{j+1/2}: halving h divides the error by about 4
    errs = []
    for n in (256, 512, 1024):
        g = hv.Grid1D(n)
        errs.append(np.max(np.abs(forward_difference(np.cos(g.x), g.h) + np.sin(g.x_half))))
    assert 3.9 <= errs[0] / errs[1] <= 4.1 and 3.9 <= errs[1] / errs[2] <= 4.1


def test_laplacian_divides_by_h_times_h():
    # at n = 681, h**2 and h*h differ in the last bit; the stencil uses h*h
    g = hv.Grid1D(681)
    assert g.h ** 2 != g.h * g.h
    v = np.cos(g.x)
    expect = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / (g.h * g.h)
    assert np.array_equal(hv.discrete_laplacian(hv.ScalarField(g, v)).values, expect)


def test_gradient_sees_the_periodic_seam():
    # u = x is not periodic; the wrap-around row must feel the jump
    g = hv.Grid1D(128)
    u = hv.ScalarField(g, g.x.copy())
    grad = hv.central_gradient(u).values
    interior = grad[1:-1]
    assert np.max(np.abs(interior - 1.0)) <= 1e-12
    # seam rows see the full drop: (u[1] - u[n-1]) / 2h = 1 - n/2
    assert np.isclose(np.max(np.abs(grad)), g.n / 2 - 1.0, rtol=1e-12)


def test_every_exported_name_resolves():
    missing = [name for name in hv.__all__ if not hasattr(hv, name)]
    assert not missing, missing


_GRID = hv.Grid1D(64)
_MODEL = hv.pendulum_hamiltonian()
_U = hv.solve_viscous(_MODEL, 0.1, 0.1, _GRID)[0]
_DRIFT = hv.drift_field(_MODEL, _U)
_LAMS = [0.1, 0.05, 0.02]

# (entry point, parameter) -> a call with the bad value in that slot
_POSITIVE_PARAMETERS = {
    "solve_viscous lambda": lambda v: hv.solve_viscous(_MODEL, v, 0.1, _GRID),
    "solve_viscous eps": lambda v: hv.solve_viscous(_MODEL, 0.1, v, _GRID),
    "solve_pendulum_ode lambda": lambda v: hv.solve_pendulum_ode(v, 32),
    "lax_friedrichs lambda": lambda v: hv.solve_discounted_lax_friedrichs(_MODEL, v, _GRID, 3.75),
    "lax_friedrichs sigma": lambda v: hv.solve_discounted_lax_friedrichs(_MODEL, 0.1, _GRID, v),
    "solve_adjoint_stationary lambda": lambda v: hv.solve_adjoint_stationary(_MODEL, _U, v, 0.1),
    "solve_adjoint_stationary eps": lambda v: hv.solve_adjoint_stationary(_MODEL, _U, 0.1, v),
    "evolve_fokker_planck eps": lambda v: hv.evolve_fokker_planck(_DRIFT, v, 0, 1.0),
    "evolve_fokker_planck t_final": lambda v: hv.evolve_fokker_planck(_DRIFT, 0.5, 0, v),
    "evolve_fokker_planck dt": lambda v: hv.evolve_fokker_planck(_DRIFT, 0.5, 0, 1.0, v),
    "stationary_from_transient lambda": lambda v: hv.stationary_from_transient(
        hv.evolve_fokker_planck(_DRIFT, 0.5, 0, 1.0), v),
    "estimate_ergodic_constant eps": lambda v: hv.estimate_ergodic_constant(
        _MODEL, v, _LAMS, _GRID),
    "estimate_ergodic_constant lambda entry": lambda v: hv.estimate_ergodic_constant(
        _MODEL, 0.1, [0.1, 0.05, v], _GRID),
    "sup_convolution delta": lambda v: hv.sup_convolution(_U, v),
    "subsolution_defect lambda": lambda v: hv.subsolution_defect(_U, v, _MODEL),
}


@pytest.mark.parametrize("case", sorted(_POSITIVE_PARAMETERS))
def test_entry_points_reject_non_positive_or_non_finite(case):
    for bad in (np.inf, np.nan, 0.0, -1.0, True):
        with pytest.raises(ValueError, match="positive and finite"):
            _POSITIVE_PARAMETERS[case](bad)
