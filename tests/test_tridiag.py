"""Cyclic tridiagonal solver: oracle comparisons and the residual certificate."""

from pathlib import Path

import numpy as np
import pytest

import hjvisc as hv
from hjvisc.tridiag import (CyclicTridiagonalMatrix, factor_cyclic_tridiagonal,
                            factor_tridiagonal, solve_cyclic_tridiagonal)


def _random_dominant(n, seed):
    rng = np.random.RandomState(seed)
    sub = rng.uniform(-1.0, 1.0, n)
    sup = rng.uniform(-1.0, 1.0, n)
    diag = 4.0 + rng.uniform(0.0, 1.0, n)
    return CyclicTridiagonalMatrix(diag, sub, sup)


def test_identity_solve():
    n = 12
    m = CyclicTridiagonalMatrix(np.ones(n), np.zeros(n), np.zeros(n))
    rhs = np.random.RandomState(3).standard_normal(n)
    x = solve_cyclic_tridiagonal(m, rhs)
    assert np.max(np.abs(x - rhs)) <= 1e-15


def test_matches_dense_oracle():
    for seed in (0, 1, 7):
        m = _random_dominant(8, seed)
        rhs = np.random.RandomState(100 + seed).standard_normal(8)
        x = solve_cyclic_tridiagonal(m, rhs)
        x_dense = np.linalg.solve(m.dense(), rhs)
        assert np.max(np.abs(x - x_dense)) <= 1e-12
        assert np.max(np.abs(m.matvec(x) - rhs)) <= 1e-12
        # one factorization serves many right-hand sides
        solve = factor_cyclic_tridiagonal(m)
        for k in range(3):
            rhs = np.random.RandomState(200 + 10 * seed + k).standard_normal(8)
            assert np.max(np.abs(solve(rhs) - np.linalg.solve(m.dense(), rhs))) <= 1e-12
        # stacked right-hand sides, k = n included
        for k in (3, 8):
            rhs = np.random.RandomState(300 + 10 * seed + k).standard_normal((8, k))
            assert np.max(np.abs(solve(rhs) - np.linalg.solve(m.dense(), rhs))) <= 1e-12


def test_matvec_agrees_with_dense():
    m = _random_dominant(9, 42)
    v = np.random.RandomState(5).standard_normal(9)
    assert np.max(np.abs(m.matvec(v) - m.dense() @ v)) <= 1e-14


def test_transpose_is_dense_transpose():
    m = _random_dominant(9, 42)
    assert np.array_equal(m.transpose().dense(), m.dense().T)


def test_corner_entries_are_wired_to_the_right_slots():
    n = 5
    sub = np.zeros(n)
    sup = np.zeros(n)
    sub[0] = 2.0   # row 0, column n-1
    sup[n - 1] = 3.0  # row n-1, column 0
    m = CyclicTridiagonalMatrix(np.zeros(n), sub, sup)
    d = m.dense()
    assert d[0, n - 1] == 2.0
    assert d[n - 1, 0] == 3.0
    e_last = np.zeros(n)
    e_last[-1] = 1.0
    assert m.matvec(e_last)[0] == 2.0


def test_stiff_viscous_style_system():
    """Bands scaled like eps/h^2 ~ 1e4 still pass the backward-error gate."""
    n = 512
    h = hv.TWO_PI / n
    k = 0.05 / h ** 2
    diag = np.full(n, 1e-2 + 2.0 * k)
    sub = np.full(n, -k)
    sup = np.full(n, -k)
    m = CyclicTridiagonalMatrix(diag, sub, sup)
    rhs = np.sin(np.arange(n) * h)
    x = solve_cyclic_tridiagonal(m, rhs)
    norm_a = np.max(np.abs(diag) + np.abs(sub) + np.abs(sup))
    res = np.max(np.abs(m.matvec(x) - rhs))
    assert res <= 1e-12 * max(np.max(np.abs(rhs)), norm_a * np.max(np.abs(x)))


def test_singular_laplacian_rejected_on_constants():
    # pure periodic Laplacian with no zeroth-order term: constants span the
    # kernel, a constant rhs is inconsistent, and the amplification cap trips
    n = 64
    m = CyclicTridiagonalMatrix(np.full(n, -2.0), np.ones(n), np.ones(n))
    with pytest.raises(hv.ConvergenceError, match="singular"):
        solve_cyclic_tridiagonal(m, np.ones(n))


def test_singular_laplacian_with_consistent_rhs_is_rejected():
    """A mean-zero rhs lies in the range, but the one factorization meets
    the singular system and no second algorithm is tried."""
    n = 64
    m = CyclicTridiagonalMatrix(np.full(n, -2.0), np.ones(n), np.ones(n))
    rhs = np.sin(np.arange(n) * hv.TWO_PI / n)  # exactly mean-zero
    with pytest.raises(hv.ConvergenceError, match="singular"):
        solve_cyclic_tridiagonal(m, rhs)


def test_no_module_uses_scipy_sparse():
    # every banded solve goes through the one gttrf/gttrs factorization
    src = Path(hv.__file__).parent
    users = [p.name for p in sorted(src.glob("*.py")) if "scipy.sparse" in p.read_text()]
    assert users == []


def test_exact_zero_pivot_raises_convergence_error():
    d = np.array([0.0, 2.0, 2.0, 2.0])
    dl = np.array([0.0, 1.0, 1.0])
    du = np.array([0.0, 1.0, 1.0])
    with pytest.raises(hv.ConvergenceError, match="zero pivot"):
        factor_tridiagonal(dl, d, du)


def test_input_validation():
    n = 4
    m = CyclicTridiagonalMatrix(np.ones(n), np.zeros(n), np.zeros(n))
    with pytest.raises(ValueError):
        solve_cyclic_tridiagonal(m, np.ones(5))
    with pytest.raises(ValueError):
        solve_cyclic_tridiagonal(m, np.array([1.0, np.inf, 0.0, 0.0]))
    with pytest.raises(ValueError):
        CyclicTridiagonalMatrix(np.ones(2), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        CyclicTridiagonalMatrix(np.ones(4), np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        CyclicTridiagonalMatrix(np.full(4, np.nan), np.zeros(4), np.zeros(4))
