"""Cyclic tridiagonal solver: oracle comparisons and the residual certificate."""

import ast
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import hjvisc as hv
from hjvisc.tridiag import (CyclicTridiagonalMatrix, factor_cyclic_tridiagonal,
                            solve_cyclic_tridiagonal)


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


def test_matches_dense_oracle(pendulum, monkeypatch):
    for seed in (0, 1, 7):
        m = _random_dominant(8, seed)
        rhs = np.random.RandomState(100 + seed).standard_normal(8)
        x = solve_cyclic_tridiagonal(m, rhs)
        x_dense = np.linalg.solve(m.dense(), rhs)
        assert np.max(np.abs(x - x_dense)) <= 1e-12
        assert np.max(np.abs(m.matvec(x) - rhs)) <= 1e-12
        # one prepared solve serves many right-hand sides
        solve = factor_cyclic_tridiagonal(m)
        for k in range(3):
            rhs = np.random.RandomState(200 + 10 * seed + k).standard_normal(8)
            assert np.max(np.abs(solve(rhs) - np.linalg.solve(m.dense(), rhs))) <= 1e-12
        # stacked right-hand sides, k = n included
        for k in (3, 8):
            rhs = np.random.RandomState(300 + 10 * seed + k).standard_normal((8, k))
            assert np.max(np.abs(solve(rhs) - np.linalg.solve(m.dense(), rhs))) <= 1e-12

    # both entry points run the same elimination: equal bits on the Newton
    # steps of pendulum solves (captured at the viscous module's solve) and on
    # a Fokker-Planck step matrix, whose (n, 3) block is solved column by column
    steps = []
    certified = hv.viscous.solve_cyclic_tridiagonal

    def capture(matrix, rhs):
        steps.append((matrix, rhs))
        return certified(matrix, rhs)

    monkeypatch.setattr(hv.viscous, "solve_cyclic_tridiagonal", capture)
    for n in (2048, 16384):
        assert hv.solve_viscous(pendulum, 1e-2, 1e-2 ** 1.6, hv.Grid1D(n))[1].converged
    monkeypatch.undo()
    u, _ = hv.solve_viscous(pendulum, 2.5e-3, 2.5e-2, hv.Grid1D(256))
    stream = hv.evolve_fokker_planck(hv.drift_field(pendulum, u), 2.5e-2, 0, 1.0)
    rhs = np.random.RandomState(11).uniform(0.0, 1.0, (256, 3))
    steps += [(stream.matrix, rhs[:, k]) for k in range(3)]
    for m, rhs in steps:
        assert np.array_equal(factor_cyclic_tridiagonal(m)(rhs),
                              solve_cyclic_tridiagonal(m, rhs))
    solve = factor_cyclic_tridiagonal(stream.matrix)
    block = solve(np.column_stack([r for _, r in steps[-3:]]))
    for k, (_, r) in enumerate(steps[-3:]):
        assert np.array_equal(block[:, k], solve(r))


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
    """A mean-zero rhs lies in the range, but the one elimination meets
    the singular system and no second algorithm is tried."""
    n = 64
    m = CyclicTridiagonalMatrix(np.full(n, -2.0), np.ones(n), np.ones(n))
    rhs = np.sin(np.arange(n) * hv.TWO_PI / n)  # exactly mean-zero
    with pytest.raises(hv.ConvergenceError, match="singular"):
        solve_cyclic_tridiagonal(m, rhs)


def test_no_module_uses_scipy_sparse():
    # every banded solve goes through one LAPACK dgtsv call in tridiag.py, the
    # one module that imports scipy and reaches its LAPACK extension
    src = Path(hv.__file__).parent
    users = [p.name for p in sorted(src.glob("*.py")) if "scipy.sparse" in p.read_text()]
    assert users == []
    importers = [p.name for p in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(p.read_text()))
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and "scipy" in ast.unparse(node)]
    assert importers == ["tridiag.py"]
    reachers = [p.name for p in sorted(src.glob("*.py")) if "lapack" in p.read_text().lower()]
    assert reachers == ["tridiag.py"]
    assert hv.tridiag.lapack.__name__ == "scipy.linalg._flapack"
    tree = ast.parse((src / "tridiag.py").read_text())
    routines = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "lapack"]
    assert routines == ["dgtsv"]


def test_missing_lapack_extension_raises_import_error(monkeypatch, tmp_path):
    # no fallback to the scipy.linalg package: the error names the directory searched
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        hv.tridiag._load_flapack()


def test_stencils_wrap_only_through_core_and_modules_share_only_public_names():
    # core.shift is the one periodic wrap; no module reaches into another's
    # underscore names
    src = Path(hv.__file__).parent
    rolls = [p.name for p in sorted(src.glob("*.py")) if "np.roll" in p.read_text()]
    assert rolls == []
    private = [f"{p.name}: {node.module}.{alias.name}"
               for p in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("hjvisc"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_no_module_checks_with_assert_statements():
    # python -O strips assert statements; every check in the package must raise
    src = Path(hv.__file__).parent
    users = [p.name for p in sorted(src.glob("*.py"))
             if any(isinstance(node, ast.Assert) for node in ast.walk(ast.parse(p.read_text())))]
    assert users == []


def test_positivity_rule_lives_in_core():
    # core.check_positive and core.check_nonnegative are the one "positive and
    # finite" and "nonnegative and finite" rules; no module keeps a copy
    src = Path(hv.__file__).parent
    users = [p.name for p in sorted(src.glob("*.py")) if p.name != "core.py"
             and any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                     and ("must be positive" in node.value
                          or "must be nonnegative" in node.value)
                     for node in ast.walk(ast.parse(p.read_text())))]
    assert users == []


def test_exact_zero_pivot_raises_convergence_error():
    # after the corner split, T of this cyclic matrix meets a zero pivot in
    # row 2: the one-call certified solve and the factored solve reject it alike
    m = CyclicTridiagonalMatrix(np.ones(4), np.array([0.0, 2.0, 0.0, 0.0]),
                                np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(hv.ConvergenceError, match="zero pivot in row 2"):
        solve_cyclic_tridiagonal(m, np.ones(4))
    with pytest.raises(hv.ConvergenceError, match="zero pivot in row 2"):
        factor_cyclic_tridiagonal(m)


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
