"""Tridiagonal systems: one LAPACK factorization, many solves.

factor_tridiagonal runs LAPACK's pivoted tridiagonal LU (?gttrf) once and
returns a solver that applies it with ?gttrs. A periodic stencil produces a
matrix that is tridiagonal except for the two corner entries A[0, n-1] and
A[n-1, 0]. Writing A = T + outer(w, v) with T plainly tridiagonal reduces
each solve to one solve with T and the Sherman-Morrison update

    x = y - z * (v . y) / (1 + v . z),   T y = r,  T z = w.

factor_cyclic_tridiagonal factors T and solves T z = w once, so every later
right-hand side costs one ?gttrs call plus the rank-one fix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .core import ConvergenceError

RESIDUAL_TOL = 1e-12


@dataclass
class CyclicTridiagonalMatrix:
    """Rows: sub_j * x_{j-1} + diag_j * x_j + super_j * x_{j+1}, indices mod n.

    sub[0] is the corner entry in column n-1 of row 0; super[n-1] is the
    corner entry in column 0 of row n-1.
    """

    diag: np.ndarray
    sub: np.ndarray
    super: np.ndarray

    def __post_init__(self) -> None:
        self.diag = np.asarray(self.diag, dtype=float)
        self.sub = np.asarray(self.sub, dtype=float)
        self.super = np.asarray(self.super, dtype=float)
        n = self.diag.shape[0]
        if n < 3:
            raise ValueError("cyclic tridiagonal systems need n >= 3")
        if self.sub.shape != (n,) or self.super.shape != (n,):
            raise ValueError("diag, sub, super must share one length")
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.sub))
                and np.all(np.isfinite(self.super))):
            raise ValueError("matrix bands contain non-finite entries")

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return (self.diag * x
                + self.sub * np.roll(x, 1)
                + self.super * np.roll(x, -1))

    def dense(self) -> np.ndarray:
        """Materialize the full matrix; meant for small oracle comparisons."""
        n = self.n
        a = np.zeros((n, n))
        idx = np.arange(n)
        a[idx, idx] = self.diag
        a[idx, (idx + 1) % n] = self.super
        a[idx, (idx - 1) % n] = self.sub
        return a

    def transpose(self) -> CyclicTridiagonalMatrix:
        return CyclicTridiagonalMatrix(diag=self.diag, sub=np.roll(self.super, 1),
                                       super=np.roll(self.sub, -1))


def factor_tridiagonal(dl: np.ndarray, d: np.ndarray, du: np.ndarray):
    """Factor the tridiagonal matrix with sub-, main and super-diagonal
    dl, d, du once; returns rhs -> solution.

    Raises ConvergenceError when the factorization meets an exact zero pivot.
    """
    dl, d, du, du2, ipiv, info = lapack.dgttrf(dl, d, du)
    if info != 0:
        raise ConvergenceError(f"tridiagonal factorization failed: zero pivot in row {info}")

    def solve(rhs: np.ndarray) -> np.ndarray:
        return lapack.dgttrs(dl, d, du, du2, ipiv, rhs)[0]

    return solve


def factor_cyclic_tridiagonal(matrix: CyclicTridiagonalMatrix):
    """Factor the cyclic matrix once; returns rhs -> solution, for rhs of
    shape (n,) or (n, k).

    Raises ConvergenceError when the tridiagonal part has a zero pivot or the
    Sherman-Morrison denominator vanishes (singular system). Solutions carry
    no certificate; solve_cyclic_tridiagonal adds one.
    """
    n = matrix.n
    d = matrix.diag
    alpha = matrix.sub[0]       # row 0, column n-1
    beta = matrix.super[n - 1]  # row n-1, column 0
    gamma = -d[0] if abs(d[0]) > 1e-300 else -(np.max(np.abs(d)) + 1.0)
    d_mod = d.copy()
    d_mod[0] -= gamma
    d_mod[-1] -= alpha * beta / gamma
    solve_t = factor_tridiagonal(matrix.sub[1:], d_mod, matrix.super[:-1])
    w = np.zeros(n)
    w[0] = gamma
    w[-1] = beta
    # v = e_0 + (alpha/gamma) e_{n-1}
    z = solve_t(w)
    denom = 1.0 + z[0] + (alpha / gamma) * z[-1]
    if abs(denom) < 1e-13:
        raise ConvergenceError("cyclic tridiagonal solve rejected: singular system "
                               "(rank-one correction denominator vanished)")

    def solve(rhs: np.ndarray) -> np.ndarray:
        y = solve_t(rhs)
        factor = (y[0] + (alpha / gamma) * y[-1]) / denom
        return y - np.multiply.outer(z, factor)

    return solve


def solve_cyclic_tridiagonal(matrix: CyclicTridiagonalMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs with a residual certificate.

    The certificate is the backward-error gate

        ||A x - rhs||_inf <= 1e-12 * max(||rhs||_inf, ||A||_inf * ||x||_inf),

    the sharpest form a double-precision direct solve can meet: even the
    rounded exact solution carries a residual of order eps * ||A|| * ||x||,
    which dwarfs ||rhs|| for stiff Jacobians (eps/h^2 large). For well-scaled
    systems the gate reduces to the plain relative-residual check. An
    amplification cap ||A||_inf * ||x||_inf <= 1e11 * ||rhs||_inf guards the
    blind spot of pure backward error: a singular system with consistent rhs
    admits arbitrarily large x with tiny backward error, yet any such x is
    numerically meaningless. The solve is the one factorization of
    factor_cyclic_tridiagonal; ConvergenceError is raised straight away when
    the system is singular or near-singular (vanishing Sherman-Morrison
    denominator, a zero pivot, a residual above the gate, or a tripped
    amplification cap).
    """
    rhs = np.asarray(rhs, dtype=float)
    n = matrix.n
    if rhs.shape != (n,):
        raise ValueError(f"rhs length {rhs.shape} does not match n={n}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs contains non-finite entries")

    rhs_scale = float(np.max(np.abs(rhs)))
    norm_a = float(np.max(np.abs(matrix.diag) + np.abs(matrix.sub) + np.abs(matrix.super)))

    x = factor_cyclic_tridiagonal(matrix)(rhs)
    res = float(np.max(np.abs(matrix.matvec(x) - rhs)))
    x_scale = float(np.max(np.abs(x)))
    if norm_a * x_scale > 1e11 * max(rhs_scale, 1e-300):
        raise ConvergenceError(
            "cyclic tridiagonal solve rejected: solution amplification "
            f"{norm_a * x_scale / max(rhs_scale, 1e-300):.3e} exceeds 1e11 "
            "(singular or near-singular system)")
    tol = RESIDUAL_TOL * max(rhs_scale, norm_a * x_scale, 1e-300)
    if not np.isfinite(res) or res > tol:
        raise ConvergenceError(
            f"cyclic tridiagonal solve rejected: residual {res:.3e} exceeds {tol:.3e} "
            "(singular or near-singular system)")
    return x
