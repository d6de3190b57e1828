"""Cyclic tridiagonal systems: one LAPACK dgtsv elimination behind every solve.

A periodic stencil produces a matrix that is tridiagonal except for the two
corner entries A[0, n-1] and A[n-1, 0]. Writing A = T + outer(w, v) with T
plainly tridiagonal reduces each solve to solves with T and the
Sherman-Morrison update

    x = y - z * (v . y) / (1 + v . z),   T y = r,  T z = w.

Every solve makes one dgtsv call (_eliminate) and one rank-one correction
(_sherman_morrison). solve_cyclic_tridiagonal, the certified solve of every
Newton step, eliminates the block [w, r] in that call;
factor_cyclic_tridiagonal solves T z = w once for many right-hand sides.

LAPACK is reached through scipy's compiled f2py extension
scipy.linalg._flapack, loaded from scipy's directory and registered under
that name, instead of through the scipy.linalg package. That package's init
pulls in numpy.f2py, numpy.testing, numpy.ma and numpy.random, which doubled
the start-up time and added about 24 MB of RSS, for a package that calls
one routine. `import scipy` still runs scipy's own init first, and a later
`import scipy.linalg` finds the registered module, so the process holds
one instance of the extension and dgtsv is the same wrapper either way.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
import scipy

from .core import ConvergenceError, shift

RESIDUAL_TOL = 1e-12


def _load_flapack():
    """The scipy.linalg._flapack extension, loaded once per process without
    running the scipy.linalg package init. ImportError when it is missing."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        where = os.path.join(scipy.__path__[0], "linalg")
        spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ImportError(f"scipy's LAPACK extension _flapack not found in {where}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.setdefault(name, module)
    return sys.modules[name]


lapack = _load_flapack()


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
        # diag*x + sub*x_{j-1} + super*x_{j+1}, summed in that order, from slices
        y = self.diag * x
        y[1:] += self.sub[1:] * x[:-1]
        y[0] += self.sub[0] * x[-1]
        y[:-1] += self.super[:-1] * x[1:]
        y[-1] += self.super[-1] * x[0]
        return y

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
        return CyclicTridiagonalMatrix(diag=self.diag, sub=shift(self.super, -1),
                                       super=shift(self.sub, 1))


def _split_corners(matrix: CyclicTridiagonalMatrix) -> tuple[tuple, np.ndarray, float]:
    """(bands (dl, d, du) of T, w, ratio): A = T + outer(w, v), v = e_0 + ratio*e_{n-1}."""
    d = matrix.diag
    alpha = matrix.sub[0]     # row 0, column n-1
    beta = matrix.super[-1]   # row n-1, column 0
    gamma = -d[0] if abs(d[0]) > 1e-300 else -(np.max(np.abs(d)) + 1.0)
    d_mod = d.copy()
    d_mod[0] -= gamma
    d_mod[-1] -= alpha * beta / gamma
    w = np.zeros(matrix.n)
    w[0], w[-1] = gamma, beta
    return (matrix.sub[1:], d_mod, matrix.super[:-1]), w, alpha / gamma


def _eliminate(bands: tuple, b: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """T^-1 b, b of shape (n,) or (n, k), by pivoted elimination in one dgtsv call, which
    may destroy d and b when overwrite is set. ConvergenceError at an exact zero pivot."""
    *_, x, info = lapack.dgtsv(*bands, b, overwrite_d=overwrite, overwrite_b=overwrite)
    if info != 0:
        raise ConvergenceError(f"tridiagonal elimination failed: zero pivot in row {info}")
    return x


def _sherman_morrison(z: np.ndarray, ratio: float):
    """y -> y - z (v . y)/(1 + v . z), mapping T^-1 rhs to A^-1 rhs for y of
    shape (n,) or (n, k). ConvergenceError when 1 + v . z vanishes."""
    denom = 1.0 + z[0] + ratio * z[-1]
    if abs(denom) < 1e-13:
        raise ConvergenceError("cyclic tridiagonal solve rejected: singular system "
                               "(rank-one correction denominator vanished)")

    def correct(y: np.ndarray) -> np.ndarray:
        return y - np.multiply.outer(z, (y[0] + ratio * y[-1]) / denom)

    return correct


def factor_cyclic_tridiagonal(matrix: CyclicTridiagonalMatrix):
    """Solve T z = w once; returns rhs -> solution for rhs of shape (n,) or
    (n, k), each one dgtsv call plus the rank-one correction. A zero pivot of
    T or a singular system raises ConvergenceError here. Solutions carry no
    certificate; solve_cyclic_tridiagonal adds one."""
    bands, w, ratio = _split_corners(matrix)
    correct = _sherman_morrison(_eliminate(bands, w), ratio)

    def solve(rhs: np.ndarray) -> np.ndarray:
        return correct(_eliminate(bands, rhs))

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
    numerically meaningless. ConvergenceError is raised straight away for a
    zero pivot, a vanishing Sherman-Morrison denominator, a residual above
    the gate or a tripped cap (singular or near-singular system).
    """
    rhs = np.asarray(rhs, dtype=float)
    n = matrix.n
    if rhs.shape != (n,):
        raise ValueError(f"rhs length {rhs.shape} does not match n={n}")
    rhs_scale = float(np.max(np.abs(rhs)))  # not finite exactly when an entry is not
    if not np.isfinite(rhs_scale):
        raise ValueError("rhs contains non-finite entries")
    row_sums = np.abs(matrix.diag)
    row_sums += np.abs(matrix.sub)
    row_sums += np.abs(matrix.super)
    norm_a = float(np.max(row_sums))

    bands, w, ratio = _split_corners(matrix)
    block = np.empty((n, 2), order="F")
    block[:, 0] = w
    block[:, 1] = rhs
    zy = _eliminate(bands, block, overwrite=True)
    x = _sherman_morrison(zy[:, 0], ratio)(zy[:, 1])
    r = matrix.matvec(x)
    r -= rhs
    res = float(np.max(np.abs(r, out=r)))
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
