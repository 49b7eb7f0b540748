"""Dense real linear algebra for the symplectic setting.

Conventions used throughout the package:

* Phase-space coordinates are QP-blocked per subsystem,
  ``(Q_1^S .. Q_nS^S, P_1^S .. P_nS^S, Q_1^E .. Q_nE^E, P_1^E .. P_nE^E)``.
* The symplectic form is ``J = J_S (+) J_E`` with each block
  ``[[0, I], [-I, 0]]`` in QP ordering, so ``J^2 = -I`` and ``J^T = -J``.
* A quadratic Hamiltonian with symmetric matrix ``A`` corresponds to the
  algebra element ``X = A J``; membership is tested via
  ``X^T J + J X = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModeLayout:
    """Mode counts fixing the canonical phase-space coordinate ordering."""

    n_system: int
    n_env: int = 0

    def __post_init__(self) -> None:
        if self.n_system < 1:
            raise ValueError("need at least one system mode")
        if self.n_env < 0:
            raise ValueError("environment mode count must be nonnegative")

    @property
    def n_total(self) -> int:
        return self.n_system + self.n_env

    @property
    def dim(self) -> int:
        """Full phase-space dimension 2*(n_system + n_env)."""
        return 2 * self.n_total

    @property
    def system_dim(self) -> int:
        return 2 * self.n_system

    @property
    def env_dim(self) -> int:
        return 2 * self.n_env


def _single_form(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def symplectic_form(layout: ModeLayout) -> np.ndarray:
    """The matrix J for a layout: ``J_{nS} (+) J_{nE}`` in QP-block ordering."""
    J = np.zeros((layout.dim, layout.dim))
    ds = layout.system_dim
    J[:ds, :ds] = _single_form(layout.n_system)
    if layout.n_env:
        J[ds:, ds:] = _single_form(layout.n_env)
    return J


def _check_square(M: np.ndarray, name: str = "matrix") -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")


def sp_algebra_residual(X: np.ndarray, J: np.ndarray) -> float:
    """Frobenius norm of ``X^T J + J X`` (zero iff X is in sp(2n))."""
    _check_square(X, "X")
    if X.shape != J.shape:
        raise ValueError(f"dimension mismatch: X {X.shape} vs J {J.shape}")
    return float(np.linalg.norm(X.T @ J + J @ X))


def symplectic_residual(S: np.ndarray, J: np.ndarray) -> float:
    """Frobenius norm of ``S J S^T - J`` (zero iff S is symplectic)."""
    _check_square(S, "S")
    if S.shape != J.shape:
        raise ValueError(f"dimension mismatch: S {S.shape} vs J {J.shape}")
    return float(np.linalg.norm(S @ J @ S.T - J))


def is_symplectic(S: np.ndarray, J: np.ndarray, tol: float = 1e-10) -> bool:
    return symplectic_residual(S, J) <= tol


# For ||X||_1 <= theta the degree-8 Taylor polynomial of e^X has relative
# error <= sum_{k>8} theta^k/k! * ||e^-X|| <= sum_{k>8} theta^k/k! * e^theta,
# about 5.7e-18 at theta = 5e-2, below 2^-53 ~ 1.1e-16 (cf. theta_8 = 5.0e-2
# in Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
_TAYLOR_THETA = 5e-2
# The same polynomial in three products (Bader, Blanes & Casas, Mathematics
# 7, 1174 (2019)), with r = sqrt(177):
#   X2 = X X,  X4 = X2 (x1 X + x2 X2),
#   T8 = (x3 X2 + X4)(x4 I + x5 X + x6 X2 + x7 X4) + y2 X2 + X + I.
_R = math.sqrt(177.0)
_TAYLOR_COEFFS = ((1 + _R) / 132, (1 + _R) / 528, 2 / 3,  # x1, x2, x3
                  (-271 + 29 * _R) / 210, 11 * (-1 + _R) / 840,  # x4, x5
                  11 * (-9 + _R) / 3360, (89 - _R) / 2240,  # x6, x7
                  (857 - 58 * _R) / 630)  # y2


def _taylor_exponential(X: np.ndarray) -> np.ndarray:
    """sum_{k<=8} X^k/k! in three matrix products, each sum accumulated left
    to right in place; for a stack of matrices, slice by slice."""
    x1, x2, x3, x4, x5, x6, x7, y2 = _TAYLOR_COEFFS
    I = np.eye(X.shape[-1])
    X2 = X @ X
    A = np.multiply(X2, x2)
    term = np.multiply(X, x1)
    term += A
    X4 = X2 @ term
    np.multiply(X2, x3, out=A)
    A += X4
    B = np.multiply(X, x5)
    B += x4 * I
    B += np.multiply(X2, x6, out=term)
    B += np.multiply(X4, x7, out=term)
    E = A @ B
    E += np.multiply(X2, y2, out=term)
    E += X
    E += I
    return E


def matrix_exponential(X: np.ndarray) -> np.ndarray:
    """Dense matrix exponential of each square matrix in ``(..., d, d)``.

    A slice with 1-norm <= theta = 5e-2 takes the degree-8 Taylor polynomial
    in three products (truncation error below 2^-53), any other slice
    scipy's scaling-and-squaring Pade; the branch is chosen per slice, so a
    stacked call equals the per-slice calls bitwise.  The CF4 passes of
    ``evolution``, sized to keep every factor below theta, call the Taylor
    kernel ``_taylor_exponential`` directly, without this screen.  Relative
    accuracy is ~1e-13 or better for ``||X|| <= 10``; larger inputs are
    handled by the backend's rescaling.
    ``scipy.linalg`` is imported only when a slice needs it, so a run whose
    slices all stay below theta never pays for loading it.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValueError(f"X must be square, got shape {X.shape}")
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        col_norms = np.abs(X).sum(axis=-2)
    norm = col_norms.max(initial=0.0)  # finite if X is, unless the sum overflows
    if not math.isfinite(norm) and not np.isfinite(X).all():
        raise ValueError("matrix exponential of non-finite input")
    if norm <= _TAYLOR_THETA:
        return _taylor_exponential(X)
    import scipy.linalg  # loaded on first use: most runs never get here
    small = col_norms.max(axis=-1) <= _TAYLOR_THETA
    if not small.any():
        return scipy.linalg.expm(X)
    E = np.empty_like(X)
    E[small] = _taylor_exponential(X[small])
    E[~small] = scipy.linalg.expm(X[~small])
    return E


@dataclass(frozen=True)
class Blocks:
    """System/environment block decomposition of a phase-space matrix."""

    ss: np.ndarray
    se: np.ndarray
    es: np.ndarray
    ee: np.ndarray


def block_decompose(M: np.ndarray, layout: ModeLayout) -> Blocks:
    _check_square(M, "M")
    if M.shape[0] != layout.dim:
        raise ValueError(f"matrix dimension {M.shape[0]} != layout dimension {layout.dim}")
    d = layout.system_dim
    return Blocks(ss=M[:d, :d].copy(), se=M[:d, d:].copy(),
                  es=M[d:, :d].copy(), ee=M[d:, d:].copy())


def offdiag_residual(M: np.ndarray, layout: ModeLayout) -> float:
    """sqrt(||M_SE||_F^2 + ||M_ES||_F^2), the distance to the nearest
    block-diagonal matrix in Frobenius norm."""
    b = block_decompose(M, layout)
    return float(np.sqrt(np.linalg.norm(b.se) ** 2 + np.linalg.norm(b.es) ** 2))


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of a 2-d array (0 for an empty one)."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    if M.ndim != 2:
        raise ValueError("spectral_norm expects a 2-d array")
    return float(np.linalg.norm(M, 2))
