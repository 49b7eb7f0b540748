"""Pauli-analogous tensor-product parametrization of Sp(2*2^m) and sp(2*2^m).

Multi-indices ``alpha = (a_0, ..., a_m)`` with entries in Z_2 x Z_2 label the
signed-permutation matrices ``S_alpha = S_{a_0} (x) ... (x) S_{a_m}`` built
from the 2x2 factors

    I = [[1,0],[0,1]]   x = [[0,1],[1,0]]
    y = [[0,-1],[1,0]]  z = [[1,0],[0,-1]]

with the pair encoding (0,0) <-> I, (1,0) <-> x, (1,1) <-> y, (0,1) <-> z.
The first tensor factor (position 0) plays a distinguished role: it carries
the Q/P structure of the 2^m-mode phase space, and the symplectic form is
``J = -S_{(1,1),(0,0),...}``.

Two index sets matter:

* ``gamma_set(m)``: indices whose S_alpha form a basis of the Lie algebra
  sp(2*2^m).  Membership rule: delta(alpha) + [a_0 in {x, z}] is odd, where
  delta counts y-entries.
* ``gamma_tilde_set(m)``: all indices with a_0 in {I, y}; these S_beta are
  orthogonal symplectic and are the pulses available to bosonic schemes.

The index algebra and ``s_matrix`` act on tuples and on integer index
stacks alike: a stack of shape ``(..., m+1, 2)`` is ``np.array`` of the
tuples, with the x-bit and the z-bit of position j in ``[..., j, 0]`` and
``[..., j, 1]``, and ``s_matrix`` of a stack is the stack of its matrices,
built by one broadcast per position from a four-entry factor table.  Since
S_(x,z) = x^x z^z and zx = -xz, two factors multiply by the rule

    S_p S_q = (-1)^(p_z q_x) S_(p xor q)

at every position, so an ordered product is the xor of its indices with the
sign (-1)^(sum over factors of z_acc . x), z_acc being the xor of the
z-bits of all earlier factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import numpy.random  # numpy 2 loads it lazily; load it at import time

Pair = tuple[int, int]
MultiIndex = tuple[Pair, ...]

PAIR_I: Pair = (0, 0)
PAIR_X: Pair = (1, 0)
PAIR_Y: Pair = (1, 1)
PAIR_Z: Pair = (0, 1)
ALL_PAIRS: tuple[Pair, ...] = (PAIR_I, PAIR_X, PAIR_Y, PAIR_Z)

# The 2x2 factor of each pair, at code 2 * x-bit + z-bit: I, z, x, y
_FACTOR_TABLE = np.array([[[1, 0], [0, 1]],
                          [[1, 0], [0, -1]],
                          [[0, 1], [1, 0]],
                          [[0, -1], [1, 0]]], dtype=float)

# Resource guard: dimension 2^{m+1} and |Gamma| grow fast; m=4 (dim 32,
# |Gamma| = 528) is the largest size any verification here needs.
MAX_M = 4


def _check_m(m: int) -> None:
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > MAX_M:
        raise ValueError(f"m={m} exceeds the exhaustive-enumeration guard (max {MAX_M})")


def s_matrix(alpha) -> np.ndarray:
    """Kronecker product S_{a_0} (x) ... (x) S_{a_m}; dimension 2^{m+1}.

    ``alpha`` is one multi-index or an index stack of shape (..., m+1, 2),
    whose matrices come stacked along its leading axes.  A ragged stack
    raises numpy's ValueError.
    """
    a = np.asarray(alpha)
    if a.ndim < 2 or a.shape[-2] == 0 or a.shape[-1] != 2:
        raise ValueError(f"expected at least one (x, z) pair per multi-index, "
                         f"got shape {a.shape}")
    valid = ((a == 0) | (a == 1)).all(axis=-1)
    if not valid.all():
        raise ValueError(f"invalid Z2xZ2 entry {tuple(a[~valid][0].tolist())!r}")
    codes = (2 * a[..., 0] + a[..., 1]).astype(np.intp)
    M = _FACTOR_TABLE[codes[..., 0]]
    for j in range(1, codes.shape[-1]):
        M = (M[..., :, None, :, None] * _FACTOR_TABLE[codes[..., j]][..., None, :, None, :]
             ).reshape(codes.shape[:-1] + (2 * M.shape[-1],) * 2)
    return M


def y_count(alpha: MultiIndex) -> int:
    return sum(1 for a in alpha if tuple(a) == PAIR_Y)


def in_gamma(alpha: MultiIndex) -> bool:
    leading_xz = 1 if tuple(alpha[0]) in (PAIR_X, PAIR_Z) else 0
    return (y_count(alpha) + leading_xz) % 2 == 1


def gamma_set(m: int) -> tuple[MultiIndex, ...]:
    """Algebra-basis indices; |Gamma| = 2*2^{2m} + 2^m = dim sp(2*2^m)."""
    _check_m(m)
    return tuple(alpha for alpha in itertools.product(ALL_PAIRS, repeat=m + 1)
                 if in_gamma(alpha))


def gamma_tilde_set(m: int) -> tuple[MultiIndex, ...]:
    """Pulse-eligible indices (a_0 in {I, y}); |Gamma~| = 2*4^m."""
    _check_m(m)
    return tuple(alpha for alpha in itertools.product(ALL_PAIRS, repeat=m + 1)
                 if tuple(alpha[0]) in (PAIR_I, PAIR_Y))


def symplectic_form_index(m: int) -> MultiIndex:
    """Index of -J: the form is J = -S_{(1,1),(0,0),...,(0,0)}."""
    return (PAIR_Y,) + (PAIR_I,) * m


def symplectic_inner_product(alpha, beta):
    """Componentwise symplectic pairing sum_j a_j^T [[0,1],[-1,0]] b_j mod 2.

    Either argument may be an index stack of shape (..., m+1, 2); the stacks
    broadcast against each other.  Two single indices give an ``int``.
    """
    a, b = np.asarray(alpha), np.asarray(beta)
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError("multi-index length mismatch")
    pairing = (a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0]).sum(axis=-1) % 2
    return int(pairing) if pairing.ndim == 0 else pairing


def product_index(alphas: Sequence[MultiIndex]) -> tuple[MultiIndex, int]:
    """Index and sign of the ordered product: prod_k S_{alpha_k} = sign * S_xor.

    The empty product is (all-zero index of length 1, +1); callers that know
    the index length should prefer passing at least one operand.
    """
    if len(alphas) == 0:
        return ((PAIR_I,), 1)
    try:
        stack = np.asarray(alphas, dtype=np.int64)
    except ValueError as exc:
        raise ValueError("multi-index length mismatch") from exc
    acc = np.bitwise_xor.accumulate(stack, axis=0)
    odd = (acc[:-1, :, 1] * stack[1:, :, 0]).sum() % 2
    return tuple(map(tuple, acc[-1].tolist())), -1 if odd else 1


_PULSE_AXES = ("x", "y", "z")


def pulse_index(axis: str, qubit: int, m: int) -> MultiIndex:
    """Multi-index of the named control pulse.

    ``("y", 0)`` is the all-mode quarter rotation y (x) I^m; for
    ``1 <= i <= m``, ``("x", i)`` swaps mode pairs, ``("z", i)`` is a
    half-mode phase flip and ``("y", i)`` their product, each acting as
    I (x) ... (x) {x,y,z} (x) ... (x) I with the factor at position i.
    """
    _check_m(m)
    if axis not in _PULSE_AXES:
        raise ValueError(f"unknown pulse axis {axis!r}")
    if qubit == 0:
        if axis != "y":
            raise ValueError("position 0 only supports the y pulse")
    elif not 1 <= qubit <= m:
        raise ValueError(f"pulse position {qubit} out of range for m={m}")
    pair = {"x": PAIR_X, "y": PAIR_Y, "z": PAIR_Z}[axis]
    idx = [PAIR_I] * (m + 1)
    idx[qubit] = pair
    return tuple(idx)


def pulse_matrix(axis: str, qubit: int, m: int) -> np.ndarray:
    return s_matrix(pulse_index(axis, qubit, m))


def pulse_generator(axis: str, qubit: int, m: int) -> np.ndarray:
    """An algebra element G with exp(G) = +-pulse_matrix(axis, qubit, m)."""
    idx = pulse_index(axis, qubit, m)  # validates arguments
    y0 = s_matrix(symplectic_form_index(m))
    if qubit == 0:
        return (np.pi / 2) * y0
    W = s_matrix(idx)
    if axis == "y":
        return (np.pi / 2) * W
    return (np.pi / 2) * (y0 @ (W + np.eye(W.shape[0])))


def expand_in_basis(X: np.ndarray, m: int, tol: float = 1e-10) -> dict[MultiIndex, float]:
    """Coefficients B_alpha with X = sum_alpha B_alpha S_alpha over Gamma(m).

    Uses trace orthogonality of the signed-permutation basis,
    B_alpha = tr(S_alpha^T X) / 2^{m+1}.  Raises if the reconstruction does
    not close, i.e. X is not in the algebra spanned by Gamma(m).
    """
    _check_m(m)
    dim = 2 ** (m + 1)
    X = np.asarray(X, dtype=float)
    if X.shape != (dim, dim):
        raise ValueError(f"expected shape {(dim, dim)}, got {X.shape}")
    coeffs = {}
    recon = np.zeros_like(X)
    for alpha in gamma_set(m):
        S = s_matrix(alpha)
        b = float(np.trace(S.T @ X)) / dim
        coeffs[alpha] = b
        if b != 0.0:
            recon += b * S
    defect = np.linalg.norm(recon - X)
    if defect > tol * max(1.0, float(np.linalg.norm(X))):
        raise ValueError(f"matrix is not in sp(2*2^{m}): reconstruction defect {defect:.3e}")
    return coeffs


@dataclass(frozen=True)
class AdjointActionReport:
    m: int
    n_checked: int
    exhaustive: bool
    max_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol


def verify_adjoint_action(m: int, tol: float = 1e-12,
                          samples: int = 1000, seed: int = 0) -> AdjointActionReport:
    """Check S_beta^{-1} S_alpha S_beta = (-1)^{<alpha,beta>} S_alpha.

    Exhaustive over Gamma x Gamma~ for m <= 2; for larger m a seeded sample
    of ``samples`` pairs is tested.  S_beta is orthogonal, so the inverse is
    the transpose.
    """
    _check_m(m)
    gamma = gamma_set(m)
    gtilde = gamma_tilde_set(m)
    if m <= 2:
        pairs: Iterable[tuple[MultiIndex, MultiIndex]] = itertools.product(gamma, gtilde)
        n_total = len(gamma) * len(gtilde)
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        pairs = ((gamma[rng.integers(len(gamma))], gtilde[rng.integers(len(gtilde))])
                 for _ in range(samples))
        n_total = samples
        exhaustive = False
    max_dev = 0.0
    for alpha, beta in pairs:
        Sa = s_matrix(alpha)
        Sb = s_matrix(beta)
        sign = -1.0 if symplectic_inner_product(alpha, beta) else 1.0
        dev = float(np.linalg.norm(Sb.T @ Sa @ Sb - sign * Sa))
        if dev > max_dev:
            max_dev = dev
    return AdjointActionReport(m=m, n_checked=n_total, exhaustive=exhaustive,
                               max_deviation=max_dev, tol=tol)
