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

Indices are integer stacks: one multi-index is an ``(m+1, 2)`` array of
the x-bit and z-bit of each position, a set of them an ``(n, m+1, 2)``
array (tuples of pairs are accepted as input, and never returned).
``all_indices(m)`` stacks all 4^{m+1} in ``itertools.product(ALL_PAIRS,
repeat=m+1)`` order; two subsets of it matter, each in that order:

* ``gamma_set(m)``: indices whose S_alpha form a basis of the Lie algebra
  sp(2*2^m).  Membership rule: delta(alpha) + [a_0 in {x, z}] is odd, where
  delta counts y-entries.
* ``gamma_tilde_set(m)``: all indices with a_0 in {I, y}; these S_beta are
  orthogonal symplectic and are the pulses available to bosonic schemes.

The index algebra and ``s_matrix`` broadcast over the leading axes of a
stack and read one bit code: each index packs into an x-code and a z-code,
unsigned integers whose bit m - j holds the x- or z-bit of position j, so
position 0 is the most significant bit, as in the row numbering of the
Kronecker product.  Since S_(x,z) = x^x z^z, each 2x2 factor sends column
c to row c xor x with the sign (-1)^(z c), and S_alpha is the signed
permutation

    (S_alpha)_{r,c} = [r xor c = x] (-1)^popcount(z & c)

of alpha's codes x and z; ``s_matrix`` of a stack is the stack of its
matrices.  As zx = -xz, two factors multiply by the rule

    S_p S_q = (-1)^(p_z q_x) S_(p xor q)

at every position, so an ordered product is the xor of its indices with the
sign (-1)^(sum over factors of z_acc . x), z_acc being the xor of the
z-bits of all earlier factors, and S_alpha S_beta = (-1)^<alpha,beta>
S_beta S_alpha with the pairing <alpha,beta> = popcount((a_x & b_z) ^
(a_z & b_x)) mod 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Pair = tuple[int, int]

PAIR_I: Pair = (0, 0)
PAIR_X: Pair = (1, 0)
PAIR_Y: Pair = (1, 1)
PAIR_Z: Pair = (0, 1)
ALL_PAIRS: tuple[Pair, ...] = (PAIR_I, PAIR_X, PAIR_Y, PAIR_Z)

# Resource guard: dimension 2^{m+1} and |Gamma| grow fast; m=4 (dim 32,
# |Gamma| = 528) is the largest size any verification here needs.
MAX_M = 4
# matrix elements per stacked block of the adjoint-action check: bounds its
# temporaries at 512 kB each (64 pairs at m = 4, 1,024 at m = 2)
ADJOINT_BLOCK_ELEMENTS = 2 ** 16
ADJOINT_TOL = 1e-12  # Frobenius; every deviation is exactly 0 on a correct basis
EXPAND_TOL = 1e-10  # largest relative reconstruction defect of expand_in_basis


def _check_m(m: int) -> None:
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > MAX_M:
        raise ValueError(f"m={m} exceeds the exhaustive-enumeration guard (max {MAX_M})")


def all_indices(m: int) -> np.ndarray:
    """All 4^{m+1} multi-indices as one (4^{m+1}, m+1, 2) stack, in the order
    of itertools.product(ALL_PAIRS, repeat=m+1); unguarded, as nudd has its own."""
    return np.array(ALL_PAIRS)[np.indices((4,) * (m + 1)).reshape(m + 1, -1).T]


def _codes(alpha) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``alpha`` as a checked index stack (..., m+1, 2) of bits, with its x-
    and z-codes of shape (...): bit m - j of a code holds position j's bit,
    in the narrowest unsigned type of m+1 bits.  A ragged stack raises
    numpy's ValueError."""
    a = np.asarray(alpha)
    if a.ndim < 2 or a.shape[-2] == 0 or a.shape[-1] != 2:
        raise ValueError(f"expected at least one (x, z) pair per multi-index, "
                         f"got shape {a.shape}")
    valid = (a == 0) | (a == 1)
    if not valid.all():
        raise ValueError(f"invalid Z2xZ2 entry {tuple(a[~valid.all(axis=-1)][0].tolist())!r}")
    bits = a.shape[-2]
    weight = (1 << np.arange(bits - 1, -1, -1)).astype(np.min_scalar_type((1 << bits) - 1))
    return a, (a[..., 0] != 0) @ weight, (a[..., 1] != 0) @ weight


def s_matrix(alpha) -> np.ndarray:
    """S_alpha = S_{a_0} (x) ... (x) S_{a_m}, dimension 2^{m+1}: the signed
    permutation with its one nonzero of row r at column c = r xor x, of sign
    (-1)^popcount(z & c).

    ``alpha`` is one multi-index or an index stack of shape (..., m+1, 2),
    whose matrices come stacked along its leading axes.  A zero entry
    carries the sign of the Kronecker product of the 2x2 factors: -0.0 where
    an odd number of positions have a nonzero factor entry (that bit of
    r xor c xor x clear) with the z-bit and the column bit set.
    """
    a, x, z = _codes(alpha)
    col = np.arange(1 << a.shape[-2], dtype=x.dtype)
    off = col[:, None] ^ col ^ x[..., None, None]  # zero exactly on the permutation
    S = (off == 0).astype(float)
    return np.negative(S, out=S, where=np.bitwise_count(z[..., None, None] & col & ~off) & 1 == 1)


def gamma_set(m: int) -> np.ndarray:
    """Algebra-basis indices, an (n, m+1, 2) stack; n = |Gamma| =
    2*2^{2m} + 2^m = dim sp(2*2^m)."""
    _check_m(m)
    a = all_indices(m)
    y_count = (a[..., 0] & a[..., 1]).sum(axis=-1)
    return a[(y_count + (a[:, 0, 0] ^ a[:, 0, 1])) % 2 == 1]


def gamma_tilde_set(m: int) -> np.ndarray:
    """Pulse-eligible indices (a_0 in {I, y}), an (n, m+1, 2) stack;
    n = |Gamma~| = 2*4^m."""
    _check_m(m)
    a = all_indices(m)
    return a[a[:, 0, 0] == a[:, 0, 1]]


def symplectic_form_index(m: int) -> np.ndarray:
    """Index of -J: the form is J = -S_{(1,1),(0,0),...,(0,0)}."""
    return np.array((PAIR_Y,) + (PAIR_I,) * m)


def symplectic_inner_product(alpha, beta):
    """Componentwise symplectic pairing sum_j a_j^T [[0,1],[-1,0]] b_j mod 2,
    the parity of popcount((a_x & b_z) ^ (a_z & b_x)) on the bit codes.

    Either argument may be an index stack of shape (..., m+1, 2); the stacks
    broadcast against each other.  Two single indices give an ``int``, and
    an entry outside {0, 1} raises ValueError.
    """
    (a, ax, az), (b, bx, bz) = _codes(alpha), _codes(beta)
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError("multi-index length mismatch")
    # int64, as uint8 would wrap in arithmetic such as 1 - 2 * pairing
    pairing = (np.bitwise_count((ax & bz) ^ (az & bx)) & 1).astype(np.int64)
    return int(pairing) if pairing.ndim == 0 else pairing


def product_index(alphas) -> tuple[np.ndarray, int]:
    """Index and sign of the ordered product: prod_k S_{alpha_k} = sign * S_xor.

    ``alphas`` is a (k, m+1, 2) stack of bits; the sign's exponent is
    sum_k popcount(z_acc & x_k) on the bit codes (see the module docstring).
    The empty product is (the all-zero index of length 1, +1); callers that
    know the index length should prefer passing at least one operand.
    """
    if len(alphas) == 0:
        return np.zeros((1, 2), dtype=np.int64), 1
    try:
        stack = np.asarray(alphas)
    except ValueError as exc:
        raise ValueError("multi-index length mismatch") from exc
    if stack.ndim != 3:
        raise ValueError(f"expected a (k, m+1, 2) stack of multi-indices, got shape {stack.shape}")
    stack, x, z = _codes(stack)
    odd = np.bitwise_count(np.bitwise_xor.accumulate(z)[:-1] & x[1:]).sum() % 2
    return np.bitwise_xor.reduce(stack.astype(np.int64)), -1 if odd else 1


def expand_in_basis(X: np.ndarray, m: int) -> np.ndarray:
    """Coefficients B_alpha with X = sum_alpha B_alpha S_alpha, one per row of
    ``gamma_set(m)`` and in its order.

    Uses trace orthogonality of the signed-permutation basis,
    B_alpha = tr(S_alpha^T X) / 2^{m+1}.  Raises if the reconstruction misses
    X by more than EXPAND_TOL relative, i.e. X is not in the algebra
    spanned by Gamma(m).
    """
    _check_m(m)
    dim = 2 ** (m + 1)
    X = np.asarray(X, dtype=float)
    if X.shape != (dim, dim):
        raise ValueError(f"expected shape {(dim, dim)}, got {X.shape}")
    S = s_matrix(gamma_set(m))
    coeffs = np.einsum("aij,ij->a", S, X) / dim
    defect = np.linalg.norm(np.einsum("a,aij->ij", coeffs, S) - X)
    if not defect <= EXPAND_TOL * max(1.0, float(np.linalg.norm(X))):  # NaN fails
        raise ValueError(f"matrix is not in sp(2*2^{m}): reconstruction defect {defect:.3e}")
    return coeffs


@dataclass(frozen=True)
class AdjointActionReport:
    m: int
    n_checked: int
    exhaustive: bool
    max_deviation: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= ADJOINT_TOL


def verify_adjoint_action(m: int) -> AdjointActionReport:
    """Check S_beta^{-1} S_alpha S_beta = (-1)^{<alpha,beta>} S_alpha.

    Exhaustive over Gamma x Gamma~ for m <= 2; for larger m a sample of
    1000 pairs drawn with seed 0 (all 1000 alpha positions, then all 1000
    beta positions) is tested.  The pairs are stacked, in blocks of at most
    ADJOINT_BLOCK_ELEMENTS matrix elements.
    S_beta is orthogonal, so the inverse is the transpose.  A pair passes
    within ADJOINT_TOL in Frobenius norm.
    """
    _check_m(m)
    gamma, gtilde = gamma_set(m), gamma_tilde_set(m)
    exhaustive = m <= 2
    if exhaustive:
        a, b = np.indices((len(gamma), len(gtilde))).reshape(2, -1)
    else:
        rng = np.random.default_rng(0)
        a, b = rng.integers(len(gamma), size=1000), rng.integers(len(gtilde), size=1000)
    alpha, beta = gamma[a], gtilde[b]
    sign = 1.0 - 2.0 * symplectic_inner_product(alpha, beta)
    max_dev, block = 0.0, max(1, ADJOINT_BLOCK_ELEMENTS // 4 ** (m + 1))
    for i in range(0, len(a), block):  # pairs stacked in blocks
        A, B = s_matrix(alpha[i:i + block]), s_matrix(beta[i:i + block])
        deviation = np.linalg.norm(B.transpose(0, 2, 1) @ A @ B
                                   - sign[i:i + block, None, None] * A, axis=(-2, -1))
        max_dev = max(max_dev, float(deviation.max()))
    return AdjointActionReport(m=m, n_checked=len(a), exhaustive=exhaustive,
                               max_deviation=max_dev)
