"""Exact Gaussian channel for one mode coupled to a thermal oscillator bath
under a train of phase-flip pulses.

Model: a single system mode (Q, P) coupled through Q sum_j lambda_j Q_j to n
bath oscillators with frequencies omega_j > 0, bath initially thermal at
inverse temperature beta.  Flip pulses -I_S are applied at fractions
``deltas`` of the total time T; the train must have even length (odd trains
are completed by a final pulse at delta = 1, see :func:`even_flip_train`).

The resulting system channel on covariance matrices is

    M  ->  [[1, x],[0, 1]] M [[1, x],[0, 1]]^T + [[y, 0],[0, 0]]

with the added noise

    y = sum_j (lambda_j/omega_j)^2 coth(beta omega_j / 2) |y_L(omega_j T)|^2

and a shear parameter x assembled from two pieces: a per-mode filter part

    sum_j (lambda_j/omega_j)^2 [ z - sin z - sin z Re y_L(z)
                                 + (cos z - 1) Im y_L(z) ],  z = omega_j T

and a pulse-pair part collecting the ordered-product cross terms

    4 sum_{l<j} (-1)^{j+l} sum_modes (lambda/omega)^2
        [ sin(z (d_j - d_l)) + sin(z d_l) - sin(z d_j) ].

The pair part is the phase-space footprint of the commutators between the
single-pulse coupling generators: their commutator is a Q^2 shear (not a
scalar), so it survives in the covariance picture.  Both pieces together
reproduce the direct symplectic simulation to machine precision; the added
noise y is insensitive to it.  T and z may be scalars or 1-D grids.  Every
(T, line) pair is one phase z = omega_j T on a flat T-major axis, evaluated
in runs of whole z values of at most BLOCK_ELEMENTS real elements (one z at
least); the kernel's flat outputs take about 90 B per pair, and each line
sum is one product of a (T, lines) array with the line weights.  Each run's
cos(z d_k) and sin(z d_k), and cos z and sin z, come from one tan(x/2) per
phase (:func:`_cos_sin`): numpy has no sincos, and its tan is one vectorised
pass where sin and cos are two slower ones.  The phases are split into tiles
of PULSE_TILE pulses; one GEMM against a constant tile matrix and prefix
sums over the tiles give y_L and the pair sum in O(L PULSE_TILE) per line
(:func:`_filter_sums`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .evolution import AnalyticGenerator, _check_times, resulting_evolution
from .schedules import flip_train_schedule, udd_times
from .symplectic import ModeLayout, symplectic_form


@dataclass(frozen=True)
class BathSpec:
    """Discrete bath lines: couplings (energy), frequencies (1/time) and
    inverse temperature (time; may be math.inf for the vacuum)."""

    couplings: tuple[float, ...]
    frequencies: tuple[float, ...]
    beta: float

    def __post_init__(self) -> None:
        if len(self.couplings) != len(self.frequencies):
            raise ValueError("couplings and frequencies must have equal length")
        if any(not math.isfinite(g) for g in self.couplings):
            raise ValueError("bath couplings must be finite")
        if any(not (0 < w < math.inf) for w in self.frequencies):
            raise ValueError("bath frequencies must be finite and positive")
        if not (self.beta > 0):
            raise ValueError("inverse temperature must be positive (math.inf allowed)")

    @property
    def n_modes(self) -> int:
        return len(self.couplings)

    def thermal_weights(self) -> np.ndarray:
        """coth(beta omega / 2) per line; 1 in the vacuum limit."""
        if math.isinf(self.beta):
            return np.ones(self.n_modes)
        return 1.0 / np.tanh(self.beta * np.asarray(self.frequencies) / 2.0)


def even_flip_train(n_pulses: int) -> tuple[float, ...]:
    """Uhrig fractions, completed by a final pulse at 1 when N is odd.

    The closed-form channel requires an even number of flips; the added
    pulse closes the train without changing the suppression order.
    """
    times = udd_times(n_pulses)
    return times if n_pulses % 2 == 0 else times + (1.0,)


def _check_even(deltas) -> tuple[float, ...]:
    deltas = tuple(float(d) for d in deltas)
    if len(deltas) % 2:
        raise ValueError("the closed-form channel requires an even pulse count")
    if any(not 0.0 < d <= 1.0 for d in deltas):
        raise ValueError("pulse fractions must lie in (0, 1]")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("pulse fractions must be strictly increasing")
    return deltas


# Real elements (z values x padded pulses) per evaluated run of the flat
# phase axis: each pulse-wide temporary of a run stays at 64 kB, as
# evolution.CF4_BLOCK_ELEMENTS, while numpy still amortises its per-call
# overhead; only the per-z outputs, about 90 B per (T, line) pair, grow
# with the grid.
BLOCK_ELEMENTS = 8192
# Pulses per tile of the pair sum: even, so the signs (-1)^k repeat from tile
# to tile and one (w, w+1) matrix serves every tile; the within-tile pairs
# cost O(L w) per line, not O(L^2).
PULSE_TILE = 16


@functools.cache  # one read-only matrix per tile width
def _tile_matrix(w):
    """[B^T - B | s] for the signs s_k = (-1)^k of one tile of w pulses and
    its strictly lower sign matrix B_jl = s_j s_l [l < j]."""
    s = (-1.0) ** np.arange(1, w + 1)
    B = np.tril(np.outer(s, s), -1)
    matrix = np.column_stack((B.T - B, s))
    matrix.flags.writeable = False
    return matrix


def _cos_sin(x):
    """cos x and sin x from one t = tan(x/2): (1 - t^2)/(1 + t^2) and
    2t/(1 + t^2).  numpy has no sincos, and its float64 tan is one pass where
    sin and cos are two; the pair stays within 2.3e-16 of np.cos and np.sin.
    t^2 cannot overflow: no double lies close enough to an odd multiple of pi."""
    t = np.tan(0.5 * x)
    t2 = t * t
    r = 1.0 / (1.0 + t2)
    return (1.0 - t2) * r, 2.0 * t * r


def _filter_sums(z, padded, n_pulses, matrix):
    """cos z, sin z, y_L(z) and the pulse-pair sum

        P = sum_{l<j} s_j s_l [sin(z (d_j - d_l)) + sin(z d_l) - sin(z d_j)]

    at every z of a block, in real arithmetic over c = cos(z d_k) and
    sn = sin(z d_k).  ``padded`` holds the n_pulses fractions, zero-padded to
    whole tiles of w = len(matrix) pulses; the padding is zeroed in c (and is
    0 in sn), so it adds nothing.  One GEMM of c, one row per tile, against
    ``matrix`` = [B^T - B | s] gives each tile's row c (B^T - B), whose
    contraction with sn is the tile's own sum_{l<j} s_j s_l sin(z (d_j - d_l)),
    and its Sc = sum_k s_k cos(z d_k); sn s gives its Ss.  The pairs across
    tiles are sum_t Ss_t sum_{t'<t} Sc_t' - Sc_t sum_{t'<t} Ss_t'.  The
    sin(z d_l) - sin(z d_j) part is sum_k a_k sin(z d_k) with
    a_k = s_k (sum_{j>k} s_j - sum_{l<k} s_l), and a_k = s_k for every even
    alternating train, so it is S = sum_t Ss_t."""
    w = matrix.shape[0]
    c, sn = _cos_sin(z[..., None] * padded)
    c[..., n_pulses:] = 0.0
    c, sn = c.reshape(-1, w), sn.reshape(-1, w)
    g = c @ matrix
    shape = (*z.shape, padded.size // w)
    cos_sums, sin_sums = g[:, w].reshape(shape), (sn @ matrix[:, w]).reshape(shape)
    within = np.einsum("ij,ij->i", sn, g[:, :w]).reshape(shape)
    # inclusive prefix sums: the t' = t terms Ss_t Sc_t - Sc_t Ss_t cancel
    cos_prefix, sin_prefix = np.cumsum(cos_sums, axis=-1), np.cumsum(sin_sums, axis=-1)
    S = sin_prefix[..., -1]
    cos_z, sin_z = _cos_sin(z)
    y = (2.0 * cos_prefix[..., -1] + 1.0 - cos_z) + 1j * (2.0 * S - sin_z)
    pairs = (within + sin_sums * cos_prefix - cos_sums * sin_prefix).sum(axis=-1) + S
    return cos_z, sin_z, y, pairs


def _phase_sums(z, deltas):
    """cos z, sin z, y_L(z) and the pair sum at every z of a (points, lines)
    array, each of z's shape.  z is evaluated along its flat T-major axis,
    in runs of at most BLOCK_ELEMENTS // (padded pulses) z values and one at
    least; a z of no elements gives empty arrays."""
    d = np.array(_check_even(deltas))
    if z.ndim > 2:
        raise ValueError("expected a scalar or a 1-D array")
    w = min(PULSE_TILE, max(d.size, 2))
    padded = np.zeros(max(1, -(-d.size // w)) * w)
    padded[:d.size] = d
    step, matrix, flat = max(1, BLOCK_ELEMENTS // padded.size), _tile_matrix(w), z.reshape(-1)
    runs = [_filter_sums(run, padded, d.size, matrix)
            for run in np.split(flat, range(step, flat.size, step))]
    return [np.concatenate(out).reshape(z.shape) for out in zip(*runs)]


def _bath_phases(total_time, bath: BathSpec, deltas):
    """(lambda_j / omega_j)^2, z = omega_j T and the four sums there,
    one row of lines per T; a T that is negative or not finite raises
    ValueError."""
    om = np.asarray(bath.frequencies)
    z = _check_times(total_time)[..., None] * om
    return (np.asarray(bath.couplings) / om) ** 2, z, *_phase_sums(z, deltas)


def y_filter(z, deltas):
    """y_L(z) = 2 sum_m (-1)^m e^{i z d_m} + 1 - e^{iz}; a z that is not
    finite raises ValueError."""
    zs = np.asarray(z, dtype=float)
    bad = zs[~np.isfinite(zs)]
    if bad.size:
        raise ValueError(f"need a finite z, got z = {bad[0]}")
    y = _phase_sums(zs[..., None], deltas)[2][..., 0]
    return y.tolist() if zs.ndim == 0 else y


def _in_float_range(total_time, out, rows: int):
    """out, ``rows`` values per T, as a list for a scalar T; a T with a value
    that is not finite raises ValueError."""
    Ts = np.asarray(total_time, dtype=float).ravel()
    lost = Ts[~np.isfinite(out.reshape(rows, -1)).all(axis=0)]
    if lost.size:
        raise ValueError(f"the evolution to T = {lost[0]} leaves the float range")
    return out.tolist() if np.ndim(total_time) == 0 else out


def pair_shear(total_time, bath: BathSpec, deltas):
    """Ordered-pulse-pair contribution to the shear parameter; one that
    leaves the float range raises ValueError."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # rejected below
        weight, _, _, _, _, pairs = _bath_phases(total_time, bath, deltas)
        return _in_float_range(total_time, 4.0 * (pairs @ weight), 1)


def channel_columns(total_time, bath: BathSpec, deltas):
    """The channel's (x, y) from one pass of the block kernel: a list of two
    floats for a scalar T, a (2, len) array for a 1-D T grid; an x or y that
    leaves the float range raises ValueError."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # rejected below
        weight, z, cos, sin, yl, pairs = _bath_phases(total_time, bath, deltas)
        shear = z - sin - sin * yl.real + (cos - 1.0) * yl.imag + 4.0 * pairs
        out = np.stack((shear @ weight, np.abs(yl) ** 2 @ (weight * bath.thermal_weights())))
    return _in_float_range(total_time, out, 2)


def shear_parameter(total_time, bath: BathSpec, deltas):
    """The channel's x parameter (beta-independent)."""
    return channel_columns(total_time, bath, deltas)[0]


def added_noise(total_time, bath: BathSpec, deltas):
    """The channel's y parameter; nonnegative, decreasing in beta."""
    return channel_columns(total_time, bath, deltas)[1]


def thermal_covariance(bath: BathSpec) -> np.ndarray:
    """Bath thermal covariance diag(coth) (+) diag(coth), QP-blocked."""
    return np.kron(np.eye(2), np.diag(bath.thermal_weights()))


def coupling_matrix(bath: BathSpec) -> np.ndarray:
    """Symmetric matrix A_eff of the model generator X = A_eff J.

    The sign convention is fixed so that exp(t A_eff J) equals the model's
    closed-form free propagator (QP-blocked ordering, system first).
    """
    n = bath.n_modes
    A = np.zeros((2 * n + 2, 2 * n + 2))
    A[0, 2:2 + n] = A[2:2 + n, 0] = bath.couplings
    A[2:, 2:] = np.kron(np.eye(2), np.diag(bath.frequencies))
    return -A


def bath_generator(bath: BathSpec) -> AnalyticGenerator:
    """Time-independent coupled generator for the evolution engine."""
    layout = ModeLayout(n_system=1, n_env=bath.n_modes)
    X = coupling_matrix(bath) @ symplectic_form(layout)
    return AnalyticGenerator(layout=layout, coeffs=(X,))


# the initial system covariances M0 the check applies both channels to
COVARIANCES = np.array([np.eye(2), np.diag([4.0, 0.25])])


def cross_validate(bath: BathSpec, deltas, total_time):
    """Largest entrywise deviation of the closed-form channel from direct
    symplectic simulation: a float for a scalar T, an array for a 1-D grid.

    One walk over the grid, in batches of bounded memory, gives the full
    (2n+2)-dimensional evolution S with flip pulses; the system block of
    S (M0 (+) M_thermal) S^T is compared with [[1,x],[0,1]] M0 [[1,x],[0,1]]^T
    + diag(y, 0) for every M0 of COVARIANCES, x and y from one
    ``channel_columns`` call.
    """
    deltas = _check_even(deltas)
    if bath.n_modes > 5:
        raise ValueError("cross validation is limited to 5 bath modes")
    Ts = np.atleast_1d(np.asarray(total_time, dtype=float))
    x, y = channel_columns(Ts, bath, deltas)
    S = resulting_evolution(bath_generator(bath), flip_train_schedule(deltas, n_system=1), Ts)
    M = np.zeros((len(COVARIANCES), *S.shape[1:]))  # M0 (+) the bath's thermal covariance
    M[:, :2, :2] = COVARIANCES
    M[:, 2:, 2:] = thermal_covariance(bath)
    simulated = S[:, None, :2] @ M @ S[:, None, :2].mT
    shear = np.tile(np.eye(2), (len(Ts), 1, 1, 1))
    shear[:, 0, 0, 1] = x
    closed = shear @ COVARIANCES @ shear.mT
    closed[..., 0, 0] += y[:, None]
    deviation = np.abs(simulated - closed).max(axis=(1, 2, 3))
    return float(deviation[0]) if np.ndim(total_time) == 0 else deviation
