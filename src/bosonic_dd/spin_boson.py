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
noise y is insensitive to it.  T and z may be scalars or 1-D grids (evaluated
in blocks); the pair sum costs O(L) per line as a prefix sum (:func:`_pairs_of`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import AnalyticGenerator, resulting_evolution
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


# Elements (T points x bath lines x pulses) per evaluated block: each complex
# temporary of a block stays at 32 kB, so peak memory does not grow with the
# T grid while numpy still amortises its per-call overhead.
BLOCK_ELEMENTS = 2048


def _on_grid(fn, grid, deltas, rates=(1.0,)):
    """fn(z, phases e^{i z d_k}, signs (-1)^k) at z = grid x rates, taking a
    scalar or 1-D grid in blocks of BLOCK_ELEMENTS; a scalar gives a scalar.
    fn maps a (block, rates) z to (block,), or to (columns, block), in which
    case a scalar gives a list."""
    d, rates = np.array(_check_even(deltas)), np.asarray(rates)
    s = (-1.0) ** np.arange(1, len(d) + 1)
    arr = np.asarray(grid, dtype=float)
    if arr.ndim > 1:
        raise ValueError("expected a scalar or a 1-D array")
    step = max(1, BLOCK_ELEMENTS // max(rates.size * d.size, 1))
    zs = (t[:, None] * rates
          for t in np.split(arr.reshape(-1), range(step, arr.size, step)))
    out = np.concatenate([fn(z, np.exp(1j * (z[..., None] * d)), s) for z in zs],
                         axis=-1)
    return out[..., 0].tolist() if arr.ndim == 0 else out


def _y_of(z, phase, s):
    return 2.0 * (phase @ s) + 1.0 - np.exp(1j * z)


def _pairs_of(z, phase, s):
    """sum_{l<j} s_j s_l [sin(z (d_j - d_l)) + sin(z d_l) - sin(z d_j)] in O(L):
    Im sum_j s_j e^{i z d_j} conj(sum_{l<j} s_l e^{i z d_l}) for the first part
    and sum_k a_k sin(z d_k), a_k = s_k (sum_{j>k} s_j - sum_{l<k} s_l), for the rest."""
    signed = phase * s
    prior = np.cumsum(signed[..., :-1], axis=-1).conj()
    a = s * (s.sum() - 2.0 * np.cumsum(s) + s)
    return (signed[..., 1:] * prior).imag.sum(axis=-1) + phase.imag @ a


def _line_sum(per_line, total_time, bath: BathSpec, deltas):
    """sum_j (lambda_j / omega_j)^2 per_line(z, phases, signs) at z = omega_j T."""
    om = np.asarray(bath.frequencies)
    weight = (np.asarray(bath.couplings) / om) ** 2
    return _on_grid(lambda z, phase, s: per_line(z, phase, s) @ weight,
                    total_time, deltas, om)


def y_filter(z, deltas):
    """y_L(z) = 2 sum_m (-1)^m e^{i z d_m} + 1 - e^{iz}."""
    return _on_grid(lambda z, phase, s: _y_of(z, phase, s)[:, 0], z, deltas)


def pair_shear(total_time, bath: BathSpec, deltas):
    """Ordered-pulse-pair contribution to the shear parameter."""
    return 4.0 * _line_sum(_pairs_of, total_time, bath, deltas)


def channel_columns(total_time, bath: BathSpec, deltas):
    """The channel's (x, y) from one pass over the phases: a list of two
    floats for a scalar T, a (2, len) array for a 1-D T grid."""
    coth = bath.thermal_weights()

    def per_line(z, phase, s):
        yl, sin = _y_of(z, phase, s), np.sin(z)
        shear = (z - sin - sin * yl.real + (np.cos(z) - 1.0) * yl.imag
                 + 4.0 * _pairs_of(z, phase, s))
        return np.stack((shear, coth * np.abs(yl) ** 2))

    return _line_sum(per_line, total_time, bath, deltas)


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

    One walk over the grid gives the full (2n+2)-dimensional evolution S
    with flip pulses; the system block of S (M0 (+) M_thermal) S^T is
    compared with [[1,x],[0,1]] M0 [[1,x],[0,1]]^T + diag(y, 0) for every
    M0 of COVARIANCES, x and y from one ``channel_columns`` call.
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
