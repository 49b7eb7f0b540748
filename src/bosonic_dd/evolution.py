"""Time-ordered symplectic propagation interleaved with instantaneous pulses.

A walk over a pulse schedule gets the propagators of its free segments
from one batched call, and each generator class has one path.  A constant
generator propagates an interval [t0, t1] exactly, by exp((t1 - t0) X0),
stacked in calls of at most CF4_BLOCK_ELEMENTS elements; a constant walk
takes one such exponential per group of equal segment lengths (equal up to
LENGTH_MERGE), not one per segment.  A time-dependent
generator uses a fourth-order commutator-free scheme: one step over
[t, t+h] is

    exp(h (a1 X1 + a2 X2)) . exp(h (a2 X1 + a1 X2)),

where X1, X2 are the generator at the two Gauss-Legendre nodes and
a1 = 1/4 - sqrt(3)/6, a2 = 1/4 + sqrt(3)/6 (the factor applied first weights
the early node more).  A segment's first pass takes the fewest steps, a
power of two, that keep every factor's 1-norm below the Taylor limit
theta of ``matrix_exponential``, sized from a bound on the generator's
1-norm over the segment; each refinement doubles them.  So a pass calls
the Taylor kernel (the degree-8 polynomial in three products) directly.
The step is halved until successive passes S, S2 of a segment agree to
||S2 - S||_F <= tol max(1, ||S2||_2), a test relative to the size of the
propagator (screened by ||S2||_2 <= ||S2||_F before any SVD), so residuals
down to ~1e-12 are not polluted by integration error; only segments that
fail it are passed again, and a segment that would need more than
MAX_STEPS steps in one pass raises ToleranceNotReached.  Each refinement
round is one pass over all its unconverged segments, whatever their step
counts: sorted once, most steps first, they make one stream of (step,
segment) pairs, step-major, whose node weights are built and whose factors
are exponentiated in blocks of at most CF4_BLOCK_ELEMENTS elements.

A walk may go to many end times T at once, each at its own tolerance, in
batches of T points that bound its memory; ``order_sweep`` walks its T
points in rounds, one walk a round, and each later round walks afresh only
the points whose residual needs a tighter tolerance.  The tolerance ``tol``
(DEFAULT_TOL unless given) is the engine's only setting, and it acts only
on the time-dependent path.

A walk's pulses come from one ``s_matrix`` call over the schedule's distinct
signed pulses, each written into the system rows of its segment's flow.  A
walk forms each distinct (pulse, flow) factor once and multiplies the K
factors of its K segments in time order, so a constant walk's work and
memory grow with its distinct factors, and only its K products with K.
Each pulse is applied after the free segment that ends at its application
time; in particular a pulse at delta = 1 acts after the final segment,
immediately before readout.  Affine (displacement) propagation is the same
walk on the homogeneous embedding of dimension dim + 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pauli_basis import product_index, s_matrix
from .schedules import (
    PulseSchedule,
    decoupling_schedule,
    homogenization_schedule,
)
from .symplectic import (
    ModeLayout,
    _TAYLOR_THETA,
    _single_form,
    _taylor_exponential,
    block_decompose,
    matrix_exponential,
    offdiag_residual,
    sp_algebra_residual,
    spectral_norm,
    symplectic_form,
)

# Gauss-Legendre nodes (c1, c2) of a step; factor f weights node j by _MIX[f, j]
_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_MIX = 0.25 + np.array([[-1.0, 1.0], [1.0, -1.0]]) * math.sqrt(3.0) / 6.0
# residuals a sweep fits its slope over; those below it are floor-flagged
FIT_WINDOW = (1e-12, 1e-2)
DEFAULT_TOL = 1e-12  # the integrator's step-halving tolerance
MAX_STEPS = 4096  # the most CF4 steps one pass may take on a segment
# math.atan2 entry by entry: numpy's arctan2 can differ from it in the last bit
_atan2 = np.vectorize(math.atan2, otypes=[float])


@dataclass(frozen=True)
class AnalyticGenerator:
    """Polynomial-in-time generator X(t) = sum_r X_r t^r, optionally with a
    linear drive b(t) = sum_r b_r t^r for affine (displacement) propagation.

    Every coefficient must lie in sp(2n) for the layout's form.
    """

    layout: ModeLayout
    coeffs: tuple[np.ndarray, ...]
    linear: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("need at least one coefficient matrix")
        J = symplectic_form(self.layout)
        for r, X in enumerate(self.coeffs):
            if X.shape != (self.layout.dim, self.layout.dim):
                raise ValueError(f"coefficient {r} has shape {X.shape}, "
                                 f"expected {(self.layout.dim,) * 2}")
            if not np.isfinite(X).all():
                raise ValueError(f"coefficient {r} is not finite")
            # res(X) <= 1e-10 max(1, |X|), tested on X scaled exactly by 2^-e so
            # that its largest entry is below 1 and no norm overflows
            e = max(int(np.frexp(np.abs(X).max())[1]), 0)
            scaled = np.ldexp(X, -e)
            res, scale = sp_algebra_residual(scaled, J), max(2.0 ** -e, np.linalg.norm(scaled))
            if not res <= 1e-10 * scale:
                raise ValueError(f"coefficient {r} is not in sp(2n): "
                                 f"residual {res / scale:.3e} relative to max(1, |X|)")
        if self.linear is not None:
            for r, v in enumerate(self.linear):
                if v.shape != (self.layout.dim,):
                    raise ValueError(f"linear coefficient {r} has shape {v.shape}")
                if not np.isfinite(v).all():
                    raise ValueError(f"linear coefficient {r} is not finite")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def decoupled(self) -> bool:
        """True when no coefficient has a nonzero system-environment entry."""
        blocks = (block_decompose(X, self.layout) for X in self.coeffs)
        return not any(b.se.any() or b.es.any() for b in blocks)


# Elements exponentiated per call, so the temporaries stay at 64 kB, as in a
# block of spin_boson.BLOCK_ELEMENTS real elements: a CF4 pass (2 factors of
# dim^2 per (step, interval) pair, one pair at least) and a long constant walk
# (dim^2 per interval, one interval at least) are split into such calls, and
# a CF4 pass builds its node weights (2 x (degree + 1) per pair) for whole
# calls at a time, in blocks of about this size too.
CF4_BLOCK_ELEMENTS = 8192
# Flow elements (T points x segments x dim^2) that one batch of a walk's T
# points stacks, one walk at least: 2 MB, so the flows of a long schedule or
# of a fine T grid stay small next to the interpreter and its libraries.
FLOW_ELEMENTS = 1 << 18
# Unit segment lengths at most this far apart share one exponential on a
# constant walk.  A difference of two grid points in [0, 1] rounds by about
# one eps, and the equal lengths of a nested Uhrig schedule land at most 1 eps
# apart (N = 2-4, m = 1-4), while its distinct ones lie 2e8 eps apart or more.
LENGTH_MERGE = 4 * np.finfo(float).eps


def _cf4_pass(coeffs: np.ndarray, t0s: np.ndarray, t1s: np.ndarray,
              n: np.ndarray) -> np.ndarray:
    """n[i] CF4 steps on every interval [t0s[i], t1s[i]], stacked; n does not
    increase along the intervals, so step k is taken by a prefix of them,
    those with n > k.  The pass is one step-major stream of (step, interval)
    pairs.  Its Gauss-node weights are built in blocks of whole Taylor calls,
    of about CF4_BLOCK_ELEMENTS elements; a call exponentiates the factors
    (its weight rows times the coefficients) of at most CF4_BLOCK_ELEMENTS
    elements, one pair at least, without a norm screen, and its steps act on
    the flows in runs of one step, one product a run.  So every interval's
    steps are multiplied in its own order, and its flow is bitwise the one it
    gets alone.  Precondition: every interval's n is at least its
    ``_first_steps``, so every factor's 1-norm is at most _TAYLOR_THETA;
    ``_flows``, the only caller, guarantees it."""
    r, d = len(coeffs), coeffs.shape[-1]
    S = np.tile(np.eye(d), (len(n), 1, 1))
    hs = (t1s - t0s) / n
    # pairs of step k: starts[k] .. starts[k + 1] - 1, intervals 0 .. live_k - 1
    live = np.searchsorted(-n, -np.arange(n.max(initial=0)), side="left")
    starts = np.concatenate(([0], np.cumsum(live)))
    bounds = starts.tolist()
    rows = max(1, CF4_BLOCK_ELEMENTS // (2 * d * d))  # pairs a Taylor call
    block = rows * max(1, CF4_BLOCK_ELEMENTS // (2 * r * rows))  # pairs a weight block
    for p0 in range(0, bounds[-1], block):
        p = np.arange(p0, min(p0 + block, bounds[-1]))
        k = np.searchsorted(starts, p, side="right") - 1
        i = p - starts[k]
        h = hs[i]
        a = t0s[i] + h * k
        powers = (a[:, None] + h[:, None] * _NODES)[..., None] ** np.arange(r)
        weights = (h[:, None, None] * (_MIX @ powers)).reshape(-1, r)
        for q0 in range(0, len(p), rows):
            F = weights[2 * q0:2 * (q0 + rows)] @ coeffs.reshape(r, d * d)
            E = _taylor_exponential(F.reshape(-1, 2, d, d))
            steps = E[:, 0] @ E[:, 1]
            q1 = q0 + len(steps)
            for kk in range(k[q0], k[q1 - 1] + 1):  # runs of one step
                j0, j1 = max(bounds[kk] - p0, q0), min(bounds[kk + 1] - p0, q1)
                run = slice(i[j0], i[j0] + j1 - j0)
                S[run] = steps[j0 - q0:j1 - q0] @ S[run]
    return S


class ToleranceNotReached(RuntimeError):
    """A segment's propagator cannot meet the tolerance within MAX_STEPS CF4
    steps a pass; ``interval`` is the segment's position in its call."""

    def __init__(self, message: str, interval: int) -> None:
        super().__init__(message)
        self.interval = interval


def _first_steps(coeffs: np.ndarray, t0s: np.ndarray, t1s: np.ndarray) -> np.ndarray:
    """Steps of each interval's first CF4 pass: the smallest power of two n
    with (t1 - t0) B (|a1| + |a2|) / n <= _TAYLOR_THETA, where
    B = sum_r ||X_r||_1 max(|t0|, |t1|)^r bounds ||X(t)||_1 on [t0, t1].
    Every factor of every pass then has 1-norm at most _TAYLOR_THETA, which
    lets ``_cf4_pass`` call the Taylor kernel without screening its factors
    (the degree-8 polynomial in three products: Bader, Blanes & Casas,
    Mathematics 7, 1174 (2019)).  A bound that is not finite, or an n past
    MAX_STEPS, raises ToleranceNotReached before any pass."""
    norms = np.abs(coeffs).sum(axis=-2).max(axis=-1)
    reach = np.maximum(np.abs(t0s), np.abs(t1s))
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        bound = (t1s - t0s) * (reach[:, None] ** np.arange(len(norms)) @ norms)
        load = bound * (np.abs(_MIX[0]).sum() / _TAYLOR_THETA)
    over = ~(load <= MAX_STEPS)
    if over.any():
        j = int(np.flatnonzero(over)[0])
        raise ToleranceNotReached(
            f"propagator on [{t0s[j]}, {t1s[j]}] needs more than {MAX_STEPS} CF4 "
            f"steps a pass: its generator bound times its length is {bound[j]:.6g}", j)
    mantissa, exponent = np.frexp(np.maximum(load, 1.0))
    return 1 << (exponent - (mantissa == 0.5))


def _converged(S2: np.ndarray, diff: np.ndarray, tol) -> np.ndarray:
    """diff <= tol max(1, ||S2||_2) per slice, at one tolerance or one per
    slice; as ||S2||_2 <= ||S2||_F (up to rounding: the slack), only
    tol < diff <= tol ||S2||_F needs the SVD."""
    tol = np.broadcast_to(tol, diff.shape)
    done = diff <= tol
    fro = np.linalg.norm(S2, axis=(-2, -1))
    open_ = ~done & (diff <= tol * np.maximum(1.0, fro) * (1.0 + 1e-9))
    if open_.any():
        done[open_] = diff[open_] <= tol[open_] * np.maximum(
            1.0, np.linalg.norm(S2[open_], 2, axis=(-2, -1)))
    return done


def _flows(coeffs: Sequence[np.ndarray], t0s: Sequence[float],
           t1s: Sequence[float], tol=DEFAULT_TOL) -> np.ndarray:
    """Time-ordered exponentials of sum_r coeffs[r] t^r on every interval
    [t0s[i], t1s[i]], stacked, at tolerance ``tol`` (one for all intervals,
    or one each).  A time-dependent interval's first pass takes
    ``_first_steps`` steps and each refinement doubles them; only the
    intervals that have not yet converged are passed again, all of them in
    one ``_cf4_pass`` call per refinement round, in one order sorted once,
    most steps first.  A pass does not depend on the other intervals in its
    call, so each interval's flow is bitwise the one it gets alone."""
    tol = np.broadcast_to(np.asarray(tol, dtype=float), np.shape(t0s))
    bad = ~((0 < tol) & (tol < math.inf))
    if bad.any():
        raise ValueError(f"tolerance must be finite and positive, got {tol[bad][0]}")
    coeffs = np.asarray(coeffs)
    t0s, t1s = np.asarray(t0s, dtype=float), np.asarray(t1s, dtype=float)
    if len(coeffs) == 1:
        X = (t1s - t0s)[:, None, None] * coeffs[0]
        chunk = max(1, CF4_BLOCK_ELEMENTS // coeffs[0].size)
        for i in range(0, len(X), chunk):
            X[i:i + chunk] = matrix_exponential(X[i:i + chunk])
        return X
    first = _first_steps(coeffs, t0s, t1s)
    todo = np.flatnonzero(t1s != t0s)
    # most steps first: doubling every n and dropping intervals keeps the order
    todo = todo[np.argsort(-first[todo], kind="stable")]
    n = first[todo]
    S = np.tile(np.eye(coeffs.shape[-1]), (len(t0s), 1, 1))
    S[todo] = _cf4_pass(coeffs, t0s[todo], t1s[todo], n)
    while todo.size:
        n = 2 * n
        if (n > MAX_STEPS).any():
            j = todo[n > MAX_STEPS].min()
            raise ToleranceNotReached(
                f"propagator did not reach tolerance {tol[j]} within {MAX_STEPS} "
                f"CF4 steps on [{t0s[j]}, {t1s[j]}]", j)
        S2 = _cf4_pass(coeffs, t0s[todo], t1s[todo], n)
        done = _converged(S2, np.linalg.norm(S2 - S[todo], axis=(-2, -1)), tol[todo])
        S[todo] = S2
        todo, n = todo[~done], n[~done]
    return S


def propagate(gen: AnalyticGenerator, t0: float, t1: float,
              tol: float = DEFAULT_TOL) -> np.ndarray:
    """Time-ordered propagator of X(t) on [t0, t1]: exact for a constant
    generator, step-halving CF4 otherwise."""
    for name, t in (("t0", t0), ("t1", t1)):
        if not math.isfinite(t):
            raise ValueError(f"need a finite {name}, got {name} = {t}")
    if t1 < t0:
        raise ValueError("need t0 <= t1")
    return _flows(gen.coeffs, [t0], [t1], tol)[0]


def _check_times(T) -> np.ndarray:
    """T, one time or an array of them, as a float array; an entry that is
    negative or not finite raises ValueError."""
    Ts = np.asarray(T, dtype=float)
    bad = Ts[~((0 <= Ts) & (Ts < math.inf))]
    if bad.size:
        raise ValueError(f"need 0 <= T < inf, got T = {bad[0]}")
    return Ts


def _distinct(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of an integer array, from one stable argsort:
    codes[first] are its distinct values, ascending, each at its first
    position, and codes[first][inverse] is codes."""
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    new = np.empty(len(codes), dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    inverse = np.empty(len(codes), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _length_groups(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(group, means) of the unit segment lengths (nonnegative): in ascending
    order, a group opens at the shortest length not yet grouped and takes
    every length within LENGTH_MERGE of it, so no group is wider than the
    bound; means[g] is the mean of group g, as its shortest member plus the
    mean excess of its members, so a group of equal lengths keeps their
    value and the lengths' total moves by at most K eps for K lengths."""
    order = np.argsort(lengths.view(np.int64), kind="stable")  # a double >= 0 sorts as its bits
    ranked = lengths[order]
    # a group opens more than LENGTH_MERGE above the length before it, and
    # inside a wider run of closer neighbours, above its group's shortest
    opens = np.diff(ranked, prepend=-math.inf) > LENGTH_MERGE
    runs = np.flatnonzero(opens)
    ends = np.append(runs[1:], len(ranked))
    wide = ranked[ends - 1] - ranked[runs] > LENGTH_MERGE
    for a, b in zip(runs[wide].tolist(), ends[wide].tolist()):
        shortest = ranked[a]
        for i in range(a + 1, b):
            if ranked[i] - shortest > LENGTH_MERGE:
                opens[i], shortest = True, ranked[i]
    starts = np.flatnonzero(opens)
    sizes = np.diff(starts, append=len(ranked))
    shortest = ranked[starts]
    means = shortest + np.add.reduceat(ranked - np.repeat(shortest, sizes), starts) / sizes
    group = np.empty(len(lengths), dtype=np.intp)
    group[order] = np.cumsum(opens) - 1
    return group, means


def _walk(coeffs: Sequence[np.ndarray], schedule: PulseSchedule | None,
          layout: ModeLayout, T, tol=DEFAULT_TOL) -> np.ndarray:
    """Time-ordered product of the free flows of sum_r coeffs[r] t^r and the
    schedule's pulses on [0, T], for one T or a vector of them (a stack of
    walks), each at tolerance ``tol`` (one for all, or one per T).

    Each segment's factor is its flow with its pulse (sign * S_alpha, or -I
    for a flip schedule) written into the system rows; the factors are
    multiplied in time order, one product a segment.  A walk forms each
    distinct factor once: its key is the segment's signed pulse (the last
    segment has none) and, for a constant generator, its group of unit
    lengths (``_length_groups``), whose one exponential, exp(T len X0),
    serves all its segments; a time-dependent segment is a key of its own.
    So the pulses come from one ``s_matrix`` call over the distinct signed
    pulses, and the T points go in batches whose factors stack at most
    max(F dim^2, FLOW_ELEMENTS) elements for F distinct factors a walk
    (F <= K, the segment count).  A schedule built for another number of
    system modes, a T that is negative or not finite, or a T array of more
    than one axis, raises ValueError; an empty vector of T gives an empty
    stack.  Errors come in batch order: an integrator error names the T of
    its walk and its ``interval`` in the whole stack; a walk that leaves the
    float range raises ValueError."""
    deltas = np.empty(0) if schedule is None else schedule.deltas
    dim, d, K = coeffs[0].shape[-1], layout.system_dim, len(deltas) + 1
    if schedule is None or schedule.is_flip_schedule:
        W, pulse = -np.eye(d)[None], np.zeros(K - 1, dtype=np.intp)
    else:
        bits = schedule.pulses.reshape(K - 1, -1)
        first, pulse = _distinct(bits @ (2 << np.arange(bits.shape[1]))
                                 + (schedule.signs < 0))
        W = s_matrix(schedule.pulses[first])
        if W.shape[-1] != d:
            raise ValueError(f"pulse dimension {W.shape[-1]} does not match "
                             f"system dimension {d}")
        W *= schedule.signs[first, None, None]
    if schedule is not None and schedule.n_system not in (None, layout.n_system):
        raise ValueError(f"schedule for {schedule.n_system} system modes does not "
                         f"match the layout's {layout.n_system}")
    Ts = np.atleast_1d(np.asarray(T, dtype=float))
    if Ts.ndim > 1:
        raise ValueError(f"T must be one time or a 1-D grid, got shape {Ts.shape}")
    _check_times(Ts)
    tols = np.broadcast_to(tol, Ts.shape)
    grid = np.array([0.0, *deltas, 1.0])
    if len(coeffs) == 1:  # one interval [0, T len] a length group
        group, ends = _length_groups(np.diff(grid))
        starts = np.zeros_like(ends)
        # a factor a distinct (pulse, group); the last segment's, the one
        # without a pulse (id len(W)), comes last
        first, key = _distinct(np.append(pulse, len(W)) * len(ends) + group)
        flow, pulse = group[first], pulse[first[:-1]]
    else:  # a factor a segment
        starts, ends, flow, key = grid[:-1], grid[1:], slice(None), np.arange(K)
    W = W[pulse]  # the pulse of every factor but the last
    n, batch = len(starts), max(1, FLOW_ELEMENTS // ((len(W) + 1) * dim * dim))
    S = np.empty((len(Ts), dim, dim))
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        for b0 in range(0, len(Ts), batch):
            ts = Ts[b0:b0 + batch]
            try:
                flows = _flows(coeffs, (ts[:, None] * starts).ravel(),
                               (ts[:, None] * ends).ravel(), np.repeat(tols[b0:b0 + batch], n))
            except ToleranceNotReached as exc:
                raise ToleranceNotReached(f"{exc} (walk to T = {ts[exc.interval // n]})",
                                          b0 * n + exc.interval) from None
            factors = flows.reshape(len(ts), n, dim, dim)[:, flow]
            # a pulse acts after its segment's flow, on its system rows only
            factors[:, :-1, :d] = W @ factors[:, :-1, :d]
            P = factors[:, key[0]]
            for k in key[1:].tolist():
                P = factors[:, k] @ P
            lost = ~np.isfinite(P).all(axis=(-2, -1))
            if lost.any():
                raise ValueError(f"the evolution to T = {ts[lost][0]} leaves the float range")
            S[b0:b0 + batch] = P
    return S if np.ndim(T) else S[0]


def resulting_evolution(gen: AnalyticGenerator, schedule: PulseSchedule,
                        T, tol: float = DEFAULT_TOL) -> np.ndarray:
    """S(T, t_L) . prod_j (S_j (+) I) S(t_j, t_{j-1}) in time order; for a
    1-D grid of T, the stack of those products, from one memory-bounded walk."""
    return _walk(gen.coeffs, schedule, gen.layout, T, tol)


class DegenerateRotationFit(ValueError):
    """Raised when the trace projections onto I and J both vanish."""


@dataclass(frozen=True)
class RotationFit:
    omega: float
    residual: float


def homogenization_fit(S_sys: np.ndarray, T) -> RotationFit:
    """Best rotation e^{omega T J} by trace projection onto span{I, J}, of
    one d x d matrix at one T (floats), or of a (..., d, d) stack at a T each
    (arrays, each entry bitwise the fit of its matrix alone).

    c1 = tr(S)/d and c2 = tr(J^T S)/d are the I- and J-components; the fitted
    frequency is atan2(c2, c1)/T and the residual the Frobenius distance;
    a T that is not finite and positive raises ValueError.
    """
    Ts = np.asarray(T)
    bad = Ts[~((0 < Ts) & (Ts < math.inf))]
    if bad.size:
        raise ValueError(f"need 0 < T < inf, got T = {bad[0]}")
    d = S_sys.shape[-1]
    if d % 2 or S_sys.ndim < 2 or S_sys.shape[-2] != d:
        raise ValueError("system matrix must be square of even dimension")
    J = _single_form(d // 2)
    c1 = np.trace(S_sys, axis1=-2, axis2=-1) / d
    c2 = np.trace(J.T @ S_sys, axis1=-2, axis2=-1) / d
    if ((c1 == 0.0) & (c2 == 0.0)).any():
        raise DegenerateRotationFit("both trace projections vanish; no rotation fit")
    theta = _atan2(c2, c1)
    R = np.cos(theta)[..., None, None] * np.eye(d) + np.sin(theta)[..., None, None] * J
    D = (S_sys - R).reshape(*S_sys.shape[:-2], d * d)
    fit = RotationFit(omega=theta / Ts, residual=np.sqrt(np.vecdot(D, D)))
    return fit if S_sys.ndim > 2 else RotationFit(float(fit.omega), float(fit.residual))


@dataclass(frozen=True)
class SweepResult:
    order: int
    times: tuple[float, ...]
    residuals: tuple[float, ...]
    floor_flags: tuple[bool, ...]
    slope: float | None
    n_fit: int
    omegas: tuple[float, ...] | None = None
    bounds: tuple[float, ...] | None = None
    product_sign: int = 1


def _pulse_product_sign(schedule: PulseSchedule) -> int:
    """Sign of the time-ordered product of the signed system pulses, read
    from the index algebra; raises unless the product is +-identity."""
    index, sign = product_index(schedule.pulses[::-1])
    if index.any():
        raise ValueError("pulse product is not +-identity")
    return sign * int(np.prod(schedule.signs))


def _fit_slope(times: Sequence[float],
               residuals: Sequence[float]) -> tuple[float | None, int]:
    pts = [(t, r) for t, r in zip(times, residuals) if FIT_WINDOW[0] <= r <= FIT_WINDOW[1]]
    if len(pts) < 3:
        return None, len(pts)
    logt = np.log([p[0] for p in pts])
    logr = np.log([p[1] for p in pts])
    slope = float(np.polyfit(logt, logr, 1)[0])
    return slope, len(pts)


def order_sweep(gen: AnalyticGenerator, scheme: str, order: int,
                T_grid: Sequence[float], tol: float = DEFAULT_TOL) -> SweepResult:
    """Residual-vs-T sweep with log-log slope fit over ``FIT_WINDOW``.

    ``scheme`` is "decoupling" (off-diagonal residual of the resulting
    evolution, coupled generator) or "homogenization" (rotation-fit residual
    of the system block, decoupled generator with n_system = 2^m modes, which
    fixes m; it walks the system block alone, as the fit reads no other).
    For a time-dependent generator each point's integrator tolerance is
    re-tightened until it sits at least two orders below the measured
    residual, for at most four rounds.  Every round walks the points still
    being re-tightened (all of them at first) afresh at their own
    tolerances, in one walk and one stacked fit a round, so each point's
    result is a walk of it alone at its final tolerance.  A constant
    generator is propagated exactly, in one round.
    A T that is not finite and positive raises ValueError before any walk.
    """
    coeffs, layout = gen.coeffs, gen.layout
    if scheme == "decoupling":
        schedule = decoupling_schedule(order, layout.n_system)
        sign = 1
    elif scheme == "homogenization":
        m = layout.n_system.bit_length() - 1
        if layout.n_system != 2 ** m:
            raise ValueError("homogenization requires n_system = 2^m")
        if not gen.decoupled:
            raise ValueError("homogenization sweep expects a decoupled generator")
        schedule = homogenization_schedule(order, m)
        sign = _pulse_product_sign(schedule)
        d = layout.system_dim  # the pulses and the fit act on this block alone
        coeffs, layout = tuple(X[:d, :d] for X in coeffs), ModeLayout(layout.n_system)
    else:
        raise ValueError(f"unknown sweep scheme {scheme!r}")

    T_grid = tuple(float(T) for T in T_grid)
    Ts = np.array(T_grid)
    bad = Ts[~((0 < Ts) & (Ts < math.inf))]
    if bad.size:
        raise ValueError(f"need 0 < T < inf, got T = {bad[0]}")
    residuals, omegas = np.empty(len(Ts)), np.full(len(Ts), np.nan)
    tols, live = np.full(len(Ts), float(tol)), np.ones(len(Ts), bool)
    for _ in range(4):
        ps = np.flatnonzero(live)
        S = _walk(coeffs, schedule, layout, Ts[ps], tols[ps])
        if scheme == "decoupling":
            residuals[ps] = [offdiag_residual(s, layout) for s in S]
        else:
            fit = homogenization_fit(sign * S, Ts[ps])
            residuals[ps], omegas[ps] = fit.residual, fit.omega
        # re-tighten until the integrator sits well below the residual;
        # sub-window points are floor-flagged and excluded from the fit.
        # the 1e-13 floor is the absolute self-consistency allowance:
        # step-halving differences cannot certify much below it in
        # double precision
        new_tols = np.maximum(residuals / 200.0, 1e-13)
        live &= ((gen.degree > 0) & (residuals >= FIT_WINDOW[0])
                 & (tols > residuals / 100.0) & (new_tols < tols))
        if not live.any():
            break
        tols = np.where(live, new_tols, tols)

    residuals = tuple(residuals.tolist())
    omegas = tuple(omegas.tolist()) if scheme == "homogenization" else None
    floor = tuple(r < FIT_WINDOW[0] for r in residuals)
    slope, n_fit = _fit_slope(T_grid, residuals)

    bounds = None
    if scheme == "decoupling" and gen.degree == 0:
        j0, jz = generator_block_norms(gen)
        bounds = tuple(decoupling_error_bound(j0, jz, order, T) for T in T_grid)

    return SweepResult(order=order, times=T_grid, residuals=residuals,
                       floor_flags=floor, slope=slope, n_fit=n_fit,
                       omegas=omegas, bounds=bounds, product_sign=sign)


def generator_block_norms(gen: AnalyticGenerator) -> tuple[float, float]:
    """(J0, Jz) = (||X_EE||, ||X_SS|| + ||X_SE||) in spectral norm, for the
    constant part of the generator."""
    if gen.degree > 0:
        raise ValueError("block norms are defined for time-independent generators")
    b = block_decompose(gen.coeffs[0], gen.layout)
    return spectral_norm(b.ee), spectral_norm(b.ss) + spectral_norm(b.se)


def decoupling_error_bound(j0: float, jz: float, order: int, t_total: float) -> float:
    """Residual bound for N flip pulses at Uhrig times, time-independent case.

    For x = (J0+Jz)T <= 1 this is the closed form e sqrt(2) x^{N+1}/(N+1)!,
    taken in log space once (N+1)! leaves the float range (N >= 170);
    beyond that the closed form is invalid and the underlying tail-series
    bound sqrt(2) sum_{s>N} x^s/s! is returned instead, summed from its first
    term (taken in log space), inf past the float range.
    """
    if order < 0 or not t_total >= 0:  # NaN fails
        raise ValueError(f"order and time must be nonnegative, got N = {order}, T = {t_total}")
    if not (j0 >= 0 and jz >= 0):
        raise ValueError(f"norms must be nonnegative, got J0 = {j0}, Jz = {jz}")
    # no evolution, whatever the other factor (inf * 0 would be NaN)
    x = 0.0 if j0 + jz == 0.0 or t_total == 0.0 else (j0 + jz) * t_total
    if x <= 1.0:
        try:
            return math.e * math.sqrt(2.0) * x ** (order + 1) / math.factorial(order + 1)
        except OverflowError:  # (N+1)! as a float: the bound is below 1e-308
            if x == 0.0:
                return 0.0
            return math.sqrt(2.0) * math.exp(
                1.0 + (order + 1) * math.log(x) - math.lgamma(order + 2))
    try:
        term = math.exp((order + 1) * math.log(x) - math.lgamma(order + 2))
    except OverflowError:  # the first term alone is past the float range
        return math.inf
    tail = term
    for s in itertools.count(order + 2):
        term *= x / s
        if not tail + term > tail:  # negligible, or the tail is inf
            return math.sqrt(2.0) * tail
        tail += term


def affine_propagate(gen: AnalyticGenerator, M0: np.ndarray, d0: np.ndarray,
                     T: float, tol: float = DEFAULT_TOL,
                     schedule: PulseSchedule | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Covariance and displacement after time T (with optional pulses).

    Propagates the homogeneous embedding [[X(t), b(t)], [0, 0]], whose upper
    block is the symplectic map S and whose last column accumulates the
    displacement; then M(T) = S M0 S^T and d(T) = S d0 + zeta.  The linear
    drive b(t) never enters the covariance output.
    """
    dim = gen.layout.dim
    M0 = np.asarray(M0, dtype=float)
    d0 = np.asarray(d0, dtype=float)
    if M0.shape != (dim, dim):
        raise ValueError(f"covariance shape {M0.shape} != {(dim, dim)}")
    if not (np.isfinite(M0).all()
            and np.linalg.norm(M0 - M0.T) <= 1e-12 * max(1.0, float(np.linalg.norm(M0)))):
        raise ValueError("initial covariance must be finite and symmetric")
    if d0.shape != (dim,):
        raise ValueError(f"displacement shape {d0.shape} != {(dim,)}")
    if np.ndim(T):
        raise ValueError(f"affine propagation takes one T, got shape {np.shape(T)}")

    linear = gen.linear or ()
    emb = np.zeros((max(len(gen.coeffs), len(linear)), dim + 1, dim + 1))
    emb[:len(gen.coeffs), :dim, :dim] = gen.coeffs
    if linear:
        emb[:len(linear), :dim, dim] = linear

    E = _walk(emb, schedule, gen.layout, T, tol)
    S, zeta = E[:dim, :dim], E[:dim, dim]
    return S @ M0 @ S.T, S @ d0 + zeta


def random_generator(layout: ModeLayout, seed: int, scale_ss: float,
                     scale_se: float, scale_ee: float, degree: int = 0) -> AnalyticGenerator:
    """Seeded generator with X_r = A_r J, A_r symmetric, entries uniform in
    [-1, 1] scaled per block.  scale_se = 0 yields a decoupled generator."""
    if not all(0 <= scale < math.inf for scale in (scale_ss, scale_se, scale_ee)):
        raise ValueError("scales must be nonnegative and finite")
    if not 0 <= degree <= 4:
        raise ValueError(f"polynomial degree capped at 4, got {degree}: need 0..4")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    J = symplectic_form(layout)
    ds, de = layout.system_dim, layout.env_dim
    coeffs = []
    for _ in range(degree + 1):
        A = np.zeros((layout.dim, layout.dim))
        ss = rng.uniform(-1.0, 1.0, (ds, ds))
        A[:ds, :ds] = scale_ss * (ss + ss.T) / 2.0
        if de:
            se = rng.uniform(-1.0, 1.0, (ds, de))
            ee = rng.uniform(-1.0, 1.0, (de, de))
            A[:ds, ds:] = scale_se * se
            A[ds:, :ds] = scale_se * se.T
            A[ds:, ds:] = scale_ee * (ee + ee.T) / 2.0
        coeffs.append(A @ J)
    return AnalyticGenerator(layout=layout, coeffs=tuple(coeffs))
