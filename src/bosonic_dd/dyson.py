"""Exact iterated integrals over piecewise sign functions, and the
vanishing-condition checks behind every suppression-order claim.

The central object is

    F[r_1..r_s; F_1..F_s] = int_0^1 dt_s ... int_0^{t_2} dt_1
                             prod_k F_k(t_k) t_k^{r_k}

evaluated by iterated antidifferentiation, exact up to roundoff: a sign
function is a flip mask over the schedule's pulse times, so every stage is a
polynomial on each interval of one grid, the times where any mask of a report
flips (labels with equal masks share one function, merged by the masks'
bytes).  A stage is an ``(n_intervals, degree + 1)`` array in the local
variable u = t - b_i, so t^r is a binomial expansion in b_i,
antidifferentiation a column shift and scale, and the continuity constants
an exclusive cumulative sum.  Keys
((f_1, r_1), ..., (f_s, r_s)) come as integer arrays, sorted so that equal
keys are neighbours; each distinct key is walked once and its value copied
to its duplicates by one gather.  The walk goes by depth: the distinct
length-d prefixes of the longer keys are integrated as one stacked stage,
and each key's last step is not integrated at all but contracted, one row
per key, against a per-report table of moments int_0^{h_i} (b_i + u)^r u^j
du, its two operands gathered into buffers that each ``_evaluate`` call
allocates once.  Every sum runs in an order fixed by the grid alone, so a
key's value does not depend on the other keys of the walk, and a duplicate's
copied value is bitwise the one it would get walked itself.

The zero test is relative.  With every sign +1 the integral is the closed
form scale(r) = 1 / prod_{k=1..s} (k + r_1 + ... + r_k), and |F| <= scale(r)
for any signs, since |F_k| = 1 and t^r >= 0.  A required-zero row passes iff
|value| <= tol * scale(r); scale(r) <= 1/s! <= 1, so the test is never
looser than an absolute one at the same ``tol``.  The default 1e-10 lies four
orders above the worst relative residual measured on the largest checks run
(1.3e-14, sampled nudd N=3 m=2).

Checked conditions (each over all tuples with s + sum(r) <= N):

* single-axis Uhrig (scalar sigma):    vanishes when xor(gamma) = 1
* nested multi-qubit train:            vanishes when xor(alpha) != 0
* bosonic homogenization:              vanishes when xor(alpha) is neither
                                       the zero index nor the index of -J

Each report takes the sign functions of its alphabet from its own schedule,
by one ``toggling_sign_function`` call: sigma is the flip mask of the N-pulse
decoupling schedule, and the indices pair with the pulses of the nested train.

A ``ConditionReport`` holds its rows as columns, with no object per row: the
(s, powers) budgets and one budget id per row, an (n_rows, s_max) matrix of
alphabet positions, the walker's values, a ``required_zero`` mask and the
alphabet.  ``passed``, ``max_violation`` and ``n_checked`` are array
reductions (a NaN value fails).  The udd report appends its witness row,
one order past the budget, as one more budget that need not vanish.
Every report takes orders 1..12, checked before its budgets are built.  A
report enumerates every tuple when there are at most MAX_TUPLES of them;
past that it checks MAX_TUPLES tuples drawn with seed SAMPLE_SEED.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .pauli_basis import all_indices, gamma_set, symplectic_form_index
from .schedules import (
    PulseSchedule,
    _nudd_guard,
    decoupling_schedule,
    homogenization_schedule,
    qubit_nudd_schedule,
    substitute_bosonic,
    toggling_sign_function,
)

DEGREE_CAP = 24
ZERO_TOL = 1e-10
QUBIT_LABEL_GUARD = 10 ** 4
MAX_TUPLES = 10 ** 5  # past this many tuples a report samples this many
SAMPLE_SEED = 0
WALK_BLOCK_ELEMENTS = 2 ** 18  # keys x intervals of one walk: bounds its arrays
# _BINOMIAL[r, a] = C(r, a), zero for a > r
_BINOMIAL = np.array([[math.comb(r, a) for a in range(DEGREE_CAP + 1)]
                      for r in range(DEGREE_CAP + 1)], dtype=float)


def _integrate_stage(coeffs: np.ndarray, signs: np.ndarray, powers: np.ndarray,
                     degree: int, left_pow: np.ndarray, width_pow: np.ndarray) -> np.ndarray:
    """Antiderivatives of F_p(t) t^(r_p) g_p(t), continuous and zero at t = 0.

    ``coeffs[p, i]`` holds g_p on grid interval (b_i, b_{i+1}] in ascending
    powers of u = t - b_i, ``signs[p, i]`` is F_p there and ``powers[p]`` is
    r_p; ``left_pow[i, k]`` is b_i^k and ``width_pow[i, k]`` is
    (b_{i+1} - b_i)^k.  ``degree`` is the largest degree of any antiderivative;
    the columns past a prefix's own degree stay zero and change no bit.
    """
    n_prefixes, n, width = coeffs.shape
    out = np.zeros((n_prefixes, n, degree + 1))
    for a in range(int(powers.max()) + 1):  # t^r = sum_a C(r, a) b_i^(r-a) u^a
        scale = _BINOMIAL[powers, a][:, None] * signs * left_pow[:, np.maximum(powers - a, 0)].T
        columns = min(width, degree - a)  # the rest would add zeros past `degree`
        out[:, :, a + 1:a + 1 + columns] += scale[:, :, None] * coeffs[:, :, :columns]
    out[:, :, 1:] /= np.arange(1, degree + 1)
    increments = out[:, :, 0] * width_pow[:, 0]  # summed in column order, one column at a time
    for j in range(1, degree + 1):
        increments += out[:, :, j] * width_pow[:, j]
    out[:, 1:, 0] = np.cumsum(increments[:, :-1], axis=-1)
    return out


def _evaluate(breaks: np.ndarray, signs: np.ndarray, f: np.ndarray, r: np.ndarray,
              length: np.ndarray) -> np.ndarray:
    """Nested integral of every key.

    Sign function k flips at the times ``breaks[signs[k]]``: ``signs`` is an
    ``(n_functions, L)`` flip mask over the ``(L,)`` times ``breaks``, which
    are strictly increasing in (0, 1) where any mask is set.  Row j of the
    ``(n, width)`` integer arrays ``f`` and ``r`` is the key
    ((f_1, r_1), ..., (f_s, r_s)), s = ``length[j]``, f indexing the rows of
    ``signs`` (padding past s: r = 0, any valid f).  The keys are sorted
    lexicographically and cut into blocks of at most WALK_BLOCK_ELEMENTS / n
    keys, duplicates counted; each block walks only the first key of each run
    of equal keys, and one gather copies every run's value to the rest.  Walked
    by depth: the distinct length-d prefixes of the keys longer than d form one
    stacked stage, and a key of length d + 1 is its prefix stage g contracted with
    the moments mu_r[i, j] = int_0^{h_i} (b_i + u)^r u^j du: sum_i F(b_i) sum_j g mu_r.
    """
    used = signs.any(axis=0)
    breaks = np.concatenate([[0.0], breaks[used], [1.0]])
    n = len(breaks) - 1
    # F is (-1)^(number of flips <= b_i) on (b_i, b_{i+1}]
    flips = np.zeros((len(signs), n), dtype=np.intp)
    np.cumsum(signs[:, used], axis=1, out=flips[:, 1:])
    signs = 1.0 - 2.0 * (flips % 2)
    if not length.size:  # e.g. a sampled report that drew no tuple
        return np.empty(0)
    power_sum = np.cumsum(r, axis=1)  # a length-d prefix has degree d + power_sum[d - 1]
    if (length + power_sum[:, -1]).max() > DEGREE_CAP:
        raise RuntimeError(f"polynomial degree exceeds cap {DEGREE_CAP}")
    n_powers = int(r.max()) + 1
    k = np.arange(DEGREE_CAP + 1)  # one table shape, so the same bits for any keys
    left_pow = breaks[:-1, None] ** k
    width_pow = np.diff(breaks)[:, None] ** k
    moments = np.zeros((n_powers, n, DEGREE_CAP))  # moments[r] is mu_r
    for a in range(n_powers):  # entries past the cap stay partial but are never used
        scale = _BINOMIAL[:n_powers, a, None] * left_pow[:, np.maximum(k[:n_powers] - a, 0)].T
        moments[:, :, :DEGREE_CAP - a] += scale[:, :, None] * (
            width_pow[:, a + 1:] / np.arange(a + 1, DEGREE_CAP + 1))

    values = np.empty(len(length))
    prefix = np.zeros(len(length), dtype=np.intp)  # each key's row in `stage`
    # walks over blocks of keys in lexicographic order share most prefixes
    keys = np.where(np.arange(r.shape[1]) < length[:, None], f * n_powers + r, -1)
    order = np.lexsort(keys.T[::-1])
    # equal keys sit next to each other in `order`; only the first of each run
    # is walked (columns compared one at a time: no sorted copy of `keys`)
    first = np.zeros(len(order), dtype=bool)
    first[0] = True
    for d in range(keys.shape[1]):
        first[1:] |= np.diff(keys[order, d]) != 0
    del keys
    # keys per walk, duplicates counted: a block of distinct keys alone would
    # span more prefixes, and its stages would outgrow the bound
    block = max(1, WALK_BLOCK_ELEMENTS // n)
    # the leaf step's two gathers, allocated once: fresh ones each depth and walk
    # would be returned to the system and faulted in again every time
    gathered = np.empty((2, min(block, len(length)), n))
    for start in range(0, len(length), block):
        live = order[start:start + block][first[start:start + block]]
        stage = np.ones((1, n, 1))  # the empty prefix: g = 1
        for d in range(r.shape[1]):
            leaf = live[length[live] == d + 1]
            last, which = np.unique(prefix[leaf] * n_powers + r[leaf, d], return_inverse=True)
            g, mu = last // n_powers, last % n_powers
            inner = stage[g, :, 0] * moments[mu, :, 0]  # sum_j g mu_r, in column order
            for j in range(1, stage.shape[2]):
                inner += stage[g, :, j] * moments[mu, :, j]
            leaf_signs, leaf_inner = gathered[:, :len(leaf)]
            np.take(signs, f[leaf, d], axis=0, mode="clip", out=leaf_signs)
            np.take(inner, which, axis=0, mode="clip", out=leaf_inner)
            values[leaf] = np.einsum("ki,ki->k", leaf_signs, leaf_inner)
            live = live[length[live] > d + 1]
            if not live.size:
                break
            steps, prefix[live] = np.unique((prefix[live] * len(signs) + f[live, d])
                                            * n_powers + r[live, d], return_inverse=True)
            parent, steps = np.divmod(steps, len(signs) * n_powers)
            stage = _integrate_stage(stage[parent], signs[steps // n_powers], steps % n_powers,
                                     d + 1 + int(power_sum[live, d].max()), left_pow, width_pow)
    values[order] = values[order[first]][np.cumsum(first) - 1]  # each run's value
    return values


def iterated_integral(signs: Sequence[Sequence[float]], powers: Sequence[int]) -> float:
    """Exact nested integral g_s(1) with g_k' = F_k(u) u^{r_k} g_{k-1}(u),
    where F_k starts at +1 and flips at the times ``signs[k]``."""
    if len(signs) != len(powers):
        raise ValueError("need one power per sign function")
    if not signs:
        raise ValueError("empty integrand")
    if not all(r >= 0 and float(r).is_integer() for r in powers):  # NaN fails
        raise ValueError(f"powers must be nonnegative integers, got {list(powers)}")
    flips = [np.asarray(F, dtype=float) for F in signs]
    if not all(F.ndim == 1 and ((np.diff(F, prepend=0.0) > 0.0) & (F < 1.0)).all()
               for F in flips):
        raise ValueError("flip points must be strictly increasing in (0, 1)")
    times = np.sort(np.concatenate(flips))
    times = times[np.diff(times, prepend=0.0) > 0.0]  # each flip time once
    # np.isin would sort through np.unique, which loads numpy.ma
    return float(_evaluate(times, np.array([(times == F[:, None]).any(axis=0) for F in flips]),
                           np.arange(len(powers))[None], np.array([powers], dtype=np.intp),
                           np.array([len(powers)]))[0])


# ---------------------------------------------------------------------------
# Condition reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """One row per checked tuple, held as columns: row j is the labels
    ``alphabet[picks[j, :s]]`` (``picks`` holds -1 past s; ``alphabet`` is an
    index stack, or the 0-d labels 0 and 1 of a scalar report) with the powers of
    budget ``budgets[budget[j]] = (s, powers)``; ``values[j]`` is its integral,
    which must vanish to within ``tol`` times the budget's scale where
    ``required_zero[j]``."""
    tol: float
    alphabet: np.ndarray
    budgets: tuple[tuple[int, tuple[int, ...]], ...]
    budget: np.ndarray
    picks: np.ndarray
    values: np.ndarray
    required_zero: np.ndarray
    exhaustive: bool

    @property
    def row_passes(self) -> np.ndarray:
        """A row fails only if it must vanish and not |value| <= tol * scale(r),
        scale(r) = 1 / prod_k (k + r_1 + ... + r_k) (NaN fails)."""
        scale = np.array([1.0 / math.prod(k + p for k, p in enumerate(itertools.accumulate(r), 1))
                          for _, r in self.budgets])
        return ~self.required_zero | (np.abs(self.values) <= self.tol * scale[self.budget])

    @property
    def passed(self) -> bool:
        return bool(self.row_passes.all())

    @property
    def max_violation(self) -> float:
        """The largest |value| that must vanish: 0.0 for none, NaN if any is NaN."""
        return float(np.abs(self.values[self.required_zero]).max(initial=0.0))

    @property
    def n_checked(self) -> int:
        return int(np.count_nonzero(self.required_zero))


def _budget_pairs(order: int) -> list[tuple[int, tuple[int, ...]]]:
    """All (s, powers) with s >= 1 and s + sum(powers) <= order: by s, then
    by sum(powers), then lexicographically."""
    # the powers summing to t are the compositions of t into s parts; those
    # follow, in lexicographic order, the positions of s - 1 bars among t + s - 1
    return [(s, tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, t + s - 1))))
            for s in range(1, order + 1) for t in range(order - s + 1)
            for bars in itertools.combinations(range(t + s - 1), s - 1)]


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > 12:
        raise ValueError("budget guard: order <= 12")


def check_udd_condition(order: int, tol: float = ZERO_TOL) -> ConditionReport:
    """Single-axis Uhrig vanishing for the sigma of the decoupling schedule:
    all tuples with odd gamma parity vanish.

    Also probes the tuple (s=1, r=N, gamma=1) one order past the budget; its
    value (-1/4)^N is the witness that suppression stops exactly at order N.
    """
    _check_order(order)
    schedule = decoupling_schedule(order, n_system=1)
    # gamma bits 0 and 1 stand for the constant and sigma; their xor is 0 or 1
    report = _tuple_condition_report(schedule, np.arange(2), np.zeros(1, int), tol)
    witness = _evaluate(schedule.deltas, toggling_sign_function(schedule, np.ones(1, int)),
                        np.zeros((1, 1), int), np.array([[order]]), np.ones(1, int))
    return replace(report, budgets=report.budgets + ((1, (order,)),),
                   budget=np.append(report.budget, len(report.budgets)),
                   picks=np.concatenate([report.picks, [[1] + [-1] * (order - 1)]]),
                   values=np.append(report.values, witness),
                   required_zero=np.append(report.required_zero, False))


def _tuple_condition_report(schedule: PulseSchedule, alphabet: np.ndarray,
                            exempt_xors: np.ndarray, tol: float) -> ConditionReport:
    """Every tuple of ``alphabet`` labels, label k flipping where its sign
    function over ``schedule`` flips, whose index xor is no row of
    ``exempt_xors``, with every budget of powers to the schedule's order."""
    order = schedule.order
    _check_order(order)  # before the budgets, which grow as (order - s + 1)^s
    # labels with equal masks share one function, numbered by first occurrence
    masks = toggling_sign_function(schedule, alphabet)
    ids: dict[bytes, int] = {}
    function = np.fromiter((ids.setdefault(row.tobytes(), len(ids)) for row in masks),
                           dtype=np.intp, count=len(masks))
    functions = np.empty((len(ids), masks.shape[1]), dtype=bool)
    functions[function] = masks
    # each label's index bits packed into one integer, so index xors are integer xors
    weight = 1 << np.arange(np.size(alphabet[0]))
    code = np.reshape(alphabet, (len(alphabet), -1)) @ weight
    exempt = np.reshape(exempt_xors, (len(exempt_xors), -1)) @ weight

    def kept(picks: np.ndarray) -> np.ndarray:
        """Rows of alphabet positions (-1 past s) whose index xor is not exempt."""
        xors = np.bitwise_xor.reduce(np.where(picks < 0, 0, code[picks]), axis=1)
        return (xors[:, None] != exempt).all(axis=1)

    budgets = _budget_pairs(order)
    powers = np.array([r + (0,) * (order - s) for s, r in budgets])  # padded with 0
    if sum(len(alphabet) ** s for s, _ in budgets) <= MAX_TUPLES:
        by_length: dict[int, np.ndarray] = {}
        for s in range(1, order + 1):  # all s-tuples in itertools.product order
            picks = np.full((len(alphabet) ** s, order), -1)
            picks[:, :s] = np.indices((len(alphabet),) * s).reshape(s, -1).T
            by_length[s] = picks[kept(picks)]
        budget = np.repeat(np.arange(len(budgets)), [len(by_length[s]) for s, _ in budgets])
        picks = np.concatenate([by_length[s] for s, _ in budgets])
        exhaustive = True
    else:
        # per draw: one budget, then s labels; each batch is tested at once and
        # draws no more tuples than are still missing, so no extra number is drawn
        rng = np.random.default_rng(SAMPLE_SEED)
        budget = np.empty(MAX_TUPLES, dtype=np.intp)
        picks = np.full((MAX_TUPLES, order), -1)
        n = attempts = 0
        while n < MAX_TUPLES and attempts < 20 * MAX_TUPLES:
            batch = min(MAX_TUPLES - n, 20 * MAX_TUPLES - attempts)
            attempts += batch
            drawn, rows = budget[n:n + batch], picks[n:n + batch]
            for j in range(batch):
                drawn[j] = b = rng.integers(len(budgets))
                s = budgets[b][0]
                rows[j, :s] = rng.integers(len(alphabet), size=s)
            keep = kept(rows)
            n_kept = int(np.count_nonzero(keep))
            drawn[:n_kept], rows[:n_kept] = drawn[keep], rows[keep]
            rows[n_kept:] = -1
            n += n_kept
        budget, picks = budget[:n], picks[:n]
        exhaustive = False
    values = _evaluate(schedule.deltas, functions, function[picks], powers[budget],
                       np.array([s for s, _ in budgets])[budget])
    return ConditionReport(tol=tol, alphabet=alphabet,
                           budgets=tuple(budgets), budget=budget, picks=picks,
                           values=values, required_zero=np.ones(len(values), dtype=bool),
                           exhaustive=exhaustive)


def check_qubit_nudd_condition(order: int, m: int, tol: float = ZERO_TOL) -> ConditionReport:
    """Nested-train decoupling condition over the full (Z2xZ2)^{m+1} alphabet."""
    _nudd_guard(order, m, QUBIT_LABEL_GUARD, "qubit-condition")
    schedule = qubit_nudd_schedule(order, m)
    alphabet = all_indices(m)
    exempt = np.zeros((1, m + 1, 2), dtype=int)  # the zero index, product ~ identity
    return _tuple_condition_report(schedule, alphabet, exempt, tol)


def check_homogenization_condition_for(schedule: PulseSchedule,
                                       tol: float = ZERO_TOL) -> ConditionReport:
    """Homogenization condition for an arbitrary indexed pulse schedule, to
    the schedule's order over its m.

    Tuples whose index sum is the zero index (product ~ identity) or the
    index of the symplectic form (product ~ J) are exempt.
    """
    if schedule.is_flip_schedule:
        raise ValueError("the homogenization condition needs an indexed schedule")
    m = schedule.m
    alphabet = gamma_set(m)
    exempt = np.stack([np.zeros((m + 1, 2), dtype=int), symplectic_form_index(m)])
    return _tuple_condition_report(schedule, alphabet, exempt, tol)


def check_homogenization_condition(order: int, m: int, tol: float = ZERO_TOL) -> ConditionReport:
    """Homogenization condition for the nested-train bosonic schedule."""
    _nudd_guard(order, m, QUBIT_LABEL_GUARD, "homogenization-condition")
    return check_homogenization_condition_for(homogenization_schedule(order, m), tol)


# ---------------------------------------------------------------------------
# Qubit <-> bosonic correspondence
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CorrespondenceReport:
    """``mismatches``: the basis indices whose sign functions differ, a stack."""
    order: int
    m: int
    n_checked: int
    mismatches: np.ndarray

    @property
    def passed(self) -> bool:
        return not len(self.mismatches)


def verify_qubit_bosonic_correspondence(order: int, m: int) -> CorrespondenceReport:
    """Breakpoint-exact equality F^bos_alpha == F^qubit_alpha' of flip times.

    alpha' differs from alpha only at position 0: with a_0 = (c, d), the
    partner index is (c, c, 0, ..., 0) xor alpha, i.e. a_0' = (0, d xor c).
    """
    qubit = qubit_nudd_schedule(order, m)
    bosonic = substitute_bosonic(qubit)
    gamma = gamma_set(m)
    partner = gamma.copy()
    partner[:, 0, 1] ^= partner[:, 0, 0]
    partner[:, 0, 0] = 0
    differ = [not np.array_equal(bosonic.deltas[b], qubit.deltas[q]) for b, q in zip(
        toggling_sign_function(bosonic, gamma), toggling_sign_function(qubit, partner))]
    return CorrespondenceReport(order=order, m=m, n_checked=len(gamma),
                                mismatches=gamma[np.array(differ, dtype=bool)])
