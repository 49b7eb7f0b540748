"""Pulse schedules: single-axis Uhrig trains, nested multi-qubit trains,
and the bosonic homogenization schedules obtained by pulse substitution.

A schedule stores fractional application times ``0 < delta <= 1``; the total
time T is supplied when the schedule is evolved.  Two pulse alphabets occur:

* flip schedules ("decoupling"): every pulse is the phase flip -I on the
  system block.  The pulse is stored as the bit 1; the relevant sign
  information is the scalar function sigma that flips at every pulse.
* indexed schedules ("qubit-nudd", "bosonic-homogenization"): pulses are
  multi-indices over (Z2 x Z2)^{m+1} (see :mod:`bosonic_dd.pauli_basis`).
  Position 0 of the index corresponds to the innermost nesting level of the
  nested train; level 2k is the z-slot and level 2k+1 the x-slot of
  position k.

Sign functions are stored canonically as their flip points only: F(0+) = +1
always, and a flip at exactly delta = 1 is dropped (it changes the function
on a zero-measure tail only, and dropping it makes function comparison
breakpoint-exact across schedules that do or do not retain a final pulse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Sequence, Union

import numpy as np

from .pauli_basis import (
    MultiIndex,
    PAIR_I,
    PAIR_X,
    PAIR_Y,
    PAIR_Z,
    _check_m,
    product_index,
    symplectic_inner_product,
)

FLIP = 1  # pulse token for -I on the system block
_PAIRS = frozenset((PAIR_I, PAIR_X, PAIR_Y, PAIR_Z))
Pulse = Union[int, MultiIndex]

# Pulse times produced by the nested recursion are distinct by construction;
# the merge below is a safety net for externally supplied schedules.
MERGE_TOL = 1e-12

NUDD_LABEL_GUARD = 10 ** 6


@dataclass(frozen=True)
class PulseEntry:
    delta: float
    pulse: Pulse
    sign: int = 1


def _is_index(pulse, width: int) -> bool:
    """Whether ``pulse`` is a tuple of ``width`` pairs of bits."""
    try:
        return type(pulse) is tuple and len(pulse) == width and _PAIRS.issuperset(pulse)
    except TypeError:  # an unhashable pair
        return False


@dataclass(frozen=True)
class PulseSchedule:
    scheme: str
    order: int
    entries: tuple[PulseEntry, ...]
    m: int | None = None
    n_system: int | None = None

    def __post_init__(self) -> None:
        if self.n_system is not None and self.n_system < 1:
            raise ValueError(f"n_system must be >= 1, got {self.n_system}")
        prev, width = 0.0, None if self.m is None else self.m + 1
        for i, e in enumerate(self.entries):
            if not 0.0 < e.delta <= 1.0:
                raise ValueError(f"pulse time {e.delta} outside (0, 1]")
            if e.delta <= prev:
                raise ValueError("pulse times must be strictly increasing")
            prev = e.delta
            if e.sign not in (1, -1):
                raise ValueError(f"entry {i}: sign {e.sign!r} is not +-1")
            if width is None:
                if e.pulse != FLIP:
                    raise ValueError(f"entry {i}: flip schedule pulse {e.pulse!r} "
                                     f"is not {FLIP}")
            elif not _is_index(e.pulse, width):
                raise ValueError(f"entry {i}: pulse {e.pulse!r} is not m+1 = "
                                 f"{width} pairs of bits in {{0, 1}}")

    @property
    def is_flip_schedule(self) -> bool:
        return self.m is None

    def times(self) -> tuple[float, ...]:
        return tuple(e.delta for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Pulse times, the pulses as one index stack of shape (len, m+1, 2)
        (None for a flip schedule) and the entry signs; built once, read by
        every F_alpha and every evolution walk."""
        pulses = None if self.is_flip_schedule else np.array(
            [e.pulse for e in self.entries], dtype=int).reshape(len(self), self.m + 1, 2)
        return np.array(self.times()), pulses, np.array([e.sign for e in self.entries])


@dataclass(frozen=True)
class PiecewiseSignFunction:
    """Piecewise +-1 function on [0, 1]: starts at +1, flips at each point.

    Intervals follow the left-open right-closed convention: the value on
    ``(flip_k, flip_{k+1}]`` is ``(-1)^{k+1}``, so ``value(flip_k)`` still
    carries the pre-flip sign.
    """

    flips: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        prev = 0.0
        for t in self.flips:
            if not 0.0 < t < 1.0:
                raise ValueError(f"flip point {t} outside (0, 1)")
            if t <= prev:
                raise ValueError("flip points must be strictly increasing")
            prev = t

    def value(self, tau: float) -> int:
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"argument {tau} outside [0, 1]")
        k = sum(1 for t in self.flips if t < tau)
        return -1 if k % 2 else 1


def udd_times(n_pulses: int) -> tuple[float, ...]:
    """Uhrig fractions sin^2(j pi / (2(N+1))), j = 1..N.

    Strictly increasing in (0, 1) and symmetric: delta_j + delta_{N+1-j} = 1.
    """
    if n_pulses < 1:
        raise ValueError("need at least one pulse")
    return tuple(math.sin(j * math.pi / (2 * (n_pulses + 1))) ** 2
                 for j in range(1, n_pulses + 1))


def flip_train_schedule(deltas: Sequence[float], n_system: int,
                        order: int = 0, scheme: str = "flip-train") -> PulseSchedule:
    """Schedule applying -I_S at the given fractions (merging even repeats)."""
    merged = _merge_entries([PulseEntry(float(d), FLIP) for d in sorted(deltas)],
                            flip_alphabet=True)
    return PulseSchedule(scheme=scheme, order=order, entries=tuple(merged),
                         n_system=n_system)


def decoupling_schedule(n_pulses: int, n_system: int) -> PulseSchedule:
    """N applications of -I_S at the Uhrig fractions."""
    return flip_train_schedule(udd_times(n_pulses), n_system,
                               order=n_pulses, scheme="decoupling")


# ---------------------------------------------------------------------------
# Nested (multi-level) Uhrig schedules
# ---------------------------------------------------------------------------

Label = tuple[int, ...]


def _nudd_guard(n_pulses: int, m: int) -> None:
    if n_pulses < 1:
        raise ValueError("suppression order must be >= 1")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if (n_pulses + 1) ** (2 * m + 2) > NUDD_LABEL_GUARD:
        raise ValueError(
            f"label set size (N+1)^(2m+2) = {(n_pulses + 1) ** (2 * m + 2)} "
            f"exceeds the resource guard {NUDD_LABEL_GUARD}")


def _nudd_labels(n_pulses: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                 list[MultiIndex]]:
    """Labels {0..N}^{2m+2} in lexicographic order, with their pulse
    fractions, pulse levels and the (2m+3)-entry level-pulse table.

    A label's level is the position r of its first nonzero entry, and 2m+2
    for the all-zero label.  That label maps to 1 (a final pulse at readout
    time); a label with r >= 1 is evaluated through the shifted label with
    entries (r-1, r) replaced by (N+1, l_r - 1).  The nesting recursion
    d <- delta_l + (delta_{l+1} - delta_l) d runs innermost entry first over
    ``grid``, which holds delta_j for j = 0..N+1 plus a sentinel at N+2 that
    is only ever multiplied by a zero prefix.

    Pulses: for even N the level decides, z at even levels, x at odd.  For
    odd N each level pulse additionally carries the product of all lower y
    factors (z_k picks up y_0..y_{k-1}, x_k becomes y_0..y_k, and the
    all-zero label becomes the product of every y).
    """
    _nudd_guard(n_pulses, m)
    N, width = n_pulses, 2 * m + 2
    labels = np.indices((N + 1,) * width).reshape(width, -1).T
    nonzero = labels != 0
    level = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), width)
    shifted = labels.copy()
    rows = np.flatnonzero((level >= 1) & (level < width))
    shifted[rows, level[rows] - 1] = N + 1
    shifted[rows, level[rows]] -= 1
    grid = np.array([math.sin(j * math.pi / (2 * (N + 1))) ** 2 for j in range(N + 1)]
                    + [1.0, 1.0])
    times = grid[shifted[:, 0]]
    for column in shifted.T[1:]:
        times = grid[column] + (grid[column + 1] - grid[column]) * times
    times[level == width] = 1.0

    odd = N % 2 == 1
    table = []
    for r in range(width):
        k, x_slot = divmod(r, 2)
        idx = [PAIR_I] * (m + 1)
        if odd:
            idx[:k + x_slot] = [PAIR_Y] * (k + x_slot)
        if not (odd and x_slot):
            idx[k] = PAIR_X if x_slot else PAIR_Z
        table.append(tuple(idx))
    table.append((PAIR_Y if odd else PAIR_I,) * (m + 1))
    return labels, times, level, table


def nudd_times(n_pulses: int, m: int) -> dict[Label, float]:
    """Pulse fraction for every label in {0..N}^{2m+2} (see _nudd_labels)."""
    labels, times, _, _ = _nudd_labels(n_pulses, m)
    return dict(zip(map(tuple, labels.tolist()), times.tolist()))


def nudd_pulses(n_pulses: int, m: int) -> dict[Label, MultiIndex]:
    """Pulse index for every label (see _nudd_labels for the rules)."""
    labels, _, level, table = _nudd_labels(n_pulses, m)
    return dict(zip(map(tuple, labels.tolist()), (table[r] for r in level.tolist())))


def qubit_nudd_schedule(n_pulses: int, m: int) -> PulseSchedule:
    """The (m+1)-qubit nested Uhrig schedule as a time-ordered pulse list."""
    _, times, level, table = _nudd_labels(n_pulses, m)
    order = np.argsort(times, kind="stable")
    entries = [PulseEntry(t, table[r])
               for t, r in zip(times[order].tolist(), level[order].tolist())]
    merged = _merge_entries(entries, flip_alphabet=False)
    return PulseSchedule(scheme="qubit-nudd", order=n_pulses,
                         entries=tuple(merged), m=m, n_system=2 ** m)


def substitute_bosonic(qubit: PulseSchedule) -> PulseSchedule:
    """Replace qubit pulses by bosonic ones: the first index entry maps
    (1,0),(1,1) -> (1,1) and (0,0),(0,1) -> (0,0).

    Pulses that substitute to the all-zero index apply no operation and are
    dropped, except for the final slot at delta = 1, which is always kept so
    that the schedule has exactly (N+1)^{2m+1} entries for nested input of
    any parity (the retained identity there is a bookkeeping no-op).
    """
    if qubit.is_flip_schedule:
        raise ValueError("substitution expects an indexed qubit schedule")
    identity = (PAIR_I,) * (qubit.m + 1)
    entries = []
    for e in qubit.entries:
        x0 = e.pulse[0][0]  # the x-bit picks y (for x and y) or I (for I and z)
        beta = ((x0, x0),) + tuple(e.pulse[1:])
        if beta != identity or e.delta == 1.0:
            entries.append(PulseEntry(e.delta, beta, e.sign))
    return PulseSchedule(scheme="bosonic-homogenization", order=qubit.order,
                         entries=tuple(entries), m=qubit.m, n_system=qubit.n_system)


def homogenization_schedule(n_pulses: int, m: int) -> PulseSchedule:
    """Bosonic homogenization schedule for 2^m modes at suppression order N."""
    _check_m(m)
    return substitute_bosonic(qubit_nudd_schedule(n_pulses, m))


# ---------------------------------------------------------------------------
# Toggling-frame sign functions
# ---------------------------------------------------------------------------


def toggling_sign_function(schedule: PulseSchedule, alpha) -> PiecewiseSignFunction:
    """F_alpha: flips exactly at pulses whose index pairs oddly with alpha.

    For indexed schedules ``alpha`` is a multi-index of matching length; for
    flip schedules it is a bit (0 or 1), pairing 1 with every flip pulse.
    """
    deltas, pulses, _ = schedule.arrays
    if pulses is None:
        if alpha not in (0, 1):
            raise ValueError("flip schedules pair with a scalar Z2 index")
        odd = alpha == 1
    else:
        odd = symplectic_inner_product(alpha, pulses) == 1
    return PiecewiseSignFunction(tuple(deltas[odd & (deltas < 1.0)].tolist()))


def _merge_entries(entries: Iterable[PulseEntry], flip_alphabet: bool) -> list[PulseEntry]:
    """Merge pulses at coincident times (instantaneous pulses compose)."""
    merged: list[PulseEntry] = []
    for e in sorted(entries, key=lambda x: x.delta):
        if merged and abs(e.delta - merged[-1].delta) <= MERGE_TOL:
            prev = merged.pop()
            if flip_alphabet:
                parity = (prev.pulse + e.pulse) % 2
                if parity:
                    merged.append(PulseEntry(prev.delta, FLIP))
                continue
            idx, sign = product_index([e.pulse, prev.pulse])
            if idx == (PAIR_I,) * len(idx) and sign == 1:
                continue
            merged.append(PulseEntry(prev.delta, idx, sign * prev.sign * e.sign))
        else:
            merged.append(e)
    return merged


# ---------------------------------------------------------------------------
# Schedule file format
# ---------------------------------------------------------------------------
#
# One pulse per line: "<delta><TAB><bits>", delta with 17 significant digits.
# For indexed schedules the bits are the index pairs in position order
# (innermost level first), x-bit then z-bit per position, optionally
# prefixed with '-' for a negative merged sign.  Flip schedules use the
# single bit "1".  Header lines: #scheme, #N, #m ("-" for flip schedules),
# plus informational #-lines that readers ignore.


def _pulse_to_bits(pulse: Pulse, sign: int) -> str:
    if isinstance(pulse, int):
        return str(pulse)
    bits = "".join(f"{x}{z}" for x, z in pulse)
    return ("-" + bits) if sign < 0 else bits


def _bits_to_pulse(bits: str, m: int | None) -> tuple[Pulse, int]:
    """Inverse of _pulse_to_bits: the flip bit when m is None, else m+1 pairs."""
    if m is None:
        if bits != str(FLIP):
            raise ValueError(f"malformed flip pulse {bits!r}, expected {FLIP}")
        return FLIP, 1
    sign = -1 if bits.startswith("-") else 1
    bits = bits.removeprefix("-")
    if len(bits) != 2 * (m + 1) or set(bits) - {"0", "1"}:
        raise ValueError(f"malformed pulse bits {bits!r}, expected 2(m+1) = "
                         f"{2 * (m + 1)} bits of 0/1")
    pairs = tuple((int(bits[2 * i]), int(bits[2 * i + 1]))
                  for i in range(len(bits) // 2))
    return pairs, sign


def write_schedule(schedule: PulseSchedule, stream: IO[str]) -> None:
    stream.write(f"#scheme {schedule.scheme}\n")
    stream.write(f"#N {schedule.order}\n")
    stream.write(f"#m {'-' if schedule.m is None else schedule.m}\n")
    if schedule.n_system is not None:
        stream.write(f"#nS {schedule.n_system}\n")
    stream.write("# bits: index pairs innermost-level first, x-bit then z-bit"
                 " per position; flip schedules use the single bit 1\n")
    for e in schedule.entries:
        stream.write(f"{e.delta:.17g}\t{_pulse_to_bits(e.pulse, e.sign)}\n")


def read_schedule(stream: IO[str]) -> PulseSchedule:
    """Parse a schedule file; a malformed line raises ValueError naming it."""
    scheme, order, m, n_system = "unknown", 0, None, None
    entries = []
    for lineno, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                parts = line[1:].split(None, 1)
                if len(parts) != 2:
                    continue
                key, value = parts
                if key == "scheme":
                    scheme = value
                elif key == "N":
                    order = int(value)
                elif key == "m" and value != "-":
                    m = int(value)
                elif key == "nS":
                    n_system = int(value)
                continue
            delta_str, tab, bits = line.partition("\t")
            if not tab:
                raise ValueError("expected <delta><TAB><bits>")
            delta = float(delta_str)
            if not 0.0 < delta <= 1.0:
                raise ValueError(f"pulse time {delta_str} outside (0, 1]")
            if entries and delta <= entries[-1].delta:
                raise ValueError("pulse times must be strictly increasing")
            pulse, sign = _bits_to_pulse(bits, m)
            if scheme == "bosonic-homogenization" and pulse[0] not in (PAIR_I, PAIR_Y):
                raise ValueError(f"homogenization pulse {bits!r} has a_0 outside {{I, y}}")
            entries.append(PulseEntry(delta, pulse, sign))
        except ValueError as exc:
            raise ValueError(f"schedule line {lineno}: {exc}") from exc
    return PulseSchedule(scheme=scheme, order=order, entries=tuple(entries),
                         m=m, n_system=n_system)
