"""Sparse linear algebra over a truncated multimode bosonic Fock space.

States are finite complex combinations of occupation-number patterns
``|n_0, n_1, ..., n_{M-1}>`` with a bound on the *total* photon number.
Everything here is a pure function over immutable values; the sparse
representation keeps only patterns whose amplitude survives the drop
tolerance, so catalogs of weak-source states stay tiny even though the
ambient space grows combinatorially.

Mode-ordering conventions used by the rest of the package:

* two-mode (receiver-side) states are ``(vertical, horizontal)``;
* four-mode (two-arm) states are ``(sender-V, sender-H, receiver-V,
  receiver-H)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping

N_MAX_DEFAULT = 6
EPS_AMP = 1e-15   # amplitudes below this magnitude are dropped
EPS_NORM = 1e-12  # vectors with norm at or below this are "numerically zero"

Pattern = tuple[int, ...]


class FockError(ValueError):
    """Base class for errors raised by this package's state algebra."""


class DimensionMismatch(FockError):
    """Operands disagree on mode count, or a mode index is out of range."""


class TruncationOverflow(FockError):
    """A construction would exceed the total-photon truncation bound."""


class NearZeroVector(FockError):
    """Normalization was requested for a numerically zero vector."""


def _check_pattern(pattern: Pattern, mode_count: int, n_max: int) -> None:
    if len(pattern) != mode_count:
        raise DimensionMismatch(
            f"pattern {pattern} has {len(pattern)} modes, expected {mode_count}"
        )
    if any(n < 0 for n in pattern):
        raise FockError(f"negative occupation in pattern {pattern}")
    if sum(pattern) > n_max:
        raise TruncationOverflow(
            f"pattern {pattern} holds {sum(pattern)} photons, bound is {n_max}"
        )


@dataclass(frozen=True)
class FockVector:
    """A sparse Fock-space vector: pattern -> complex amplitude.

    Instances are value-like and treated as immutable; all operations
    return new vectors.  Construction validates patterns against
    ``mode_count`` and ``n_max`` and drops amplitudes below ``EPS_AMP``.
    """

    mode_count: int
    n_max: int
    amps: Mapping[Pattern, complex]

    def __post_init__(self) -> None:
        if self.mode_count < 1:
            raise FockError("mode_count must be positive")
        kept: dict[Pattern, complex] = {}
        mode_count, n_max = self.mode_count, self.n_max
        for pattern, amp in self.amps.items():
            pattern = tuple(map(int, pattern))
            if len(pattern) != mode_count or min(pattern) < 0 or sum(pattern) > n_max:
                _check_pattern(pattern, mode_count, n_max)  # raises, naming the fault
            amp = complex(amp)
            if not cmath.isfinite(amp):
                raise FockError(f"non-finite amplitude at {pattern}")
            if abs(amp) >= EPS_AMP:
                kept[pattern] = kept.get(pattern, 0.0) + amp
        object.__setattr__(self, "amps", kept)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_terms(
        mode_count: int,
        terms: Mapping[Pattern, complex] | Iterable[tuple[Pattern, complex]],
        n_max: int = N_MAX_DEFAULT,
    ) -> "FockVector":
        if not isinstance(terms, Mapping):
            terms = dict(terms)
        return FockVector(mode_count, n_max, dict(terms))

    @staticmethod
    def basis(pattern: Iterable[int], n_max: int = N_MAX_DEFAULT) -> "FockVector":
        pattern = tuple(pattern)
        return FockVector(len(pattern), n_max, {pattern: 1.0})

    # -- inspection ---------------------------------------------------

    def items(self) -> Iterator[tuple[Pattern, complex]]:
        """Iterate (pattern, amplitude) in lexicographic pattern order."""
        for pattern in sorted(self.amps):
            yield pattern, self.amps[pattern]

    def amplitude(self, pattern: Iterable[int]) -> complex:
        return complex(self.amps.get(tuple(pattern), 0.0))

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amps.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def mean_photon(self, mode: int) -> float:
        """Expectation of the photon number in one mode (un-normalized:
        divide by ``norm_sq`` for a state that is not unit norm)."""
        if not 0 <= mode < self.mode_count:
            raise DimensionMismatch(f"mode {mode} out of range")
        return sum(p[mode] * abs(a) ** 2 for p, a in self.amps.items())

    def dump_lines(self) -> list[str]:
        """Serialize as ``pattern TAB re TAB im`` lines, lex-sorted."""
        lines = []
        for pattern, amp in self.items():
            name = ",".join(str(n) for n in pattern)
            lines.append(f"{name}\t{amp.real:.17g}\t{amp.imag:.17g}")
        return lines

    # -- linear structure --------------------------------------------

    def _require_same_shape(self, other: "FockVector") -> None:
        if self.mode_count != other.mode_count:
            raise DimensionMismatch(
                f"mode counts differ: {self.mode_count} vs {other.mode_count}"
            )

    def __add__(self, other: "FockVector") -> "FockVector":
        self._require_same_shape(other)
        out = dict(self.amps)
        for p, a in other.amps.items():
            out[p] = out.get(p, 0.0) + a
        return FockVector(self.mode_count, max(self.n_max, other.n_max), out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FockVector":
        return FockVector(
            self.mode_count, self.n_max, {p: a * scalar for p, a in self.amps.items()}
        )

    __rmul__ = __mul__


@dataclass(frozen=True)
class WeightedState:
    """A normalized state together with the probability of reaching it.

    ``state`` is None exactly when ``weight`` is (numerically) zero:
    the branch exists in the bookkeeping but carries no amplitude.
    """

    state: FockVector | None
    weight: float


def inner_product(u: FockVector, v: FockVector) -> complex:
    """Hermitian inner product <u|v> over the shared sparse support."""
    u._require_same_shape(v)
    # iterate the smaller support
    small, big, conj_small = (
        (u, v, True) if len(u.amps) <= len(v.amps) else (v, u, False)
    )
    acc = 0.0 + 0.0j
    for p, a in small.amps.items():
        b = big.amps.get(p)
        if b is not None:
            acc += (a.conjugate() * b) if conj_small else (b.conjugate() * a)
    return acc


def normalize(v: FockVector) -> tuple[FockVector, float]:
    """Return (unit vector, original squared norm).

    The global phase is fixed canonically: the first nonzero amplitude in
    lexicographic pattern order is made real and positive.  The squared
    norm is returned so callers can keep probability bookkeeping exact.
    """
    nsq = v.norm_sq()
    if math.sqrt(nsq) <= EPS_NORM:
        raise NearZeroVector("cannot normalize a numerically zero vector")
    first = min(v.amps)
    lead = v.amps[first]
    phase = lead / abs(lead)
    scale = phase.conjugate() / math.sqrt(nsq)
    return v * scale, nsq


def rotate_modes(v: FockVector, i: int, j: int, theta: float) -> FockVector:
    """Two-mode rotation acting on creation operators.

    Applies  a+_i -> cos(theta) a+_i + sin(theta) a+_j  and
    a+_j -> -sin(theta) a+_i + cos(theta) a+_j, re-expanding each
    occupation pattern binomially.  Norm-preserving; rotating by theta and
    then -theta is the identity.  Photon number in modes (i, j) jointly is
    conserved, so the truncation bound is never exceeded.

    Args:
        v: input state.
        i, j: distinct mode indices defining the rotation plane.
        theta: rotation angle in radians.
    """
    if i == j:
        raise DimensionMismatch("rotation requires two distinct modes")
    for m in (i, j):
        if not 0 <= m < v.mode_count:
            raise DimensionMismatch(f"mode {m} out of range")
    c, s = math.cos(theta), math.sin(theta)
    out: dict[Pattern, complex] = {}
    for pattern, amp in v.amps.items():
        ni, nj = pattern[i], pattern[j]
        # |ni, nj> = (a+_i)^ni (a+_j)^nj / sqrt(ni! nj!) |0>
        base = amp / math.sqrt(math.factorial(ni) * math.factorial(nj))
        for p in range(ni + 1):
            coeff_i = math.comb(ni, p) * (c ** p) * (s ** (ni - p))
            for q in range(nj + 1):
                coeff_j = math.comb(nj, q) * ((-s) ** q) * (c ** (nj - q))
                mi = p + q
                mj = ni + nj - p - q
                new_amp = (
                    base
                    * coeff_i
                    * coeff_j
                    * math.sqrt(math.factorial(mi) * math.factorial(mj))
                )
                new_pattern = list(pattern)
                new_pattern[i] = mi
                new_pattern[j] = mj
                key = tuple(new_pattern)
                out[key] = out.get(key, 0.0) + new_amp
    return FockVector(v.mode_count, v.n_max, out)


def _count_outcomes(
    v: FockVector, modes: tuple[int, ...], wanted: Iterable[Pattern] | None = None
) -> list[tuple[Pattern, WeightedState]]:
    """:func:`project_counts` for each count pattern in ``wanted``, by
    default every one up to the per-mode maxima present in ``v``; one pass
    groups the amplitudes by their counts."""
    if len(set(modes)) != len(modes):
        raise DimensionMismatch("projection modes must be distinct")
    for m in modes:
        if not 0 <= m < v.mode_count:
            raise DimensionMismatch(f"mode {m} out of range")
    total = v.norm_sq()
    if total <= EPS_NORM**2:
        raise NearZeroVector("projection of a numerically zero vector")
    rest = [k for k in range(v.mode_count) if k not in modes]
    groups: dict[Pattern, dict[Pattern, complex]] = {}
    for pattern, amp in v.amps.items():  # the counts and the rest fix a pattern
        reduced = tuple(pattern[k] for k in rest)
        groups.setdefault(tuple(pattern[m] for m in modes), {})[reduced] = amp
    if wanted is None:
        maxima = [max((c[i] for c in groups), default=0) for i in range(len(modes))]
        wanted = product(*(range(n + 1) for n in maxima))
    outcomes = []
    for counts in wanted:
        remainder = FockVector(len(rest), v.n_max, groups.get(counts, {}))
        kept_sq = remainder.norm_sq()
        if math.sqrt(kept_sq) <= EPS_NORM:
            outcome = WeightedState(None, 0.0)
        else:
            outcome = WeightedState(normalize(remainder)[0], kept_sq / total)
        outcomes.append((counts, outcome))
    return outcomes


def project_counts(
    v: FockVector, modes: Iterable[int], counts: Iterable[int]
) -> WeightedState:
    """Project onto fixed photon counts in a subset of modes.

    Keeps only patterns matching ``counts`` on ``modes``, deletes those
    modes from the pattern, and returns the normalized remainder together
    with the outcome probability (squared norm of the kept component
    relative to the squared norm of ``v``).  A zero-probability outcome is
    returned as ``WeightedState(None, 0.0)``.
    """
    modes = tuple(modes)
    counts = tuple(int(n) for n in counts)
    if len(counts) != len(modes):
        raise DimensionMismatch("one target count per projected mode")
    if any(n < 0 for n in counts):
        raise FockError("negative target count")
    return _count_outcomes(v, modes, [counts])[0][1]


def all_count_outcomes(
    v: FockVector, modes: Iterable[int]
) -> list[tuple[Pattern, WeightedState]]:
    """(counts, :func:`project_counts` outcome) for every count pattern
    of ``modes`` up to the per-mode maxima present in ``v``, in
    lexicographic order; zero-probability outcomes are included, so the
    probabilities of a unit-norm input sum to 1.
    """
    return _count_outcomes(v, tuple(modes))


def binomial_thinning(counts: Pattern, keep: float) -> list[tuple[Pattern, float]]:
    """Surviving counts when each photon of ``counts`` is kept independently
    with probability ``keep`` (loss, detector efficiency): mode m keeps d
    photons with probability C(n_m, d) keep^d (1-keep)^(n_m-d).  Returns
    (pattern, probability) pairs in lexicographic order without the
    zero-probability patterns, so ``keep=1`` gives ``[(counts, 1.0)]``."""
    if not 0.0 <= keep <= 1.0:
        raise FockError(f"survival probability {keep} outside [0, 1]")
    per_mode = [
        [math.comb(n, d) * keep**d * (1 - keep) ** (n - d) for d in range(n + 1)]
        for n in counts
    ]
    out = []
    for pattern in product(*(range(n + 1) for n in counts)):
        prob = math.prod(probs[d] for probs, d in zip(per_mode, pattern))
        if prob != 0.0:
            out.append((pattern, prob))
    return out


def apply_loss(v: FockVector, mode: int, t: float) -> list[WeightedState]:
    """Pure-state loss ensemble for one mode, indexed by photons lost.

    Each branch k applies the definite-loss operator: a pattern holding n
    photons in ``mode`` contributes with amplitude factor
    sqrt(C(n, k)) * t**((n-k)/2) * (1-t)**(k/2) and n -> n-k.  Branch
    probabilities are relative to the squared norm of ``v`` and sum to 1.
    Branches with zero probability are omitted.
    """
    if not 0.0 <= t <= 1.0:
        raise FockError(f"transmission {t} outside [0, 1]")
    if not 0 <= mode < v.mode_count:
        raise DimensionMismatch(f"mode {mode} out of range")
    total = v.norm_sq()
    if math.sqrt(total) <= EPS_NORM:
        raise NearZeroVector("loss channel on a numerically zero vector")
    max_n = max((p[mode] for p in v.amps), default=0)
    branches: list[WeightedState] = []
    for k in range(max_n + 1):
        out: dict[Pattern, complex] = {}
        for pattern, amp in v.amps.items():
            n = pattern[mode]
            if n < k:
                continue
            factor = math.sqrt(math.comb(n, k)) * t ** ((n - k) / 2.0) * (
                1.0 - t
            ) ** (k / 2.0)
            if factor == 0.0:
                continue
            new_pattern = list(pattern)
            new_pattern[mode] = n - k
            key = tuple(new_pattern)
            out[key] = out.get(key, 0.0) + amp * factor
        branch = FockVector(v.mode_count, v.n_max, out)
        bsq = branch.norm_sq()
        if math.sqrt(bsq) <= EPS_NORM:
            continue
        unit, _ = normalize(branch)
        branches.append(WeightedState(unit, bsq / total))
    return branches
