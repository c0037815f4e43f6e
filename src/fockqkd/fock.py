"""Dense linear algebra over a truncated multimode bosonic Fock space.

States are complex combinations of occupation-number patterns
``|n_0, n_1, ..., n_{M-1}>`` with a bound on the *total* photon number.
Each mode count M has one fixed index of its C(N_MAX + M, M) patterns in
lexicographic order (28 for two modes, 210 for four), and a vector is one
complex amplitude array over that index.  Each physical step is one
kernel, built on first use and kept in a bounded cache: the count groups
that arrange a vector's amplitudes by their counts on some modes (for a
projection, and for a rotation, which is then the real two-mode rotation
matrix of its cosine and sine times that arrangement), and a thinning
matrix per survival probability.  Loss is a rotation into an empty
environment mode followed by a count there.  Everything here is a pure
function over immutable values.

Mode-ordering conventions used by the rest of the package:

* two-mode (receiver-side) states are ``(vertical, horizontal)``;
* four-mode (two-arm) states are ``(sender-V, sender-H, receiver-V,
  receiver-H)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Mapping

import numpy as np

N_MAX = 6         # bound on the total photon number of every pattern
EPS_AMP = 1e-15   # amplitudes below this magnitude are dropped
EPS_NORM = 1e-12  # vectors with norm at or below this are "numerically zero"
_CACHED = 16      # kernels kept per kernel kind

Pattern = tuple[int, ...]


class FockError(ValueError):
    """Base class for errors raised by this package's state algebra."""


class DimensionMismatch(FockError):
    """Operands disagree on mode count, or a mode index is out of range."""


class TruncationOverflow(FockError):
    """A construction would exceed the total-photon truncation bound."""


class NearZeroVector(FockError):
    """Normalization was requested for a numerically zero vector."""


def _check_pattern(pattern: Pattern, mode_count: int) -> None:
    if len(pattern) != mode_count:
        raise DimensionMismatch(
            f"pattern {pattern} has {len(pattern)} modes, expected {mode_count}"
        )
    if any(n < 0 for n in pattern):
        raise FockError(f"negative occupation in pattern {pattern}")
    if sum(pattern) > N_MAX:
        raise TruncationOverflow(
            f"pattern {pattern} holds {sum(pattern)} photons, bound is {N_MAX}"
        )


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _clean(a: np.ndarray) -> np.ndarray:
    """``a`` read-only, with its amplitudes below EPS_AMP dropped."""
    a[np.abs(a) < EPS_AMP] = 0.0
    return _frozen(a)


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise FockError("non-finite amplitude")
    return a


def _norms_sq(a: np.ndarray) -> np.ndarray:
    """Squared norm of each amplitude row of ``a`` (of ``a`` if 1-D)."""
    return np.square(a.view(float)).sum(axis=-1)


@lru_cache(maxsize=_CACHED)
def pattern_index(mode_count: int):
    """The dense index of ``mode_count`` modes: every pattern within the
    photon bound in lexicographic order, each pattern's position, and the
    patterns as a read-only (patterns, mode_count) integer array."""
    pats: list[Pattern] = [()]
    for _ in range(mode_count):
        pats = [p + (n,) for p in pats for n in range(N_MAX + 1 - sum(p))]
    counts = np.array(pats, dtype=np.int64).reshape(len(pats), mode_count)
    return tuple(pats), {p: k for k, p in enumerate(pats)}, _frozen(counts)


class FockVector:
    """A Fock-space vector: one complex amplitude per pattern of the index
    of its mode count (see :func:`pattern_index`), in the read-only
    ``array``.

    Instances are values; all operations return new vectors.  The mapping
    constructor checks each pattern against ``mode_count`` and the photon
    bound ``N_MAX`` and each amplitude for finiteness.  Amplitudes below
    ``EPS_AMP`` are dropped there and after every operation.  ``amps`` and
    :meth:`items` list the nonzero amplitudes in lexicographic order.
    """

    __slots__ = ("mode_count", "array")

    def __init__(self, mode_count: int, amps: Mapping[Pattern, complex]):
        if mode_count < 1:
            raise FockError("mode_count must be positive")
        _, position, _ = pattern_index(mode_count)
        kept: dict[int, complex] = {}
        for pattern, amp in amps.items():
            pattern = tuple(map(int, pattern))
            if pattern not in position:
                _check_pattern(pattern, mode_count)  # raises, naming the fault
            amp = complex(amp)
            if not cmath.isfinite(amp):
                raise FockError(f"non-finite amplitude at {pattern}")
            if abs(amp) >= EPS_AMP:
                kept[position[pattern]] = kept.get(position[pattern], 0.0) + amp
        array = np.zeros(len(position), dtype=complex)
        array[list(kept)] = list(kept.values())
        self.mode_count, self.array = mode_count, _frozen(array)

    @classmethod
    def _of(cls, mode_count: int, array: np.ndarray) -> "FockVector":
        """Wrap an amplitude array over the index, unchecked (see _clean)."""
        v = object.__new__(cls)
        v.mode_count, v.array = mode_count, array
        return v

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_terms(
        mode_count: int,
        terms: Mapping[Pattern, complex] | Iterable[tuple[Pattern, complex]],
    ) -> "FockVector":
        return FockVector(mode_count, dict(terms))

    # -- inspection ---------------------------------------------------

    def items(self) -> Iterator[tuple[Pattern, complex]]:
        """Iterate (pattern, amplitude) in lexicographic pattern order."""
        pats = pattern_index(self.mode_count)[0]
        for k in np.flatnonzero(self.array):
            yield pats[k], complex(self.array[k])

    @property
    def amps(self) -> dict[Pattern, complex]:
        return dict(self.items())

    def amplitude(self, pattern: Iterable[int]) -> complex:
        k = pattern_index(self.mode_count)[1].get(tuple(pattern))
        return 0j if k is None else complex(self.array[k])

    def norm_sq(self) -> float:
        return float(_norms_sq(self.array))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def dump_lines(self) -> list[str]:
        """Serialize as ``pattern TAB re TAB im`` lines, lex-sorted."""
        lines = []
        for pattern, amp in self.items():
            name = ",".join(str(n) for n in pattern)
            amp += 0.0  # a negative zero part prints as 0
            lines.append(f"{name}\t{amp.real:.17g}\t{amp.imag:.17g}")
        return lines

    def __repr__(self) -> str:
        return f"FockVector({self.mode_count}, {self.amps!r})"

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, FockVector) and self.mode_count == other.mode_count
        return same and np.array_equal(self.array, other.array)

    # -- linear structure --------------------------------------------

    def _require_same_shape(self, other: "FockVector") -> None:
        if self.mode_count != other.mode_count:
            raise DimensionMismatch(
                f"mode counts differ: {self.mode_count} vs {other.mode_count}"
            )

    def __add__(self, other: "FockVector") -> "FockVector":
        self._require_same_shape(other)
        with np.errstate(over="ignore", invalid="ignore"):  # _finite raises instead
            array = _finite(self.array + other.array)
        return FockVector._of(self.mode_count, _clean(array))

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FockVector":
        with np.errstate(over="ignore", invalid="ignore"):  # _finite raises instead
            array = _finite(self.array * complex(scalar))
        return FockVector._of(self.mode_count, _clean(array))

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
    """Hermitian inner product <u|v>."""
    u._require_same_shape(v)
    return complex(np.vdot(u.array, v.array))


def normalize(v: FockVector) -> tuple[FockVector, float]:
    """Return (unit vector, original squared norm).

    The global phase is fixed canonically: the first nonzero amplitude in
    lexicographic pattern order is made real and positive.  The squared
    norm is returned so callers can keep probability bookkeeping exact.
    """
    units, nsq = normalize_rows(v.array[None])
    return FockVector._of(v.mode_count, units[0]), float(nsq[0])


def normalize_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """:func:`normalize` for each row of an amplitude matrix, in one pass:
    the read-only unit rows and the squared norms; amplitudes below
    ``EPS_AMP`` are dropped first."""
    rows = _clean(_finite(np.array(rows, dtype=complex)))
    root = np.sqrt(nsq := _norms_sq(rows))
    if (root <= EPS_NORM).any():
        raise NearZeroVector("cannot normalize a numerically zero vector")
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    size = np.abs(lead)
    scale = lead.real / size / root - 1j * (lead.imag / size / root)
    return _clean(rows * scale[:, None]), nsq


@lru_cache(maxsize=_CACHED)
def rotation_matrix(c: float, s: float) -> np.ndarray:
    """The real matrix on the two-mode index (read-only) of the rotation
    a+_0 -> c a+_0 + s a+_1, a+_1 -> -s a+_0 + c a+_1, for c² + s² = 1
    (see :func:`rotate_modes`): column k is pattern k rotated, entries
    below ``EPS_AMP`` dropped."""
    pats, position, _ = pattern_index(2)
    r = np.zeros((len(pats), len(pats)))
    for k, (ni, nj) in enumerate(pats):
        # |ni, nj> = (a+_i)^ni (a+_j)^nj / sqrt(ni! nj!) |0>
        base = 1.0 / math.sqrt(math.factorial(ni) * math.factorial(nj))
        for p in range(ni + 1):
            coeff_i = math.comb(ni, p) * (c ** p) * (s ** (ni - p))
            for q in range(nj + 1):
                coeff_j = math.comb(nj, q) * ((-s) ** q) * (c ** (nj - q))
                mi, mj = p + q, ni + nj - p - q
                norm = math.sqrt(math.factorial(mi) * math.factorial(mj))
                r[position[mi, mj], k] += base * coeff_i * coeff_j * norm
    r[np.abs(r) < EPS_AMP] = 0.0
    return _frozen(r)


@lru_cache(maxsize=_CACHED)
def _count_groups(mode_count: int, modes: tuple[int, ...]):
    """Per pattern of the index: the position of its counts on ``modes``
    in their own index (a row) and that of the pattern of the other modes
    (a column); then the (rows, columns) shape these span."""
    rest = [k for k in range(mode_count) if k not in modes]
    counts, reduced = pattern_index(len(modes))[1], pattern_index(len(rest))[1]
    pats = pattern_index(mode_count)[0]
    return (
        _frozen(np.array([counts[tuple(p[m] for m in modes)] for p in pats])),
        _frozen(np.array([reduced[tuple(p[k] for k in rest)] for p in pats])),
        (len(counts), len(reduced)),
    )


def _grouped(v: FockVector, modes: tuple[int, ...]):
    """``v``'s amplitudes as a matrix with one row per count pattern of
    ``modes`` and one column per pattern of the other modes, and the
    cached count groups that placed them."""
    group, reduced, shape = _count_groups(v.mode_count, modes)
    rows = np.zeros(shape, dtype=complex)
    rows[group, reduced] = v.array
    return rows, group, reduced


def rotate_modes(v: FockVector, i: int, j: int, theta: float) -> FockVector:
    """Two-mode rotation acting on creation operators.

    Applies  a+_i -> cos(theta) a+_i + sin(theta) a+_j  and
    a+_j -> -sin(theta) a+_i + cos(theta) a+_j, re-expanding each
    occupation pattern binomially: the cached :func:`rotation_matrix`
    times the amplitudes grouped by their counts on (i, j).
    Norm-preserving; rotating by theta and then -theta is the identity.
    Photon number in modes (i, j) jointly is conserved, so the truncation
    bound is never exceeded.  ``i`` and ``j`` are distinct modes;
    ``theta`` is in radians.
    """
    if i == j:
        raise DimensionMismatch("rotation requires two distinct modes")
    for m in (i, j):
        if not 0 <= m < v.mode_count:
            raise DimensionMismatch(f"mode {m} out of range")
    return _turn(v, i, j, math.cos(theta), math.sin(theta))


def _turn(v: FockVector, i: int, j: int, c: float, s: float) -> FockVector:
    """``v`` with modes (i, j) turned by the :func:`rotation_matrix` of
    (c, s), applied to its amplitudes grouped by their counts on (i, j)."""
    rows, group, reduced = _grouped(v, (i, j))
    # a real matrix times the (re, im) columns of the amplitudes
    turned = (rotation_matrix(c, s) @ rows.view(float)).view(complex)
    return FockVector._of(v.mode_count, _clean(turned[group, reduced]))


def count_branches(v: FockVector, modes: Iterable[int]):
    """Count the photons in ``modes`` of ``v``: the ascending positions in
    the index of ``len(modes)`` modes of the count patterns that occur (one
    scatter by the cached count groups, rows of norm above ``EPS_NORM``),
    the unit amplitude rows of the other modes after each (see
    :func:`normalize_rows`), and each one's probability relative to the
    squared norm of ``v``."""
    modes = tuple(modes)
    if len(set(modes)) != len(modes):
        raise DimensionMismatch("projection modes must be distinct")
    for m in modes:
        if not 0 <= m < v.mode_count:
            raise DimensionMismatch(f"mode {m} out of range")
    total = v.norm_sq()
    if total <= EPS_NORM**2:
        raise NearZeroVector("projection of a numerically zero vector")
    rows = _grouped(v, modes)[0]
    live = np.flatnonzero(np.sqrt(_norms_sq(rows)) > EPS_NORM)
    units, nsq = normalize_rows(rows[live])
    return live, units, nsq / total


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
    return dict(all_count_outcomes(v, modes)).get(counts, WeightedState(None, 0.0))


def all_count_outcomes(
    v: FockVector, modes: Iterable[int]
) -> list[tuple[Pattern, WeightedState]]:
    """(counts, :func:`project_counts` outcome) for every count pattern
    of ``modes`` up to the per-mode maxima present in ``v``, in
    lexicographic order, read from :func:`count_branches`; zero-probability
    outcomes are included, so the probabilities of a unit-norm input sum
    to 1.
    """
    modes = tuple(modes)
    index, units, probs = count_branches(v, modes)
    found = {k: (FockVector._of(v.mode_count - len(modes), u), p)
             for k, u, p in zip(index.tolist(), units, probs.tolist())}
    _, position, counts = pattern_index(len(modes))
    group = _count_groups(v.mode_count, modes)[0]
    maxima = counts[group[v.array != 0]].max(axis=0)
    return [
        (c, WeightedState(*found.get(position.get(c, -1), (None, 0.0))))
        for c in product(*(range(n + 1) for n in maxima))
    ]


@lru_cache(maxsize=_CACHED)
def thinning_matrix(mode_count: int, keep: float) -> np.ndarray:
    """Binomial thinning on the index as a read-only matrix: each photon is
    kept independently with probability ``keep`` (loss, detector
    efficiency), so entry (true, kept) is the product over modes m of
    C(n_m, d_m) keep^d_m (1-keep)^(n_m-d_m), the probability that pattern
    ``true`` = n thins to ``kept`` = d."""
    if not 0.0 <= keep <= 1.0:
        raise FockError(f"survival probability {keep} outside [0, 1]")
    table = np.zeros((N_MAX + 1, N_MAX + 1))  # (n, d): d of n photons kept
    for n in range(N_MAX + 1):
        for d in range(n + 1):
            table[n, d] = math.comb(n, d) * keep**d * (1 - keep) ** (n - d)
    c = pattern_index(mode_count)[2]  # one gather per mode, multiplied in mode order
    gathers = (table[c[:, m, None], c[None, :, m]] for m in range(mode_count))
    return _frozen(math.prod(gathers))


def apply_loss(v: FockVector, mode: int, t: float) -> list[WeightedState]:
    """Pure-state loss ensemble for one mode, indexed by photons lost.

    Loss is a beam splitter: an empty environment mode is appended and
    turned with ``mode`` by cosine sqrt(t) and sine sqrt(1-t), and
    branch k is the outcome of counting k photons there (see
    :func:`count_branches`).  A pattern holding n photons in ``mode``
    keeps n-k of them, its amplitude scaled by the square root of
    C(n, k) t^(n-k) (1-t)^k, the probability of keeping n-k with survival
    ``t``.  Branches come in increasing k; their probabilities are relative
    to the squared norm of ``v`` and sum to 1.  Branches with zero
    probability are omitted.
    """
    if not 0.0 <= t <= 1.0:
        raise FockError(f"transmission {t} outside [0, 1]")
    if not 0 <= mode < v.mode_count:
        raise DimensionMismatch(f"mode {mode} out of range")
    env = v.mode_count
    wide = FockVector(env + 1, {p + (0,): a for p, a in v.items()})
    split = _turn(wide, mode, env, math.sqrt(t), math.sqrt(1 - t))
    _, units, probs = count_branches(split, (env,))
    return [WeightedState(FockVector._of(env, u), p)
            for u, p in zip(units, probs.tolist())]
