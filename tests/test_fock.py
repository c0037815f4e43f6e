"""Core state-algebra tests.

The rotation tests check the cached rotation matrix (a binomial
re-expansion) against an independent dense-matrix oracle (matrix
exponential of the two-mode rotation generator, on two modes and on the
sender's two of four), so the two routes share no code.
"""

import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import fockqkd.fock as fock_mod
from fockqkd.fock import (
    N_MAX,
    DimensionMismatch,
    FockError,
    FockVector,
    NearZeroVector,
    TruncationOverflow,
    all_count_outcomes,
    apply_loss,
    binomial_thinning,
    count_branches,
    inner_product,
    normalize,
    normalize_rows,
    pattern_index,
    project_counts,
    rotate_modes,
    thinning_matrix,
)
from fockqkd.sources import MEASUREMENT_ANGLE, SourceParams, pdc_modified_singlet

SQ2 = math.sqrt(2.0)


def random_state(rng, mode_count=2, n_max=6, n_terms=5):
    """Random sparse state with bounded total photon number."""
    amps = {}
    for _ in range(n_terms):
        while True:
            pattern = tuple(int(rng.integers(0, n_max + 1)) for _ in range(mode_count))
            if sum(pattern) <= n_max:
                break
        amps[pattern] = complex(rng.normal(), rng.normal())
    return FockVector.from_terms(mode_count, amps)


# ---------------------------------------------------------------- construction


@pytest.mark.parametrize("pattern, amp, error, reason", [
    ((1,), 1.0, DimensionMismatch, "has 1 modes, expected 2"),
    ((), 1.0, DimensionMismatch, "has 0 modes, expected 2"),
    ((1, 1, 0), 1.0, DimensionMismatch, "has 3 modes, expected 2"),
    ((2, -1), 1.0, FockError, "negative occupation"),
    ((4, 3), 1.0, TruncationOverflow, "holds 7 photons, bound is 6"),
    ((1, 0), math.nan, FockError, "non-finite amplitude"),
    ((1, 0), complex(0.0, math.inf), FockError, "non-finite amplitude"),
])
def test_construction_rejects_each_fault(pattern, amp, error, reason):
    with pytest.raises(error, match=reason) as exc:
        FockVector(2, {(0, 0): 1.0, pattern: amp})
    assert type(exc.value) is error


def test_construction_keeps_valid_patterns_as_integer_tuples():
    v = FockVector(2, {(np.int64(3), 3.0): 0.5, (0, 6): 1e-16, (6, 0): 2})
    assert v.amps == {(3, 3): 0.5, (6, 0): 2}
    assert all(type(n) is int for p in v.amps for n in p)


# ---------------------------------------------------------------- inner product


def test_inner_product_orthonormal_basis():
    v10 = FockVector.basis((1, 0))
    v01 = FockVector.basis((0, 1))
    assert inner_product(v10, v10) == pytest.approx(1.0)
    assert inner_product(v10, v01) == pytest.approx(0.0)


def test_inner_product_diagonal_kets_orthogonal():
    plus = FockVector.from_terms(2, {(1, 0): 1 / SQ2, (0, 1): 1 / SQ2})
    minus = FockVector.from_terms(2, {(1, 0): 1 / SQ2, (0, 1): -1 / SQ2})
    assert abs(inner_product(plus, minus)) < 1e-15


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(25):
        u = random_state(rng)
        v = random_state(rng)
        assert inner_product(u, v) == pytest.approx(
            inner_product(v, u).conjugate(), abs=1e-12
        )


def test_inner_product_mode_mismatch():
    with pytest.raises(DimensionMismatch):
        inner_product(FockVector.basis((1, 0)), FockVector.basis((1, 0, 0)))


# ------------------------------------------------------------------- normalize


def test_normalize_single_term_weight():
    chi = 0.2
    v = FockVector.from_terms(2, {(1, 0): chi / 2})
    unit, wsq = normalize(v)
    assert wsq == pytest.approx(0.01, abs=1e-15)
    assert unit.amplitude((1, 0)) == pytest.approx(1.0)


def test_normalize_two_term_weight():
    v = FockVector.from_terms(2, {(1, 0): 1.0, (0, 1): 1.0})
    unit, wsq = normalize(v)
    assert wsq == pytest.approx(2.0, abs=1e-14)
    assert unit.amplitude((1, 0)) == pytest.approx(1 / SQ2)


def test_normalize_phase_convention_sign_flip():
    # leading (lexicographically first) amplitude is made real positive
    v = FockVector.from_terms(2, {(0, 1): -0.3, (1, 2): 0.1})
    unit, _ = normalize(v)
    assert unit.amplitude((0, 1)).real > 0
    assert unit.amplitude((0, 1)).imag == pytest.approx(0.0, abs=1e-16)
    assert unit.amplitude((1, 2)).real < 0


def test_normalize_phase_convention_complex():
    v = FockVector.from_terms(2, {(1, 0): 0.5j, (0, 2): 0.25})
    unit, _ = normalize(v)
    lead = unit.amplitude((0, 2))  # (0,2) sorts before (1,0)
    assert lead.imag == pytest.approx(0.0, abs=1e-15)
    assert lead.real > 0
    assert unit.norm() == pytest.approx(1.0, abs=1e-14)


def test_normalize_zero_vector_raises():
    with pytest.raises(NearZeroVector):
        normalize(FockVector.from_terms(2, {}))


# -------------------------------------------------------------------- rotation


def dense_space(n_max, modes=2):
    """All patterns of ``modes`` modes with total photons <= n_max, lex order."""
    return [p for p in product(range(n_max + 1), repeat=modes) if sum(p) <= n_max]


def dense_rotation_matrix(n_max, theta, modes=2):
    """Oracle: U = expm(theta (a+_j a_i - a+_i a_j)) on the truncated space,
    for i, j = 0, 1 (the other modes pass through).

    This generator reproduces a+_i -> cos a+_i + sin a+_j and
    a+_j -> -sin a+_i + cos a+_j on states built from the vacuum.
    """
    basis = dense_space(n_max, modes)
    index = {p: k for k, p in enumerate(basis)}
    dim = len(basis)
    g = np.zeros((dim, dim))
    for (a, b, *rest), k in index.items():
        # a+_j a_i term: (a, b) -> (a-1, b+1) with sqrt(a (b+1))
        if a >= 1:
            g[index[(a - 1, b + 1, *rest)], k] += math.sqrt(a * (b + 1))
        # -a+_i a_j term: (a, b) -> (a+1, b-1) with -sqrt(b (a+1))
        if b >= 1:
            g[index[(a + 1, b - 1, *rest)], k] -= math.sqrt(b * (a + 1))
    return expm(theta * g), basis, index


def to_dense(v, basis, index):
    out = np.zeros(len(basis), dtype=complex)
    for p, a in v.items():
        out[index[p]] = a
    return out


def test_rotate_single_photon_splits_equally():
    rotated = rotate_modes(FockVector.basis((1, 0)), 0, 1, math.pi / 4)
    assert rotated.amplitude((1, 0)) == pytest.approx(1 / SQ2, abs=1e-15)
    assert rotated.amplitude((0, 1)) == pytest.approx(1 / SQ2, abs=1e-15)


def test_rotate_two_photon_binomial():
    rotated = rotate_modes(FockVector.basis((2, 0)), 0, 1, math.pi / 4)
    assert rotated.amplitude((2, 0)) == pytest.approx(0.5, abs=1e-15)
    assert rotated.amplitude((1, 1)) == pytest.approx(1 / SQ2, abs=1e-15)
    assert rotated.amplitude((0, 2)) == pytest.approx(0.5, abs=1e-15)


def test_rotate_zero_angle_identity():
    rng = np.random.default_rng(3)
    v = random_state(rng)
    w = rotate_modes(v, 0, 1, 0.0)
    assert (w - v).norm() < 1e-14


def test_rotate_matches_dense_oracle():
    # two modes at three angles, and the sender's heralding rotation: modes
    # (0, 1) of four (210 patterns) at both measurement angles
    rng = np.random.default_rng(5)
    n_max = 6
    singlet = pdc_modified_singlet(SourceParams(kind="pdc", amplitude=0.1))
    cases = [(2, theta) for theta in (0.3, -math.pi / 4, 1.9)]
    cases += [(4, theta) for theta in MEASUREMENT_ANGLE.values()]
    for modes, theta in cases:
        u_mat, basis, index = dense_rotation_matrix(n_max, theta, modes)
        assert len(basis) == {2: 28, 4: 210}[modes]
        states = [random_state(rng, mode_count=modes, n_max=n_max) for _ in range(8)]
        for v in states + ([singlet] if modes == 4 else []):
            expected = u_mat @ to_dense(v, basis, index)
            got = to_dense(rotate_modes(v, 0, 1, theta), basis, index)
            assert np.allclose(got, expected, atol=1e-12)


def test_rotate_norm_preserving_and_invertible():
    rng = np.random.default_rng(13)
    for _ in range(30):
        v = random_state(rng)
        theta = rng.uniform(-math.pi, math.pi)
        w = rotate_modes(v, 0, 1, theta)
        assert w.norm() == pytest.approx(v.norm(), abs=1e-12)
        back = rotate_modes(w, 0, 1, -theta)
        assert (back - v).norm() < 1e-12


_MODE_PAIRS = [
    (modes, i, j) for modes in (2, 3, 4) for i in range(modes) for j in range(modes)
    if i != j
]


@pytest.mark.parametrize("modes, i, j", _MODE_PAIRS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), theta=st.floats(-math.pi, math.pi))
def test_rotate_every_mode_pair_is_unitary(modes, i, j, seed, theta):
    # every ordered pair, reversed and non-adjacent ones included
    rng = np.random.default_rng(seed)
    u, v = (random_state(rng, mode_count=modes) for _ in range(2))
    u, v = u * (1.0 / u.norm()), v * (1.0 / v.norm())
    ru, rv = rotate_modes(u, i, j, theta), rotate_modes(v, i, j, theta)
    assert abs(inner_product(ru, rv) - inner_product(u, v)) <= 1e-12
    assert (rotate_modes(rv, i, j, -theta) - v).norm() <= 1e-12
    assert (rotate_modes(v, j, i, theta) - rotate_modes(v, i, j, -theta)).norm() <= 1e-12


def test_rotate_untouched_modes_pass_through():
    v = FockVector.from_terms(4, {(1, 0, 1, 0): 1.0})
    w = rotate_modes(v, 2, 3, math.pi / 4)
    assert w.amplitude((1, 0, 1, 0)) == pytest.approx(1 / SQ2)
    assert w.amplitude((1, 0, 0, 1)) == pytest.approx(1 / SQ2)


def test_rotate_same_mode_rejected():
    with pytest.raises(DimensionMismatch):
        rotate_modes(FockVector.basis((1, 0)), 0, 0, 0.1)


# ------------------------------------------------------------------ projection


def test_project_ideal_singlet_branch():
    v = FockVector.from_terms(
        4, {(0, 1, 1, 0): 1 / SQ2, (1, 0, 0, 1): -1 / SQ2}
    )
    outcome = project_counts(v, (0, 1), (0, 1))
    assert outcome.weight == pytest.approx(0.5, abs=1e-14)
    assert outcome.state.amplitude((1, 0)) == pytest.approx(1.0)


def test_project_no_support_gives_null_flag():
    v = FockVector.basis((0, 1, 1, 0))
    outcome = project_counts(v, (0, 1), (1, 0))
    assert outcome.weight == 0.0
    assert outcome.state is None


def test_project_completeness_random_states():
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = random_state(rng, mode_count=4, n_max=4, n_terms=6)
        unit, _ = normalize(v)
        outcomes = all_count_outcomes(unit, (0, 1))
        total = sum(w.weight for _, w in outcomes)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_project_weight_relative_to_input_norm():
    # an un-normalized input still reports a probability, not a raw norm
    v = FockVector.from_terms(4, {(0, 1, 1, 0): 2.0, (1, 0, 0, 1): -2.0})
    outcome = project_counts(v, (0, 1), (0, 1))
    assert outcome.weight == pytest.approx(0.5, abs=1e-14)


def _scan_one_count(v, modes, counts):
    """Reference projection: one scan of every amplitude per count pattern."""
    kept = {}
    for pattern, amp in v.amps.items():
        if all(pattern[m] == n for m, n in zip(modes, counts)):
            reduced = tuple(pattern[k] for k in range(v.mode_count) if k not in modes)
            kept[reduced] = kept.get(reduced, 0.0) + amp
    remainder = FockVector(v.mode_count - len(modes), kept)
    kept_sq = remainder.norm_sq()
    if math.sqrt(kept_sq) <= 1e-12:
        return None, 0.0
    return normalize(remainder)[0], kept_sq / v.norm_sq()


def _singlet_rotated():
    singlet = pdc_modified_singlet(SourceParams(kind="pdc", amplitude=0.1))
    return rotate_modes(singlet, 0, 1, -math.pi / 4)


@pytest.mark.parametrize("modes", [(0, 1), (2, 3), (1, 3), (3, 0), (2,)])
def test_grouped_outcomes_equal_the_per_count_scan_bitwise(modes):
    rng = np.random.default_rng(5)
    states = [_singlet_rotated()]
    states += [random_state(rng, mode_count=4, n_max=4, n_terms=9) for _ in range(10)]
    for v in states:
        outcomes = all_count_outcomes(v, modes)
        maxima = [max(p[m] for p in v.amps) for m in modes]
        assert [c for c, _ in outcomes] == list(
            product(*(range(n + 1) for n in maxima))
        )
        for counts, got in outcomes:
            state, weight = _scan_one_count(v, modes, counts)
            assert got.weight == weight
            if state is None:
                assert got.state is None
            else:
                assert list(got.state.amps.items()) == list(state.amps.items())
            assert project_counts(v, modes, counts) == got
        # a count beyond the support is a zero-probability outcome
        beyond = project_counts(v, modes, [n + 1 for n in maxima])
        assert (beyond.state, beyond.weight) == (None, 0.0)


@pytest.mark.parametrize("mode_count", [2, 3, 4])
def test_count_branches_agree_with_all_count_outcomes(mode_count):
    rng = np.random.default_rng(23 + mode_count)
    for _ in range(10):
        v = random_state(rng, mode_count=mode_count, n_terms=7)
        width = int(rng.integers(1, mode_count))
        modes = tuple(int(m) for m in rng.permutation(mode_count)[:width])
        index, units, probs = count_branches(v, modes)
        assert len(index) == len(units) == len(probs)
        position = pattern_index(len(modes))[1]
        occurring = [
            (position[c], got.state, got.weight)
            for c, got in all_count_outcomes(v, modes)
            if got.state is not None
        ]
        assert index.tolist() == [k for k, _, _ in occurring]
        assert units == [u for _, u, _ in occurring]
        assert probs.tolist() == [w for _, _, w in occurring]
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_projection_errors():
    v = FockVector.basis((0, 1, 1, 0))
    for modes, counts in (((0, 0), (0, 0)), ((0, 4), (0, 0)), ((0, 1), (0,))):
        with pytest.raises(DimensionMismatch):
            project_counts(v, modes, counts)
    with pytest.raises(FockError):
        project_counts(v, (0, 1), (0, -1))
    with pytest.raises(DimensionMismatch):
        all_count_outcomes(v, (-1,))
    zero = FockVector(4, {})
    with pytest.raises(NearZeroVector):
        project_counts(zero, (0,), (0,))
    with pytest.raises(NearZeroVector):
        all_count_outcomes(zero, (0, 1))


# ------------------------------------------------------------------------ loss


def test_loss_single_photon_branches():
    t = 0.37
    branches = apply_loss(FockVector.basis((1, 0)), 0, t)
    weights = {tuple(b.state.amps): b.weight for b in branches}
    assert weights[((1, 0),)] == pytest.approx(t, abs=1e-15)
    assert weights[((0, 0),)] == pytest.approx(1 - t, abs=1e-15)


def test_loss_unit_transmission_identity():
    rng = np.random.default_rng(19)
    v = random_state(rng)
    unit, _ = normalize(v)
    branches = apply_loss(unit, 0, 1.0)
    assert len(branches) == 1
    assert branches[0].weight == pytest.approx(1.0, abs=1e-14)
    assert abs(abs(inner_product(branches[0].state, unit)) - 1.0) < 1e-12


def test_loss_probabilities_sum_to_one():
    rng = np.random.default_rng(23)
    for _ in range(20):
        v = random_state(rng, n_terms=6)
        t = rng.uniform(0, 1)
        branches = apply_loss(v, 0, t)
        assert sum(b.weight for b in branches) == pytest.approx(1.0, abs=1e-12)


def test_loss_mean_photon_scales_by_t():
    # oracle: direct expectation summation over the branch ensemble
    rng = np.random.default_rng(29)
    for _ in range(20):
        v = random_state(rng, n_terms=6)
        unit, _ = normalize(v)
        t = rng.uniform(0, 1)
        before = unit.mean_photon(0)
        after = sum(
            b.weight * b.state.mean_photon(0) for b in apply_loss(unit, 0, t)
        )
        assert after == pytest.approx(t * before, abs=1e-10)


def _density(ensemble):
    """sum_i w_i |psi_i><psi_i| of (state, weight) pairs, as {(row, col): value}."""
    rho: dict = {}
    for state, w in ensemble:
        for row, a in state.amps.items():
            for col, b in state.amps.items():
                rho[row, col] = rho.get((row, col), 0.0) + w * a * b.conjugate()
    return rho


_TRANSMISSION = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    modes=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    t1=_TRANSMISSION,
    t2=_TRANSMISSION,
)
def test_loss_composes_multiplicatively(modes, seed, t1, t2):
    # losing with t1 then t2 is the same mixed state as losing with t1*t2.
    # Branches are not matched by overlap: at t = 0 several branches can
    # hold one state, and matching would count their weights more than once.
    unit, _ = normalize(random_state(np.random.default_rng(seed), mode_count=modes))
    for mode in range(modes):
        direct = _density((b.state, b.weight) for b in apply_loss(unit, mode, t1 * t2))
        two_stage = _density(
            (second.state, first.weight * second.weight)
            for first in apply_loss(unit, mode, t1)
            for second in apply_loss(first.state, mode, t2)
        )
        for key in set(direct) | set(two_stage):
            assert abs(direct.get(key, 0.0) - two_stage.get(key, 0.0)) <= 1e-12


def test_loss_invalid_transmission():
    with pytest.raises(FockError):
        apply_loss(FockVector.basis((1, 0)), 0, 1.5)


def _loss_by_closed_form(v, mode, t):
    """Reference loss ensemble: branch k scales a pattern holding n photons
    in ``mode`` by sqrt(C(n, k)) t^((n-k)/2) (1-t)^(k/2) and sets n -> n-k."""
    branches = []
    for k in range(max(p[mode] for p in v.amps) + 1):
        kept = {}
        for pattern, amp in v.amps.items():
            n = pattern[mode]
            if n >= k:
                factor = math.sqrt(math.comb(n, k)) * t ** ((n - k) / 2)
                factor *= (1 - t) ** (k / 2)
                kept[pattern[:mode] + (n - k,) + pattern[mode + 1:]] = amp * factor
        branch = FockVector(v.mode_count, kept)
        if branch.norm() > 1e-12:
            branches.append((normalize(branch)[0], branch.norm_sq() / v.norm_sq()))
    return branches


@pytest.mark.parametrize("mode_count", [3, 4])
def test_loss_at_every_mode_matches_the_closed_form(mode_count):
    rng = np.random.default_rng(41)
    for _ in range(15):
        v = random_state(rng, mode_count=mode_count, n_terms=8)
        for mode in range(mode_count):
            # 1e-9: a rotation angle near pi/2 would lose c = sqrt(t)'s accuracy
            for t in (0.0, 0.37, float(rng.uniform(0, 1)), 1.0, 1e-9):
                got = apply_loss(v, mode, t)
                want = _loss_by_closed_form(v, mode, t)
                assert len(got) == len(want)
                for branch, (state, weight) in zip(got, want):
                    assert sorted(branch.state.amps) == sorted(state.amps)
                    assert abs(branch.weight - weight) <= 1e-15
                    for pattern, amp in state.amps.items():
                        assert abs(branch.state.amps[pattern] - amp) <= 1e-15
        for mode in (-1, mode_count):
            with pytest.raises(DimensionMismatch, match="out of range"):
                apply_loss(v, mode, 0.5)


# ------------------------------------------------------------------- vector API


def test_amplitude_drop_tolerance():
    v = FockVector.from_terms(2, {(1, 0): 1.0, (0, 1): 1e-17})
    assert (0, 1) not in dict(v.items())


def test_dump_lines_sorted_and_tab_separated():
    v = FockVector.from_terms(2, {(1, 0): 0.5, (0, 1): -0.25})
    lines = v.dump_lines()
    assert lines[0].startswith("0,1\t")
    fields = lines[0].split("\t")
    assert len(fields) == 3
    assert float(fields[1]) == pytest.approx(-0.25)


def test_negative_zero_parts_print_as_zero():
    # a negative lead turned positive leaves -0 imaginary parts behind
    unit, _ = normalize(FockVector(2, {(0, 1): -0.05, (1, 2): 0.0035}))
    assert [line.split("\t")[2] for line in unit.dump_lines()] == ["0", "0"]


# ------------------------------------------------------- the dense index


@pytest.mark.parametrize("modes", [1, 2, 3, 4, 5])
def test_pattern_index_is_every_bounded_pattern_in_lex_order(modes):
    pats, position, counts = pattern_index(modes)
    assert list(pats) == dense_space(N_MAX, modes)
    assert len(pats) == math.comb(N_MAX + modes, modes)  # 28 for 2, 210 for 4
    assert all(position[p] == k for k, p in enumerate(pats))
    assert counts.tolist() == [list(p) for p in pats]
    assert not counts.flags.writeable


def test_vector_is_one_read_only_array_over_the_index():
    v = FockVector(4, {(1, 0, 0, 1): -0.5j, (0, 1, 1, 0): 0.5})
    pats = pattern_index(4)[0]
    assert v.array.shape == (210,) and not v.array.flags.writeable
    assert v.amps == {p: complex(a) for p, a in zip(pats, v.array) if a != 0}
    assert list(v.amps) == [(0, 1, 1, 0), (1, 0, 0, 1)]  # lexicographic
    assert v.amplitude((1, 0, 0, 1)) == -0.5j
    assert v.amplitude((3, 3, 3, 3)) == 0


@pytest.mark.parametrize("keep", [0.0, 1e-3, 0.37, 1.0])
@pytest.mark.parametrize("modes", [1, 2, 3])
def test_thinning_matrix_rows_are_the_binomial_thinning(modes, keep):
    pats = pattern_index(modes)[0]
    matrix = thinning_matrix(modes, keep)
    assert not matrix.flags.writeable
    for k, counts in enumerate(pats):
        row = {pats[j]: matrix[k, j] for j in np.flatnonzero(matrix[k])}
        assert row == dict(binomial_thinning(counts, keep))


def test_normalize_rows_is_normalize_row_by_row():
    rng = np.random.default_rng(43)
    states = [random_state(rng, mode_count=3, n_terms=6) for _ in range(12)]
    assert normalize_rows(3, [s.array for s in states]) == [normalize(s) for s in states]
    with pytest.raises(NearZeroVector):
        normalize_rows(2, [FockVector.basis((1, 0)).array, np.zeros(28)])


_KERNELS = ("pattern_index", "rotation_matrix", "thinning_matrix", "_count_groups")


def test_kernels_are_built_on_first_use_in_bounded_caches():
    # importing the package builds no kernel; every kernel cache is bounded
    code = (
        "import fockqkd.fock as f; "
        f"print([getattr(f, k).cache_info().currsize for k in {_KERNELS!r}])"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fock_mod.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (proc.returncode, proc.stdout) == (0, "[0, 0, 0, 0]\n")
    for name in _KERNELS:
        assert getattr(fock_mod, name).cache_info().maxsize <= 16


# ------------------------------------------------- binomial thinning


def test_thinning_small_case_by_hand():
    # mode 0 keeps 0/1/2 of 2 photons w.p. 1/4, 1/2, 1/4; mode 1 keeps 0/1
    # of 1 photon w.p. 1/2 each; patterns come in lexicographic order
    assert binomial_thinning((2, 1), 0.5) == [
        ((0, 0), 0.125), ((0, 1), 0.125), ((1, 0), 0.25),
        ((1, 1), 0.25), ((2, 0), 0.125), ((2, 1), 0.125),
    ]
    assert binomial_thinning((3, 0), 0.0) == [((0, 0), 1.0)]


@pytest.mark.parametrize("keep", [-0.1, 1.5, math.nan])
def test_thinning_rejects_bad_survival(keep):
    with pytest.raises(FockError):
        binomial_thinning((1, 1), keep)


_counts = st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple)
_keep = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(counts=_counts, keep=_keep)
def test_thinning_is_a_distribution_with_binomial_means(counts, keep):
    split = binomial_thinning(counts, keep)
    assert abs(sum(p for _, p in split) - 1.0) <= 1e-12
    for m, n in enumerate(counts):
        mean = sum(pattern[m] * p for pattern, p in split)
        assert mean == pytest.approx(keep * n, rel=1e-12, abs=1e-12)
    for pattern, p in split:
        assert p > 0.0
        assert all(0 <= d <= n for d, n in zip(pattern, counts))


@settings(max_examples=100, deadline=None)
@given(counts=_counts)
def test_thinning_keep_one_is_the_identity(counts):
    assert binomial_thinning(counts, 1.0) == [(counts, 1.0)]


@settings(max_examples=200, deadline=None)
@given(counts=_counts, p1=_keep, p2=_keep)
def test_thinning_composes(counts, p1, p2):
    twice: dict = {}
    for mid, pa in binomial_thinning(counts, p1):
        for out, pb in binomial_thinning(mid, p2):
            twice[out] = twice.get(out, 0.0) + pa * pb
    once = dict(binomial_thinning(counts, p1 * p2))
    for pattern in set(twice) | set(once):
        assert twice.get(pattern, 0.0) == pytest.approx(
            once.get(pattern, 0.0), abs=1e-12
        )
