import math
import re

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from bosonic_dd.symplectic import (
    ModeLayout,
    block_decompose,
    is_symplectic,
    matrix_exponential,
    offdiag_residual,
    sp_algebra_residual,
    spectral_norm,
    symplectic_form,
)
from bosonic_dd.symplectic import _TAYLOR_THETA as TAYLOR_THETA
from bosonic_dd.symplectic import _TAYLOR_COEFFS, _taylor_exponential


def out_of_place_taylor(X):
    """The degree-8 Taylor polynomial in three products (Bader, Blanes &
    Casas 2019) with a temporary per term, kept as a bitwise oracle."""
    r = math.sqrt(177.0)
    x1, x2, x3 = (1 + r) / 132, (1 + r) / 528, 2 / 3
    x4, x5, x6 = (-271 + 29 * r) / 210, 11 * (-1 + r) / 840, 11 * (-9 + r) / 3360
    x7, y2 = (89 - r) / 2240, (857 - 58 * r) / 630
    I = np.eye(X.shape[-1])
    X2 = X @ X
    X4 = X2 @ (x1 * X + x2 * X2)
    return ((x3 * X2 + X4) @ (x4 * I + x5 * X + x6 * X2 + x7 * X4)
            + y2 * X2 + X + I)


def random_symmetric(rng, dim):
    A = rng.uniform(-1.0, 1.0, (dim, dim))
    return (A + A.T) / 2.0


class TestForm:
    def test_single_mode(self):
        J = symplectic_form(ModeLayout(1, 0))
        assert np.array_equal(J, np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_direct_sum(self):
        J = symplectic_form(ModeLayout(1, 1))
        blk = np.array([[0.0, 1.0], [-1.0, 0.0]])
        expected = np.zeros((4, 4))
        expected[:2, :2] = blk
        expected[2:, 2:] = blk
        assert np.array_equal(J, expected)

    def test_defining_identity(self):
        J = symplectic_form(ModeLayout(2, 2))
        assert np.array_equal(J @ J, -np.eye(8))
        assert np.array_equal(J.T, -J)

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            ModeLayout(0, 1)
        with pytest.raises(ValueError):
            ModeLayout(1, -1)


class TestAlgebraMembership:
    def test_aj_construction(self):
        rng = np.random.default_rng(42)
        layout = ModeLayout(2, 1)
        J = symplectic_form(layout)
        for _ in range(20):
            A = random_symmetric(rng, layout.dim)
            assert sp_algebra_residual(A @ J, J) < 1e-12

    def test_j_is_member(self):
        J = symplectic_form(ModeLayout(2, 0))
        assert sp_algebra_residual(J, J) == 0.0

    def test_identity_is_not(self):
        J = symplectic_form(ModeLayout(1, 0))
        assert sp_algebra_residual(np.eye(2), J) > 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sp_algebra_residual(np.eye(2), symplectic_form(ModeLayout(2, 0)))


class TestGroupMembership:
    def test_identity(self):
        J = symplectic_form(ModeLayout(1, 1))
        assert is_symplectic(np.eye(4), J)

    def test_exponential_of_algebra(self):
        # exp maps algebra to group: 200 seeded draws with ||AJ|| <= 5
        rng = np.random.default_rng(7)
        layout = ModeLayout(2, 1)
        J = symplectic_form(layout)
        for _ in range(200):
            A = random_symmetric(rng, layout.dim)
            X = A @ J
            norm = np.linalg.norm(X)
            if norm > 5.0:
                X *= 5.0 / norm
            assert is_symplectic(matrix_exponential(X), J, tol=1e-10)

    def test_scaled_identity_fails(self):
        J = symplectic_form(ModeLayout(1, 0))
        assert not is_symplectic(2.0 * np.eye(2), J)


class TestMatrixExponential:
    def test_zero(self):
        assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_quarter_rotation(self):
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(matrix_exponential((np.pi / 2) * R), R, atol=1e-14)

    def test_diagonal(self):
        out = matrix_exponential(np.diag([1.0, 2.0]))
        assert np.allclose(out, np.diag([np.e, np.e ** 2]), rtol=1e-13)

    def test_rotation_grid(self):
        # exp(theta J) = cos(theta) I + sin(theta) J on a theta grid
        J = symplectic_form(ModeLayout(1, 0))
        for theta in np.linspace(-3.0, 3.0, 25):
            expected = np.cos(theta) * np.eye(2) + np.sin(theta) * J
            assert np.abs(matrix_exponential(theta * J) - expected).max() < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.zeros((2, 3)))

    def test_stacked_input(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1.0, 1.0, (2, 3, 4, 4))
        # two slices below the Taylor threshold, four above it
        mixed = X * np.array([[1.0, 1e-3, 1.0], [1e-2, 1.0, 1.0]])[..., None, None]
        norms = np.abs(mixed).sum(axis=-2).max(axis=-1)
        assert (norms <= TAYLOR_THETA).sum() == 2
        for stack in (X, mixed):
            E = matrix_exponential(stack)
            assert E.shape == stack.shape
            for i in range(2):
                for j in range(3):
                    assert np.array_equal(E[i, j], matrix_exponential(stack[i, j]))
        X[1, 2, 0, 0] = np.inf
        with pytest.raises(ValueError):
            matrix_exponential(X)
        with pytest.raises(ValueError):
            matrix_exponential(np.zeros((3, 2, 4)))

    @pytest.mark.parametrize("dim", [2, 5, 16, 34])
    def test_large_slices_are_scipy_expm_bitwise(self, dim):
        # every slice above theta, alone or stacked, is scipy's expm of it
        X = np.random.default_rng(dim).uniform(-1.0, 1.0, (2, 3, dim, dim))
        E = matrix_exponential(X)
        for i, j in np.ndindex(2, 3):
            assert E[i, j].tobytes() == scipy.linalg.expm(X[i, j]).tobytes()
        assert matrix_exponential(X[1, 2]).tobytes() == scipy.linalg.expm(X[1, 2]).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 12),
           norms=st.lists(st.one_of(
               st.sampled_from([TAYLOR_THETA * (1 - 1e-12), TAYLOR_THETA,
                                TAYLOR_THETA * (1 + 1e-12)]),
               st.floats(0.0, 4 * TAYLOR_THETA)), min_size=1, max_size=6))
    def test_agrees_with_scipy_on_both_sides_of_theta(self, seed, dim, norms):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, (len(norms), dim, dim))
        X *= (np.array(norms) / np.abs(X).sum(axis=-2).max(axis=-1))[:, None, None]
        E = matrix_exponential(X)
        for e, x in zip(E, X):
            reference = scipy.linalg.expm(x)
            assert np.abs(e - reference).max() <= \
                1e-15 * max(1.0, np.linalg.norm(reference, 1))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_system=st.integers(1, 3),
           n_env=st.integers(0, 3), scale=st.floats(1e-6, 1.0))
    def test_small_norm_algebra_elements_are_symplectic(self, seed, n_system,
                                                        n_env, scale):
        rng = np.random.default_rng(seed)
        layout = ModeLayout(n_system, n_env)
        J = symplectic_form(layout)
        X = np.stack([random_symmetric(rng, layout.dim) @ J for _ in range(4)])
        X *= scale * TAYLOR_THETA / np.abs(X).sum(axis=-2).max(axis=-1)[:, None, None]
        for S in matrix_exponential(X):
            assert is_symplectic(S, J, tol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 16),
           shape=st.lists(st.integers(1, 5), max_size=2),
           scale=st.floats(0.0, 1.0))
    def test_taylor_kernel_equals_out_of_place_expression(self, seed, dim, shape,
                                                          scale):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, (*shape, dim, dim))
        norms = np.abs(X).sum(axis=-2).max(axis=-1, keepdims=True)[..., None]
        X *= scale * TAYLOR_THETA / np.maximum(norms, 1e-300)
        E, oracle = _taylor_exponential(X), out_of_place_taylor(X)
        assert E.shape == oracle.shape and E.tobytes() == oracle.tobytes()  # -0.0 too
        # at scale 1 a rescaled 1-norm can round above theta: scipy's branch
        small = np.abs(X).sum(axis=-2).max(axis=-1) <= TAYLOR_THETA
        assert matrix_exponential(X)[small].tobytes() == E[small].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 34),
           shape=st.lists(st.integers(0, 3), max_size=2),
           scale=st.floats(0.0, 1.0))
    def test_taylor_kernel_in_caller_scratch(self, seed, dim, shape, scale):
        # with a scratch the kernel writes its temporaries and its result
        # there, bitwise as without one; without, its result owns its data
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, (*shape, dim, dim))
        norms = np.abs(X).sum(axis=-2).max(axis=-1, keepdims=True)[..., None]
        X *= scale * TAYLOR_THETA / np.maximum(norms, 1e-300)
        work = np.full((6, *X.shape), np.nan)
        E, alone = _taylor_exponential(X, work), _taylor_exponential(X)
        assert E.base is work and E.shape == X.shape
        assert alone.flags.owndata
        assert E.tobytes() == alone.tobytes() == out_of_place_taylor(X).tobytes()

    def test_taylor_kernel_coefficients_are_inverse_factorials(self):
        # the kernel's own polynomial, read off the first row of its value
        # at the 17x17 shift matrix N (N^k is the k-th superdiagonal)
        coeffs = _taylor_exponential(np.eye(17, k=1))[0]
        with mpmath.workdps(50):
            for k, c in enumerate(coeffs[:9]):
                assert abs(c * mpmath.factorial(k) - 1) <= 1e-15
            r = mpmath.sqrt(177)
            exact = [(1 + r) / 132, (1 + r) / 528, mpmath.mpf(2) / 3,
                     (-271 + 29 * r) / 210, 11 * (-1 + r) / 840,
                     11 * (-9 + r) / 3360, (89 - r) / 2240, (857 - 58 * r) / 630]
            for stored, value in zip(_TAYLOR_COEFFS, exact, strict=True):
                assert abs(stored / value - 1) <= 1e-15
        assert not coeffs[9:].any()  # no term above degree 8

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 12),
           norm=st.one_of(st.just(TAYLOR_THETA), st.floats(0.0, TAYLOR_THETA)))
    def test_taylor_kernel_agrees_with_mpmath(self, seed, dim, norm):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, (dim, dim))
        X *= norm / np.abs(X).sum(axis=0).max()
        E = _taylor_exponential(X)
        with mpmath.workdps(50):
            reference = mpmath.expm(mpmath.matrix(X.tolist()))
            deviation = max(abs(mpmath.mpf(E[i, j]) - reference[i, j])
                            for i in range(dim) for j in range(dim))
        assert deviation <= 1e-15 * max(1.0, np.abs(E).sum(axis=0).max())

    def test_large_norm_slice_loads_scipy_expm(self, fresh_python):
        equal, loaded_before, loaded_after = fresh_python("""
import json, sys
import numpy as np
from bosonic_dd.symplectic import matrix_exponential
before = "scipy.linalg" in sys.modules
X = np.array([[0.1, 1.0], [-2.0, 0.3]])  # 1-norm 2.1, far above theta
E = matrix_exponential(X)
after = "scipy.linalg" in sys.modules
import scipy.linalg
print(json.dumps([bool(np.array_equal(E, scipy.linalg.expm(X))), before, after]))
""")
        assert (equal, loaded_before, loaded_after) == (True, False, True)


class TestBlocks:
    def test_identity_blocks(self):
        b = block_decompose(np.eye(4), ModeLayout(1, 1))
        assert np.array_equal(b.ss, np.eye(2))
        assert np.array_equal(b.ee, np.eye(2))
        assert not b.se.any() and not b.es.any()

    def test_direct_sum_has_zero_coupling(self):
        rng = np.random.default_rng(0)
        M = np.zeros((6, 6))
        M[:2, :2] = rng.uniform(size=(2, 2))
        M[2:, 2:] = rng.uniform(size=(4, 4))
        b = block_decompose(M, ModeLayout(1, 2))
        assert not b.se.any() and not b.es.any()

    def test_reassembly_bit_exact(self):
        rng = np.random.default_rng(1)
        M = rng.uniform(size=(8, 8))
        layout = ModeLayout(2, 2)
        b = block_decompose(M, layout)
        assert np.array_equal(np.block([[b.ss, b.se], [b.es, b.ee]]), M)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            block_decompose(np.eye(4), ModeLayout(1, 2))


class TestOffdiagResidual:
    def test_block_diagonal_is_zero(self):
        layout = ModeLayout(1, 1)
        M = np.diag([1.0, 2.0, 3.0, 4.0])
        assert offdiag_residual(M, layout) == 0.0

    def test_single_unit_entry(self):
        layout = ModeLayout(1, 1)
        M = np.zeros((4, 4))
        M[0, 2] = 1.0
        assert offdiag_residual(M, layout) == pytest.approx(1.0)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(2)
        layout = ModeLayout(2, 1)
        M = rng.uniform(size=(6, 6))
        assert offdiag_residual(M, layout) == pytest.approx(
            offdiag_residual(M.T, layout), abs=1e-15)


class TestSpectralNorm:
    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = rng.uniform(-1.0, 1.0, (6, 6))
            assert spectral_norm(M) == pytest.approx(
                np.linalg.norm(M, 2), rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0


@pytest.mark.parametrize("call, message", [
    (lambda: sp_algebra_residual(np.zeros((2, 3)), np.eye(2)),
     "X must be square, got shape (2, 3)"),
    (lambda: is_symplectic(np.eye(4), symplectic_form(ModeLayout(1, 0))),
     "dimension mismatch: S (4, 4) vs J (2, 2)"),
    (lambda: spectral_norm(np.ones((2, 2, 2))), "spectral_norm expects a 2-d array"),
], ids=["algebra-nonsquare", "group-dimension", "norm-3d"])
def test_input_check(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
