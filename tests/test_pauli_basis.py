import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bosonic_dd.pauli_basis import (
    ALL_PAIRS,
    PAIR_I,
    PAIR_X,
    PAIR_Y,
    PAIR_Z,
    all_indices,
    expand_in_basis,
    gamma_set,
    gamma_tilde_set,
    product_index,
    s_matrix,
    symplectic_form_index,
    symplectic_inner_product,
    verify_adjoint_action,
)
from bosonic_dd import pauli_basis
from bosonic_dd.symplectic import (
    ModeLayout,
    is_symplectic,
    matrix_exponential,
    sp_algebra_residual,
    symplectic_form,
)

from oracles import as_index, gamma_set_oracle, gamma_tilde_set_oracle

# one multi-index, m in 0..4
index_strategy = st.lists(st.sampled_from(ALL_PAIRS), min_size=1, max_size=5).map(tuple)


@st.composite
def index_lists(draw, max_m=3, min_size=1, max_size=6):
    """A list of multi-indices of one common length m + 1."""
    m = draw(st.integers(0, max_m))
    index = st.lists(st.sampled_from(ALL_PAIRS), min_size=m + 1, max_size=m + 1)
    return [tuple(a) for a in draw(st.lists(index, min_size=min_size,
                                            max_size=max_size))]


KRON_FACTORS = {
    PAIR_I: np.array([[1.0, 0.0], [0.0, 1.0]]),
    PAIR_X: np.array([[0.0, 1.0], [1.0, 0.0]]),
    PAIR_Y: np.array([[0.0, -1.0], [1.0, 0.0]]),
    PAIR_Z: np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def kron_oracle(alpha, factors=KRON_FACTORS):
    """S_alpha as the np.kron chain of its 2x2 factors."""
    M = factors[alpha[0]]
    for a in alpha[1:]:
        M = np.kron(M, factors[a])
    return M


def kron_stack_oracle(stack, factors):
    """``kron_oracle`` of every index of an (..., m+1, 2) stack, stacked as
    ``s_matrix`` stacks them."""
    stack = np.asarray(stack)
    d = 2 ** stack.shape[-2]
    flat = stack.reshape(-1, *stack.shape[-2:]).tolist()
    return np.array([kron_oracle(tuple(map(tuple, a)), factors) for a in flat]).reshape(
        stack.shape[:-2] + (d, d))


# index stacks of shape (*lead, m+1, 2): m in 0..3, up to two leading axes
index_stacks = st.integers(0, 3).flatmap(lambda m: hnp.arrays(
    np.int64, st.lists(st.integers(0, 3), max_size=2).map(lambda lead: (*lead, m + 1, 2)),
    elements=st.integers(0, 1)))


class TestSMatrix:
    @settings(max_examples=60, deadline=None)
    @given(index_stacks)
    def test_stack_matches_kron_oracle(self, stack):
        S = s_matrix(stack)
        d = 2 ** stack.shape[-2]
        assert S.shape == stack.shape[:-2] + (d, d)
        for i in np.ndindex(stack.shape[:-2]):
            alpha = tuple(map(tuple, stack[i].tolist()))
            assert S[i].tobytes() == kron_oracle(alpha).tobytes()
            assert s_matrix(alpha).tobytes() == kron_oracle(alpha).tobytes()

    @pytest.mark.parametrize("alpha, message", [
        (((2, 0), PAIR_I), "invalid Z2xZ2 entry"),
        ((), "at least one"),
        (((1, 0, 1),), "at least one"),
        ([(PAIR_X,), (PAIR_X, PAIR_Z)], "inhomogeneous"),
    ])
    def test_malformed_index_rejected(self, alpha, message):
        with pytest.raises(ValueError, match=message):
            s_matrix(alpha)

    def test_identity_index(self):
        assert np.array_equal(s_matrix((PAIR_I, PAIR_I)), np.eye(4))

    def test_y_factor(self):
        assert np.array_equal(s_matrix((PAIR_Y,)),
                              np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_form_is_minus_y_tensor_identity(self):
        # J on 2^m modes equals -S_{(1,1),(0,0),...}
        for m in (1, 2):
            J = symplectic_form(ModeLayout(2 ** m, 0))
            assert np.array_equal(-s_matrix(symplectic_form_index(m)), J)

    def test_signed_permutation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            alpha = tuple(ALL_PAIRS[i] for i in rng.integers(0, 4, size=3))
            S = s_matrix(alpha)
            assert set(np.unique(S)) <= {-1.0, 0.0, 1.0}
            assert np.array_equal(np.abs(S) @ np.ones(8), np.ones(8))
            assert np.array_equal(np.abs(S).T @ np.ones(8), np.ones(8))

    @pytest.mark.parametrize("m", range(5))
    def test_one_signed_entry_per_row_at_row_xor_x(self, m):
        # row r of S_alpha holds one +-1, at column r xor x, x the x-bits of
        # alpha read with position 0 as the most significant bit
        a = all_indices(m)
        S = s_matrix(a)
        rows = np.arange(2 ** (m + 1))
        x = a[:, :, 0] @ 2 ** np.arange(m, -1, -1)
        assert ((S != 0).sum(axis=-1) == 1).all()
        assert (np.abs(S[np.arange(len(a))[:, None], rows, rows ^ x[:, None]]) == 1.0).all()


class TestGammaSets:
    @pytest.mark.parametrize("m,expected", [(0, 3), (1, 10), (2, 36), (3, 136)])
    def test_gamma_count(self, m, expected):
        assert len(gamma_set(m)) == expected
        assert expected == 2 * 2 ** (2 * m) + 2 ** m

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_gamma_members_in_algebra(self, m):
        J = symplectic_form(ModeLayout(2 ** m, 0))
        for alpha in gamma_set(m):
            assert sp_algebra_residual(s_matrix(alpha), J) <= 1e-14

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_gamma_spans_algebra(self, m):
        # the Gram matrix of Frobenius inner products is 2^{m+1} I
        mats = [s_matrix(a).ravel() for a in gamma_set(m)]
        G = np.array(mats) @ np.array(mats).T
        assert np.array_equal(G, 2 ** (m + 1) * np.eye(len(mats)))

    def test_gamma_tilde_m0(self):
        assert set(map(as_index, gamma_tilde_set(0))) == {(PAIR_I,), (PAIR_Y,)}

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_gamma_tilde_count(self, m):
        assert len(gamma_tilde_set(m)) == 2 * 4 ** m

    def test_gamma_tilde_orthogonal_symplectic(self):
        m = 2
        J = symplectic_form(ModeLayout(4, 0))
        for beta in gamma_tilde_set(m):
            S = s_matrix(beta)
            assert is_symplectic(S, J, tol=1e-12)
            assert np.abs(S.T @ S - np.eye(8)).max() < 1e-12

    def test_resource_guard(self):
        for index_set in (gamma_set, gamma_tilde_set):
            with pytest.raises(ValueError):
                index_set(5)

    @pytest.mark.parametrize("m", range(3))
    def test_all_indices_in_product_order(self, m):
        expected = list(itertools.product(ALL_PAIRS, repeat=m + 1))
        assert list(map(as_index, all_indices(m))) == expected

    def test_all_indices_past_the_guard(self):
        # the nudd label set (4^{m+1} labels) has its own, looser guard
        assert all_indices(5).shape == (4 ** 6, 6, 2)

    @pytest.mark.parametrize("m", range(5))
    def test_stacks_equal_the_per_index_enumeration(self, m):
        # the same indices in the same (itertools.product) order
        for stack, oracle in ((gamma_set(m), gamma_set_oracle(m)),
                              (gamma_tilde_set(m), gamma_tilde_set_oracle(m))):
            assert stack.shape == (len(oracle), m + 1, 2)
            assert list(map(as_index, stack)) == list(oracle)


class TestInnerProduct:
    @given(index_strategy)
    def test_alternating(self, alpha):
        assert symplectic_inner_product(alpha, alpha) == 0

    def test_x_z_anticommute(self):
        assert symplectic_inner_product((PAIR_X,), (PAIR_Z,)) == 1

    def test_identity_commutes(self):
        assert symplectic_inner_product((PAIR_Y,), (PAIR_I,)) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            symplectic_inner_product((PAIR_X,), (PAIR_X, PAIR_I))

    @pytest.mark.parametrize("alpha, beta, message", [
        (((2, 0),), (PAIR_I,), "invalid Z2xZ2 entry (2, 0)"),
        ((PAIR_X,), ((0, -1),), "invalid Z2xZ2 entry (0, -1)"),
        (PAIR_X, PAIR_Z, "at least one (x, z) pair"),
    ], ids=["entry-2", "entry-minus-1", "bare-pair"])
    def test_malformed_index_rejected(self, alpha, beta, message):
        # 2 is not a Z2 bit, though it pairs as 0 mod 2
        with pytest.raises(ValueError, match=re.escape(message)):
            symplectic_inner_product(alpha, beta)

    @given(index_strategy, index_strategy)
    def test_matches_commutation_sign(self, alpha, beta):
        # <a,b> = 1 exactly when the dense matrices anticommute
        n = max(len(alpha), len(beta))
        alpha = alpha + (PAIR_I,) * (n - len(alpha))
        beta = beta + (PAIR_I,) * (n - len(beta))
        Sa, Sb = s_matrix(alpha), s_matrix(beta)
        sign = -1.0 if symplectic_inner_product(alpha, beta) else 1.0
        assert np.array_equal(Sa @ Sb, sign * (Sb @ Sa))


    @settings(max_examples=50, deadline=None)
    @given(index_lists(max_m=4, max_size=8), st.integers(1, 5))
    def test_stacked_pairing_equals_per_pair_formula(self, indices, split):
        # a (k, 1, m+1, 2) stack against a (1, l, m+1, 2) stack gives the
        # k x l matrix of the per-pair pairings
        rows, cols = indices[:split], indices[split:] or indices
        table = symplectic_inner_product(np.array(rows)[:, None], np.array(cols)[None])
        expected = [[sum(ax * bz + az * bx for (ax, az), (bx, bz) in zip(a, b)) % 2
                     for b in cols] for a in rows]
        assert table.tolist() == expected
        assert table.dtype == np.int64  # signs 1 - 2 * table must not wrap


class TestAdjointAction:
    def test_m0_x_under_y(self):
        report = verify_adjoint_action(0)
        assert report.passed and report.exhaustive
        # explicit sign for the x/y pair
        x, y = s_matrix((PAIR_X,)), s_matrix((PAIR_Y,))
        assert symplectic_inner_product((PAIR_X,), (PAIR_Y,)) == 1
        assert np.array_equal(y.T @ x @ y, -x)

    def test_m1_exhaustive(self):
        report = verify_adjoint_action(1)
        assert report.passed
        assert report.n_checked == 10 * 8

    @staticmethod
    def per_pair_deviation(m):
        """The largest deviation over Gamma x Gamma~, one pair at a time, of
        the matrices ``pauli_basis.s_matrix`` gives at call time."""
        S = pauli_basis.s_matrix
        return max(float(np.linalg.norm(S(b).T @ S(a) @ S(b) - (
            -1.0 if symplectic_inner_product(a, b) else 1.0) * S(a)))
            for a in gamma_set_oracle(m) for b in gamma_tilde_set_oracle(m))

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_wrong_sign_factor_fails(self, monkeypatch, m):
        # z = diag(1, -1) with its -1 flipped is I, which commutes with x and
        # y; the pairing says z anticommutes with both
        factors = {**KRON_FACTORS, PAIR_Z: np.array([[1.0, 0.0], [0.0, 1.0]])}
        monkeypatch.setattr(pauli_basis, "s_matrix",
                            lambda alpha: kron_stack_oracle(alpha, factors))
        report = verify_adjoint_action(m)
        assert report.exhaustive and not report.passed
        assert report.max_deviation == self.per_pair_deviation(m) > 0.0

    @pytest.mark.parametrize("m", [3, 4])
    def test_sampled(self, m):
        report = verify_adjoint_action(m)
        assert report.passed and not report.exhaustive
        assert report.n_checked == 1000 and report.max_deviation == 0.0

    def test_self_pair_sign(self):
        for alpha in set(map(as_index, gamma_set(1))) & set(map(as_index, gamma_tilde_set(1))):
            S = s_matrix(alpha)
            assert np.array_equal(S.T @ S @ S, S)


class TestExpandInBasis:
    def test_form_coefficient(self):
        m = 1
        J = symplectic_form(ModeLayout(2, 0))
        coeffs = expand_in_basis(J, m)
        nonzero = {as_index(a): c for a, c in zip(gamma_set(m), coeffs.tolist()) if c != 0.0}
        assert nonzero == {as_index(symplectic_form_index(m)): -1.0}

    def test_zero(self):
        coeffs = expand_in_basis(np.zeros((4, 4)), 1)
        assert all(c == 0.0 for c in coeffs.tolist())

    def test_roundtrip_random(self):
        rng = np.random.default_rng(5)
        m = 2
        layout = ModeLayout(4, 0)
        J = symplectic_form(layout)
        for _ in range(10):
            A = rng.uniform(-1, 1, (8, 8))
            X = ((A + A.T) / 2) @ J
            coeffs = expand_in_basis(X, m)
            recon = sum(c * s_matrix(a) for a, c in zip(gamma_set(m), coeffs))
            assert np.abs(recon - X).max() < 1e-12

    @pytest.mark.parametrize("m", range(5))
    def test_equals_per_index_traces(self, m):
        # one trace per basis index, in gamma_set order; the einsum sums the
        # same products in another order, so a few ulps apart at most
        rng = np.random.default_rng(m)
        dim = 2 ** (m + 1)
        A = rng.uniform(-1, 1, (dim, dim))
        X = ((A + A.T) / 2) @ symplectic_form(ModeLayout(dim // 2, 0))
        expected = [float(np.trace(s_matrix(a).T @ X)) / dim for a in gamma_set_oracle(m)]
        assert np.abs(expand_in_basis(X, m) - expected).max() <= 1e-14

    def test_rejects_non_algebra(self):
        with pytest.raises(ValueError):
            expand_in_basis(np.eye(4), 1)


class TestProductIndex:
    def test_empty(self):
        idx, sign = product_index([])
        assert (as_index(idx), sign) == ((PAIR_I,), 1)

    def test_self_product_squares(self):
        for alpha in gamma_set(1):
            idx, sign = product_index([alpha, alpha])
            assert as_index(idx) == (PAIR_I, PAIR_I)
            dense = s_matrix(alpha) @ s_matrix(alpha)
            assert np.array_equal(dense, sign * np.eye(4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            product_index([(PAIR_X,), (PAIR_X, PAIR_I)])

    @pytest.mark.parametrize("alphas, message", [
        ([PAIR_X], "expected a (k, m+1, 2) stack of multi-indices, got shape (1, 2)"),
        ([((3, 0),)], "invalid Z2xZ2 entry (3, 0)"),
        ([(PAIR_X,), ((0, 2),)], "invalid Z2xZ2 entry (0, 2)"),
        ([((1, 0, 1),)], "at least one (x, z) pair"),
    ], ids=["one-pair", "entry-3", "later-entry-2", "triple"])
    def test_malformed_stack_rejected(self, alphas, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            product_index(alphas)

    def test_xz_gives_y(self):
        idx, sign = product_index([(PAIR_X,), (PAIR_Z,)])
        assert as_index(idx) == (PAIR_Y,)
        assert np.array_equal(s_matrix((PAIR_X,)) @ s_matrix((PAIR_Z,)),
                              sign * s_matrix((PAIR_Y,)))

    def test_dense_agreement_random(self):
        # 500 seeded tuples for m <= 2
        rng = np.random.default_rng(11)
        for _ in range(500):
            m = int(rng.integers(0, 3))
            s = int(rng.integers(1, 5))
            alphas = [tuple(ALL_PAIRS[i] for i in rng.integers(0, 4, size=m + 1))
                      for _ in range(s)]
            idx, sign = product_index(alphas)
            dense = np.eye(2 ** (m + 1))
            for a in alphas:
                dense = dense @ s_matrix(a)
            assert np.array_equal(dense, sign * s_matrix(idx))

    @settings(max_examples=60, deadline=None)
    @given(index_lists(max_m=3, max_size=6))
    def test_product_rule_equals_dense_product(self, alphas):
        idx, sign = product_index(alphas)
        dense = np.eye(2 ** len(alphas[0]))
        for a in alphas:
            dense = dense @ s_matrix(a)
        assert sign in (1, -1)
        assert np.array_equal(dense, sign * s_matrix(idx))


# The control pulses of 2^m modes by name: the all-mode quarter rotation y_0
# = y (x) I^m, and for 1 <= i <= m the mode swap x_i, the half-mode phase
# flip z_i and their product y_i, each with its factor at position i
CONTROL_PULSES = {
    1: {"y0": (PAIR_Y, PAIR_I),
        "x1": (PAIR_I, PAIR_X), "y1": (PAIR_I, PAIR_Y), "z1": (PAIR_I, PAIR_Z)},
    2: {"y0": (PAIR_Y, PAIR_I, PAIR_I),
        "x1": (PAIR_I, PAIR_X, PAIR_I), "y1": (PAIR_I, PAIR_Y, PAIR_I),
        "z1": (PAIR_I, PAIR_Z, PAIR_I),
        "x2": (PAIR_I, PAIR_I, PAIR_X), "y2": (PAIR_I, PAIR_I, PAIR_Y),
        "z2": (PAIR_I, PAIR_I, PAIR_Z)},
}


class TestPulses:
    def test_y0_is_y_tensor_identity(self):
        assert np.array_equal(s_matrix(CONTROL_PULSES[1]["y0"]),
                              np.kron(s_matrix((PAIR_Y,)), np.eye(2)))

    def test_x1_swaps_modes(self):
        # I (x) x permutes the two modes in both the Q and the P sector
        W = s_matrix(CONTROL_PULSES[1]["x1"])
        perm = np.zeros((4, 4))
        perm[0, 1] = perm[1, 0] = perm[2, 3] = perm[3, 2] = 1.0
        assert np.array_equal(W, perm)

    def test_z1_is_diagonal_signs(self):
        W = s_matrix(CONTROL_PULSES[1]["z1"])
        assert np.array_equal(W, np.diag([1.0, -1.0, 1.0, -1.0]))

    def test_pulses_live_in_gamma_tilde(self):
        m = 2
        by_index = {as_index(beta): s_matrix(beta) for beta in gamma_tilde_set(m)}
        for idx in CONTROL_PULSES[m].values():
            assert as_index(idx) in by_index

    @staticmethod
    def pulse_generator(name, idx, m):
        """An algebra element G with exp(G) = +-s_matrix(idx), the pulse ``name``."""
        y0 = s_matrix(symplectic_form_index(m))
        if name == "y0":
            return (np.pi / 2) * y0
        W = s_matrix(idx)
        if name[0] == "y":
            return (np.pi / 2) * W
        return (np.pi / 2) * (y0 @ (W + np.eye(W.shape[0])))

    @pytest.mark.parametrize("m", [1, 2])
    def test_generators_exponentiate_to_pulses(self, m):
        # every pulse is +-exp(G) for an algebra element G
        J = symplectic_form(ModeLayout(2 ** m, 0))
        for name, idx in CONTROL_PULSES[m].items():
            G = self.pulse_generator(name, idx, m)
            assert sp_algebra_residual(G, J) <= 1e-12
            E = matrix_exponential(G)
            W = s_matrix(idx)
            assert min(np.abs(E - W).max(), np.abs(E + W).max()) < 1e-13


@pytest.mark.parametrize("call, message", [
    (lambda: gamma_set(-1), "m must be nonnegative"),
    (lambda: expand_in_basis(np.eye(3), 1), "expected shape (4, 4), got (3, 3)"),
], ids=["m-negative", "expand-shape"])
def test_input_check(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
