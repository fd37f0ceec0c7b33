import numpy as np
from hypothesis import given, settings as hypothesis_settings, strategies as st
from hypothesis.extra import numpy as hnp

from entfilter.qmat import hermitian_eig, kron, matrix_sqrt_psd, partial_trace
from entfilter.qstate import SIGMA_X, SIGMA_Z, bell_state

from helpers import random_density_matrix

I2 = np.eye(2, dtype=complex)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_sigma_x_pair_is_antidiagonal_ones(self):
        expected = np.fliplr(np.eye(4))
        assert np.array_equal(kron(SIGMA_X, SIGMA_X), expected)

    def test_sigma_z_with_identity(self):
        assert np.array_equal(kron(SIGMA_Z, I2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_stacks_pair_by_pair_as_np_kron(self):
        rng = np.random.default_rng(13)
        a, b = (rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2)) for _ in range(2))
        stacked = kron(a, b)
        assert stacked.shape == (7, 4, 4)
        for x, y, pair in zip(a, b, stacked):
            assert np.array_equal(pair, np.kron(x, y))

    def test_mixed_product_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c, d = (
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)
            )
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.linalg.norm(lhs - rhs) < 1e-12


class TestHermitianEig:
    def test_diagonal_input(self):
        values, _ = hermitian_eig(np.diag([0.835, 0.165, 0.0, 0.0]).astype(complex))
        assert np.allclose(values, [0.835, 0.165, 0.0, 0.0], atol=1e-14)

    def test_bell_projector(self):
        values, _ = hermitian_eig(bell_state("phi+"))
        assert np.allclose(values, [1.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_bitflip_state_spectrum(self):
        # p = 0.33 mixture of phi+ and psi+: spectrum is the pair of Bell
        # weights, confirmed by the characteristic polynomial of the explicit
        # matrix (two 2x2 blocks with eigenvalues {a, 0} and {b, 0}).
        a, b = 0.835, 0.165
        rho = 0.5 * np.array(
            [
                [a, 0, 0, a],
                [0, b, b, 0],
                [0, b, b, 0],
                [a, 0, 0, a],
            ],
            dtype=complex,
        )
        values, _ = hermitian_eig(rho)
        assert np.allclose(values, [a, b, 0.0, 0.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g + g.conj().T
            values, vectors = hermitian_eig(m)
            assert np.linalg.norm((vectors * values) @ vectors.conj().T - m) < 1e-12
            gram = vectors.conj().T @ vectors
            assert np.linalg.norm(gram - np.eye(4)) < 1e-12
            assert np.all(np.diff(values) <= 1e-14)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        reduced = partial_trace(bell_state("phi+"))[0]
        assert np.allclose(reduced, np.eye(2) / 2, atol=1e-14)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(5)
        rho_a = random_density_matrix(rng, dim=2)
        rho_b = random_density_matrix(rng, dim=2)
        reduced_a, reduced_b = partial_trace(np.kron(rho_a, rho_b))
        assert np.allclose(reduced_a, rho_a, atol=1e-13)
        assert np.allclose(reduced_b, rho_b, atol=1e-13)

    def test_bitflip_state_marginal_b(self):
        a, b = 0.835, 0.165
        rho = 0.5 * np.array(
            [[a, 0, 0, a], [0, b, b, 0], [0, b, b, 0], [a, 0, 0, a]], dtype=complex
        )
        # direct index contraction: sum_a rho[(a,b),(a,b')]
        expected = np.zeros((2, 2), dtype=complex)
        full = rho.reshape(2, 2, 2, 2)
        for ia in range(2):
            expected += full[ia, :, ia, :]
        assert np.allclose(expected, np.eye(2) / 2, atol=1e-14)
        assert np.allclose(partial_trace(rho)[1], expected, atol=1e-14)

    def test_trace_preserved_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for reduced in partial_trace(m):
                assert abs(np.trace(reduced) - np.trace(m)) < 1e-12


# Finite float parts, signed zeros included; the bound keeps each two-term sum finite.
_PARTS = st.floats(-1e300, 1e300, allow_subnormal=True)


def _operators(shape):
    # complex entries read bit for bit from (real, imaginary) float pairs
    pairs = hnp.arrays(float, shape + (2,), elements=_PARTS)
    return pairs.map(lambda a: np.ascontiguousarray(a).view(complex)[..., 0])


@hypothesis_settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        _operators((4, 4)),
        st.integers(0, 6).flatmap(lambda n: _operators((n, 4, 4))),
    )
)
def test_partial_trace_equals_einsum_contraction_bitwise(m):
    r = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    reduced = partial_trace(m)
    assert reduced.shape == m.shape[:-2] + (2, 2, 2)
    for qubit, spec in enumerate(("...abcb->...ac", "...abad->...bd")):
        expected = np.einsum(spec, r)
        # einsum sums into an accumulator that starts at +0.0, so where both terms
        # are -0.0 it gives +0.0 and the block sum -0.0; adding 0.0 maps only that
        # zero, which no eigenvalue or entropy distinguishes, onto einsum's
        assert (reduced[..., qubit, :, :] + 0.0).tobytes() == expected.tobytes()


def sqrt_psd(m):
    return matrix_sqrt_psd(*hermitian_eig(m))


class TestMatrixSqrtPsd:
    def test_identity(self):
        assert np.allclose(sqrt_psd(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        out = sqrt_psd(np.diag([4.0, 1.0, 0.0, 0.0]))
        assert np.allclose(out, np.diag([2.0, 1.0, 0.0, 0.0]), atol=1e-14)

    def test_projector_is_idempotent(self):
        phi = bell_state("phi+")
        assert np.allclose(sqrt_psd(phi), phi, atol=1e-12)

    def test_square_recovers_input(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rho = random_density_matrix(rng, dim=4)
            root = sqrt_psd(rho)
            assert np.linalg.norm(root @ root - rho) < 1e-10
            assert np.linalg.norm(root - root.conj().T) < 1e-12

    def test_clips_roundoff_negatives(self):
        out = sqrt_psd(np.diag([1.0, -5e-11, 0.0, 0.0]))
        assert np.allclose(out, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-5)
