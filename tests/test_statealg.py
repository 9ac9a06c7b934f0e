"""State and operator primitives against brute-force and symbolic oracles."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qcageom.statealg import (
    DensityMatrix,
    InvariantError,
    StateVector,
    apply_unitary,
    basis_state,
    fidelity,
    hermitian_eigenvalues,
    norm2,
    partial_trace,
    ppt_separable_2q,
    product_state,
    pure_density,
    tensor,
    von_neumann_entropy,
)

RNG = np.random.default_rng(20240811)


def random_state(n: int) -> StateVector:
    amps = RNG.normal(size=1 << n) + 1j * RNG.normal(size=1 << n)
    return StateVector(amps / np.linalg.norm(amps))


def random_unitary(dim: int) -> np.ndarray:
    m = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(n: int, rank: int = 3) -> DensityMatrix:
    d = 1 << n
    g = RNG.normal(size=(d, rank)) + 1j * RNG.normal(size=(d, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


def bell_plus() -> StateVector:
    return StateVector(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


def werner_matrix(z: float) -> np.ndarray:
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return (1 - z) * np.eye(4, dtype=complex) / 4 + z * np.outer(bell, bell.conj())


# Symbolic Werner spectrum: the Bell component gives (1+3z)/4, the three
# orthogonal Bell states share (1-z)/4.
def werner_spectrum(z: float) -> list[float]:
    return [(1 + 3 * z) / 4, (1 - z) / 4, (1 - z) / 4, (1 - z) / 4]


class TestStateTypes:
    def test_norm_invariant(self):
        with pytest.raises(InvariantError):
            StateVector(np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.parametrize("drift", [2e-10, -2e-10])
    def test_norm_rejected_at_twice_atol(self, drift):
        v = RNG.normal(size=1 << 14) + 1j * RNG.normal(size=1 << 14)
        v *= math.sqrt(1.0 + drift) / np.linalg.norm(v)
        with pytest.raises(InvariantError, match=r"^state vector norm\^2 = .* is not 1$"):
            StateVector(v)
        StateVector(v * math.sqrt((1.0 + drift / 4) / (1.0 + drift)))

    def test_strided_amplitudes(self):
        psi = RNG.normal(size=(2, 8, 2)) + 1j * RNG.normal(size=(2, 8, 2))
        psi /= np.linalg.norm(psi[0, :, 0])
        strided = psi[0, :, 0]  # a library caller may pass a strided view
        with pytest.raises(ValueError):
            strided.view(float)  # so norm2 copies before taking its float view
        s = StateVector(strided)
        assert s.amplitudes.flags.c_contiguous and not s.amplitudes.flags.writeable
        assert np.array_equal(s.amplitudes, strided)

    @pytest.mark.parametrize("shape", [(1,), (2,), (3, 5), (1 << 14,), (2, 64, 2)])
    def test_norm2_matches_vdot(self, shape):
        v = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
        for w in (v, v[..., ::-1], np.moveaxis(v, 0, -1)):
            assert norm2(w) == pytest.approx(np.vdot(w, w).real, rel=1e-13)

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            StateVector(np.zeros(1 << 17, dtype=complex))

    def test_density_validation(self):
        with pytest.raises(InvariantError):
            DensityMatrix(np.array([[0.5, 0.5], [0.4, 0.5]]))
        with pytest.raises(InvariantError):
            DensityMatrix(np.diag([0.8, 0.4]))
        with pytest.raises(InvariantError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_labels(self):
        s = basis_state("01", labels=(5, 9))
        assert s.labels == (5, 9)
        with pytest.raises(ValueError):
            StateVector(np.array([1, 0], dtype=complex), labels=(1, 2))


class TestTensor:
    def test_basis_case(self):
        out = tensor(basis_state("0"), basis_state("0", labels=(1,)))
        assert np.array_equal(out.amplitudes, [1, 0, 0, 0])

    def test_plus_zero(self):
        plus = StateVector(np.array([1, 1], dtype=complex) / math.sqrt(2))
        out = tensor(plus, basis_state("0", labels=(1,)))
        expect = np.array([1, 0, 1, 0]) / math.sqrt(2)
        assert np.allclose(out.amplitudes, expect, atol=1e-12)

    def test_identity_scaling(self):
        half = DensityMatrix(np.eye(2) / 2, labels=(0,))
        other = DensityMatrix(np.eye(2) / 2, labels=(1,))
        out = tensor(half, other)
        assert np.allclose(out.matrix, np.eye(4) / 4)
        assert out.labels == (0, 1)

    def test_errors(self):
        with pytest.raises(ValueError):
            tensor(basis_state("0"), DensityMatrix(np.eye(2) / 2, labels=(1,)))
        with pytest.raises(ValueError):
            tensor(basis_state("0"), basis_state("0"))


X = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


class TestApplyUnitary:
    def test_x_on_first_label(self):
        out = apply_unitary(basis_state("00"), X, (0,))
        assert np.array_equal(out.amplitudes, basis_state("10").amplitudes)

    def test_identity_bit_exact(self):
        s = random_state(3)
        out = apply_unitary(s, np.eye(4, dtype=complex), (0, 2))
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_cnot_makes_bell(self):
        plus0 = product_state([np.array([1, 1]) / math.sqrt(2), np.array([1, 0])])
        out = apply_unitary(plus0, CNOT, (0, 1))
        assert np.allclose(out.amplitudes, bell_plus().amplitudes, atol=1e-12)

    def test_errors(self):
        s = basis_state("00")
        with pytest.raises(ValueError):
            apply_unitary(s, np.array([[1, 1], [0, 1]], dtype=complex), (0,))
        with pytest.raises(ValueError):
            apply_unitary(s, X, (7,))
        with pytest.raises(ValueError):
            apply_unitary(s, X, (0, 0))

    def test_norm_preserved_random(self):
        for _ in range(25):
            n = int(RNG.integers(2, 5))
            s = random_state(n)
            k = int(RNG.integers(1, 3))
            targets = tuple(RNG.choice(n, size=k, replace=False).tolist())
            out = apply_unitary(s, random_unitary(1 << k), targets)
            assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1) <= 1e-10

    def test_nontarget_bits_permuted(self):
        # X on the middle label of |010> only flips that label's bit.
        out = apply_unitary(basis_state("010"), X, (1,))
        assert np.array_equal(out.amplitudes, basis_state("000").amplitudes)


def partial_trace_oracle(state: StateVector, keep: list[int]) -> np.ndarray:
    """Index-sum oracle: form the projector and sum traced index pairs."""
    n = state.n_qubits
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    keep_pos = [state.labels.index(k) for k in keep]
    rest = [p for p in range(n) if p not in keep_pos]
    dk = 1 << len(keep_pos)
    out = np.zeros((dk, dk), dtype=complex)
    for a in range(dk):
        for b in range(dk):
            for e in range(1 << len(rest)):
                ia = ib = 0
                for bit_pos, p in enumerate(keep_pos):
                    ia |= ((a >> (len(keep_pos) - 1 - bit_pos)) & 1) << (n - 1 - p)
                    ib |= ((b >> (len(keep_pos) - 1 - bit_pos)) & 1) << (n - 1 - p)
                for bit_pos, p in enumerate(rest):
                    bit = (e >> (len(rest) - 1 - bit_pos)) & 1
                    ia |= bit << (n - 1 - p)
                    ib |= bit << (n - 1 - p)
                out[a, b] += rho[ia, ib]
    return out


class TestPartialTrace:
    def test_bell_marginal(self):
        rho = partial_trace(bell_plus(), {0})
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state(self):
        psi, phi = random_state(1), random_state(2)
        joint = tensor(psi, StateVector(phi.amplitudes, labels=(1, 2)))
        rho = partial_trace(joint, {0})
        assert np.allclose(rho.matrix, pure_density(psi).matrix, atol=1e-10)

    def test_against_index_sum_oracle(self):
        for _ in range(20):
            n = int(RNG.integers(3, 5))
            s = random_state(n)
            k = int(RNG.integers(1, n))
            keep = sorted(RNG.choice(n, size=k, replace=False).tolist())
            got = partial_trace(s, set(keep))
            want = partial_trace_oracle(s, keep)
            assert np.max(np.abs(got.matrix - want)) <= 1e-10

    def test_density_input_matches_statevector_input(self):
        s = random_state(3)
        a = partial_trace(s, {0, 2}).matrix
        b = partial_trace(pure_density(s), {0, 2}).matrix
        assert np.allclose(a, b, atol=1e-10)

    def test_tensor_roundtrip(self):
        rho_a = random_density(1)
        rho_b = DensityMatrix(random_density(2).matrix, labels=(1, 2))
        joint = tensor(rho_a, rho_b)
        back = partial_trace(joint, {0})
        assert np.max(np.abs(back.matrix - rho_a.matrix)) <= 1e-10
        assert abs(np.trace(partial_trace(joint, {1, 2}).matrix) - 1) <= 1e-10

    def test_errors(self):
        s = random_state(2)
        with pytest.raises(ValueError):
            partial_trace(s, set())
        with pytest.raises(ValueError):
            partial_trace(s, {41})


class TestEigenvaluesAndEntropy:
    def test_trivial_spectra(self):
        assert hermitian_eigenvalues(np.eye(2) / 2) == [0.5, 0.5]
        assert hermitian_eigenvalues(np.diag([0.7, 0.3])) == pytest.approx([0.7, 0.3])

    def test_werner_spectrum(self):
        got = hermitian_eigenvalues(werner_matrix(0.5))
        assert got == pytest.approx(sorted(werner_spectrum(0.5), reverse=True), abs=1e-12)
        assert got == pytest.approx([0.625, 0.125, 0.125, 0.125], abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_sum_matches_trace(self):
        for _ in range(10):
            m = RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6))
            m = m + m.conj().T
            vals = hermitian_eigenvalues(m)
            assert abs(sum(vals) - np.trace(m).real) <= 1e-8

    def test_entropy_examples(self):
        assert von_neumann_entropy(pure_density(random_state(2))) <= 1e-9
        assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_entropy_werner_half(self):
        # direct -sum(lambda log2 lambda) on the symbolic spectrum
        expect = -sum(v * math.log2(v) for v in werner_spectrum(0.5))
        got = von_neumann_entropy(DensityMatrix(werner_matrix(0.5)))
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(1.5487949406953985, abs=1e-12)

    def test_entropy_unitary_invariance(self):
        for _ in range(8):
            rho = random_density(2)
            u = random_unitary(4)
            conj = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert von_neumann_entropy(conj) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-8
            )

    def test_schmidt_symmetry(self):
        for _ in range(8):
            s = random_state(4)
            keep = {0, 2}
            comp = set(s.labels) - keep
            sa = von_neumann_entropy(partial_trace(s, keep))
            sb = von_neumann_entropy(partial_trace(s, comp))
            assert sa == pytest.approx(sb, abs=1e-8)


class TestFidelity:
    def test_examples(self):
        s = random_state(2)
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(basis_state("0"), basis_state("1")) == 0.0
        plus = StateVector(np.array([1, 1], dtype=complex) / math.sqrt(2))
        assert fidelity(basis_state("0"), plus) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(basis_state("0"), basis_state("00"))


class TestPPT:
    def test_bell_entangled(self):
        assert not ppt_separable_2q(pure_density(bell_plus()))

    def test_maximally_mixed(self):
        assert ppt_separable_2q(DensityMatrix(np.eye(4) / 4))

    def test_werner_boundary(self):
        # partial-transpose minimum eigenvalue is (1-3z)/4
        assert ppt_separable_2q(DensityMatrix(werner_matrix(1 / 3 - 1e-6)))
        assert not ppt_separable_2q(DensityMatrix(werner_matrix(1 / 3 + 1e-6)))
        for z in (0.0, 0.1, 0.2, 0.3, 0.4, 0.7, 1.0):
            expect = (1 - 3 * z) / 4 >= -1e-10
            assert ppt_separable_2q(DensityMatrix(werner_matrix(z))) == expect

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            ppt_separable_2q(DensityMatrix(np.eye(2) / 2))
