"""Dense complex linear algebra and qubit-state primitives.

Conventions fixed once and used by every module:

* A register of n qubits carries an ordered tuple of integer labels.  The
  amplitude index of a basis state is read as the binary string of the
  labels left to right, so the FIRST label is the most significant bit
  (register order matches circuit-diagram reading order).
* Entropies are in bits (log base 2).
* Everything is dense; registers are capped at 16 qubits.

All values are immutable after construction and all operations are pure
functions, so they are safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

MAX_QUBITS = 16
ATOL = 1e-10

# Eigenvalues in [-ATOL, ENTROPY_FLOOR] are treated as exact zeros when
# evaluating entropies; anything below -ATOL is a genuine violation.
ENTROPY_FLOOR = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


class InvariantError(ValueError):
    """A state or operator violates one of its numerical invariants."""


def _as_labels(labels, n: int) -> tuple[int, ...]:
    if labels is None:
        return tuple(range(n))
    labels = tuple(labels)
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise ValueError("duplicate qubit labels")
    return labels


def _check_qubit_count(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim != 1 << n:
        raise ValueError(f"dimension {dim} is not a power of two")
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the supported maximum of {MAX_QUBITS}")
    return n


def norm2(v: np.ndarray) -> float:
    """<v|v> of an array of complex amplitudes, computed without BLAS.

    np.vdot calls BLAS zdotc, which OpenBLAS may run on several threads;
    at 2^14 amplitudes such a call was measured at 8 ms against 0.01 ms
    on one thread.  einsum's own loop runs on the calling thread.  A
    strided array is first copied, since only a contiguous one has a
    float view.
    """
    f = np.ascontiguousarray(v, dtype=complex).reshape(-1).view(float)
    return float(np.einsum("i,i->", f, f))


def is_hermitian(m: np.ndarray, atol: float = ATOL) -> bool:
    return bool(np.all(np.abs(m - m.conj().T) <= atol))


def is_unitary(u: np.ndarray, atol: float = ATOL) -> bool:
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    # A unitary's entries have modulus <= 1; checking that first keeps
    # huge or non-finite entries out of the product, where they overflow.
    if not np.all(np.abs(u) <= 1.0 + atol):
        return False
    return bool(np.all(np.abs(u.conj().T @ u - np.eye(u.shape[0])) <= atol))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of n qubits as 2^n complex amplitudes."""

    amplitudes: np.ndarray
    labels: tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)  # a contiguous copy
        n = _check_qubit_count(amps.size)
        if not np.all(np.isfinite(amps)):
            raise InvariantError("state vector has non-finite amplitudes")
        norm = norm2(amps)
        if abs(norm - 1.0) > ATOL:
            raise InvariantError(f"state vector norm^2 = {norm!r} is not 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "labels", _as_labels(self.labels, n))

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def position(self, label: int) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown qubit label {label!r}") from None


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on n qubits."""

    matrix: np.ndarray
    labels: tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        n = _check_qubit_count(m.shape[0])
        if not np.all(np.isfinite(m)):
            raise InvariantError("density matrix has non-finite entries")
        if not is_hermitian(m):
            raise InvariantError("density matrix is not Hermitian within 1e-10")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > ATOL:
            raise InvariantError(f"density matrix trace {tr!r} is not 1")
        if float(np.min(np.linalg.eigvalsh(m))) < -ATOL:
            raise InvariantError("density matrix has an eigenvalue below -1e-10")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "labels", _as_labels(self.labels, n))

    @property
    def n_qubits(self) -> int:
        return len(self.labels)


def basis_state(bits: str | Iterable[int], labels=None) -> StateVector:
    """Computational basis state from a bit string, first bit = first label."""
    bits = [int(b) for b in bits]
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        idx = (idx << 1) | b
    amps = np.zeros(1 << len(bits), dtype=complex)
    amps[idx] = 1.0
    return StateVector(amps, labels)


def product_state(qubits: Iterable[np.ndarray], labels=None) -> StateVector:
    """Tensor product of single-qubit amplitude pairs, in label order."""
    amps = np.array([1.0], dtype=complex)
    count = 0
    for q in qubits:
        q = np.asarray(q, dtype=complex).reshape(-1)
        if q.size != 2:
            raise ValueError("each qubit needs exactly two amplitudes")
        amps = np.kron(amps, q)
        count += 1
    if count == 0:
        raise ValueError("product_state needs at least one qubit")
    return StateVector(amps, labels)


def pure_density(state: StateVector) -> DensityMatrix:
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()), state.labels)


def tensor(a, b):
    """Tensor product of two StateVectors or two DensityMatrices.

    Labels must be disjoint; the result carries them concatenated.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        if set(a.labels) & set(b.labels):
            raise ValueError("tensor factors share qubit labels")
        return StateVector(np.kron(a.amplitudes, b.amplitudes), a.labels + b.labels)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        if set(a.labels) & set(b.labels):
            raise ValueError("tensor factors share qubit labels")
        return DensityMatrix(np.kron(a.matrix, b.matrix), a.labels + b.labels)
    raise ValueError("tensor requires two StateVectors or two DensityMatrices")


def apply_unitary(state: StateVector, u: np.ndarray, targets: Iterable[int]) -> StateVector:
    """Apply a 2^k x 2^k unitary to the ordered target labels of a pure state.

    The first target corresponds to the most significant bit of the gate's
    own index space.  Non-target amplitudes are only permuted.
    """
    targets = tuple(targets)
    k = len(targets)
    if len(set(targets)) != k or k == 0:
        raise ValueError("targets must be a nonempty list of distinct labels")
    u = np.asarray(u, dtype=complex)
    if u.shape != (1 << k, 1 << k):
        raise ValueError(f"unitary shape {u.shape} does not match {k} targets")
    if not is_unitary(u):
        raise ValueError("matrix is not unitary within 1e-10")
    n = state.n_qubits
    positions = [state.position(t) for t in targets]
    psi = state.amplitudes.reshape((2,) * n)
    psi = np.moveaxis(psi, positions, range(k))
    out = (u @ psi.reshape(1 << k, -1)).reshape((2,) * n)
    out = np.moveaxis(out, range(k), positions).reshape(-1)
    norm = norm2(out)
    if not abs(norm - 1.0) <= ATOL:  # NaN fails too
        raise InvariantError(f"unitary application drifted norm^2 to {norm!r}")
    return StateVector(out, state.labels)


def partial_trace(state, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on `keep`, tracing out the complement.

    Accepts a StateVector (traces the complement out of |psi><psi|) or a
    DensityMatrix.  Kept labels stay in their original register order.
    """
    keep = set(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    labels = state.labels
    unknown = keep - set(labels)
    if unknown:
        raise ValueError(f"unknown qubit labels {sorted(unknown)!r}")
    keep_pos = [i for i, lab in enumerate(labels) if lab in keep]
    trace_pos = [i for i, lab in enumerate(labels) if lab not in keep]
    kept_labels = tuple(labels[i] for i in keep_pos)
    n = len(labels)

    if isinstance(state, StateVector):
        psi = state.amplitudes.reshape((2,) * n)
        psi = np.transpose(psi, keep_pos + trace_pos)
        mat = psi.reshape(1 << len(keep_pos), -1)
        return DensityMatrix(mat @ mat.conj().T, kept_labels)
    if isinstance(state, DensityMatrix):
        rho = state.matrix.reshape((2,) * (2 * n))
        perm = keep_pos + trace_pos + [n + p for p in keep_pos] + [n + p for p in trace_pos]
        rho = np.transpose(rho, perm)
        dk, dt = 1 << len(keep_pos), 1 << len(trace_pos)
        rho = rho.reshape(dk, dt, dk, dt)
        return DensityMatrix(np.einsum("atbt->ab", rho), kept_labels)
    raise ValueError("partial_trace requires a StateVector or DensityMatrix")


def hermitian_eigenvalues(m: np.ndarray) -> list[float]:
    """Real spectrum of a Hermitian matrix, descending."""
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within 1e-10")
    vals = np.linalg.eigvalsh(m)
    return [float(v) for v in vals[::-1]]


def spectral_entropy(eigenvalues) -> np.ndarray:
    """Entropy -sum(lambda log2 lambda) in bits of each spectrum along the last axis.

    Eigenvalues up to ENTROPY_FLOOR count as exact zeros, one below -ATOL
    raises InvariantError, and results are clipped at 0.
    """
    vals = np.asarray(eigenvalues, dtype=float)
    if vals.size and vals.min() < -ATOL:
        raise InvariantError(f"eigenvalue {float(vals.min())!r} below -1e-10 in entropy")
    kept = np.where(vals > ENTROPY_FLOOR, vals, 1.0)  # 1 log2 1 = 0
    # 0.0 - sum, not -sum, so that a zero entropy is +0.0
    return np.maximum(0.0 - (kept * np.log2(kept)).sum(axis=-1), 0.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(lambda log2 lambda) in bits; tiny eigenvalues count as 0."""
    return float(spectral_entropy(np.linalg.eigvalsh(rho.matrix)))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for two pure states of equal dimension.

    <a|b> is summed by einsum on the calling thread, not by BLAS zdotc,
    for the reason given in `norm2`.
    """
    if a.amplitudes.size != b.amplitudes.size:
        raise ValueError("fidelity requires states of equal dimension")
    return float(abs(np.einsum("i,i->", np.conjugate(a.amplitudes), b.amplitudes)) ** 2)


def ppt_separable_2q(rho: DensityMatrix) -> bool:
    """Peres-Horodecki test, exact for two qubits.

    True iff the partial transpose on the second qubit has no eigenvalue
    below -1e-10.
    """
    if rho.n_qubits != 2:
        raise ValueError("ppt_separable_2q requires a 2-qubit density matrix")
    m = rho.matrix.reshape(2, 2, 2, 2)
    pt = np.transpose(m, (0, 3, 2, 1)).reshape(4, 4)
    return float(np.min(np.linalg.eigvalsh(pt))) >= -ATOL
