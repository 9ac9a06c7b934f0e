"""Information distance between qubit subsystems and derived fields.

The central quantity is the pairwise distance

    delta(A, B) = 2 S(AB) - S(A) - S(B)        [bits]

which is 0 for pure product marginals, negative in the presence of
bipartite quantum correlations, and positive when classical uncertainty
in the joint system dominates.  It can be negative, so the geometry it
induces is pseudo-Riemannian rather than Riemannian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .statealg import (
    DensityMatrix,
    StateVector,
    partial_trace,
    spectral_entropy,
    von_neumann_entropy,
)

#: Sentinel for pairs that were not requested in a DistanceField.  Zero is a
#: meaningful distance (the "null distance" case), so it cannot double as a
#: missing-value marker.
UNCOMPUTED = float("nan")


def _reduced_entropy(joint: DensityMatrix, part: set[int]) -> float:
    if part == set(joint.labels):
        return von_neumann_entropy(joint)
    return von_neumann_entropy(partial_trace(joint, part))


def info_distance(joint: DensityMatrix, part_a: Iterable[int], part_b: Iterable[int]) -> float:
    """2 S(AB) - S(A) - S(B) over reductions of `joint`, in bits."""
    a, b = set(part_a), set(part_b)
    if not a or not b:
        raise ValueError("both parts must be nonempty")
    if a & b:
        raise ValueError("parts must be disjoint")
    missing = (a | b) - set(joint.labels)
    if missing:
        raise ValueError(f"labels {sorted(missing)!r} not in the joint state")
    s_ab = _reduced_entropy(joint, a | b)
    return 2.0 * s_ab - _reduced_entropy(joint, a) - _reduced_entropy(joint, b)


def mutual_information(joint: DensityMatrix, part_a: Iterable[int], part_b: Iterable[int]) -> float:
    """S(A) + S(B) - S(AB) in bits."""
    a, b = set(part_a), set(part_b)
    if not a or not b:
        raise ValueError("both parts must be nonempty")
    if a & b:
        raise ValueError("parts must be disjoint")
    missing = (a | b) - set(joint.labels)
    if missing:
        raise ValueError(f"labels {sorted(missing)!r} not in the joint state")
    return _reduced_entropy(joint, a) + _reduced_entropy(joint, b) - _reduced_entropy(joint, a | b)


def _block_positions(group: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Register positions of the block that `group` (sorted positions) is read from.

    The register is cut into the chunks {0, 1}, {2, 3}, ...; the block is
    the chunks the group touches, and a group inside one chunk also takes
    the chunk to its right (to its left for the last chunk).
    """
    chunks = {p // 2 for p in group}
    last = (n - 1) // 2
    if len(chunks) == 1 and last > 0:
        (c,) = chunks
        chunks.add(c + 1 if c < last else c - 1)
    return tuple(p for c in sorted(chunks) for p in (2 * c, 2 * c + 1) if p < n)


@lru_cache(maxsize=32)
def _block_plan(n: int, groups: tuple[tuple[int, ...], ...]):
    """Which blocks to build and how to trace each group's state out of them.

    `groups` holds sorted register positions.  Returns the blocks as
    (transpose order, block size), and for each number k of kept
    positions the group indices with the traces that give their
    2^k x 2^k states in that order, as (block size, einsum subscripts,
    block indices).  The plan is all tuples, since every caller of the
    cache gets the same one.
    """
    blocks: dict[tuple[int, ...], int] = {}
    traces: dict[tuple[int, tuple[int, ...]], list[tuple[int, int]]] = {}
    for g, group in enumerate(groups):
        block = _block_positions(group, n)
        b = blocks.setdefault(block, len(blocks))
        kept = tuple(block.index(p) for p in group)
        traces.setdefault((len(block), kept), []).append((b, g))
    spectra: dict[int, tuple[list[int], list]] = {}  # k -> (group indices, traces)
    for (size, kept), uses in traces.items():
        row = [chr(ord("a") + i) for i in range(size)]
        col = [chr(ord("A") + i) if i in kept else row[i] for i in range(size)]
        out = "".join(row[i] for i in kept) + "".join(col[i] for i in kept)
        idx, parts = spectra.setdefault(len(kept), ([], []))
        idx.extend(g for _, g in uses)
        parts.append((size, f"z{''.join(row)}{''.join(col)}->z{out}", tuple(b for b, _ in uses)))
    orders = tuple((block + tuple(p for p in range(n) if p not in block), len(block))
                   for block in blocks)
    return orders, tuple((k, tuple(idx), tuple(parts)) for k, (idx, parts) in spectra.items())


def _reduced_entropies(state: StateVector, groups: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Entropy in bits of `state` reduced to each label group.

    The register is cut into consecutive two-position chunks, and each
    group is read from the block of the chunks it touches (a group inside
    one chunk takes a neighbouring chunk too; see `_block_positions`).
    Each block state costs one transpose of the amplitudes into a reused
    buffer and one m @ m^H, of at most 16x16 for sites and pairs, so an
    all-pairs pass on N qubits builds (ceil(N/2) choose 2) block states, not
    one state per pair.  Each group's state is traced out of its block
    state with kept labels in register order, as in `partial_trace`: one
    einsum per (block size, kept positions) over the stacked block
    states, then one eigvalsh per reduced-state size.  A group's block
    depends only on its own positions, so its entropy is bitwise the same
    whatever else is requested.  The plan depends only on N and the
    positions, so a run builds it once.  The state is already validated
    and each reduced state is Hermitian with unit trace, so only the sign
    of the spectrum is checked.
    """
    n = state.n_qubits
    positions = tuple(tuple(sorted(state.position(lab) for lab in group)) for group in groups)
    blocks, spectra = _block_plan(n, positions)
    psi = state.amplitudes.reshape((2,) * n)
    moved, conj = np.empty_like(psi), np.empty(psi.size, dtype=complex)
    block_states = []
    for order, size in blocks:
        np.copyto(moved, np.transpose(psi, order))
        m = moved.reshape(1 << size, -1)
        block_states.append(m @ np.conjugate(m, out=conj.reshape(m.shape)).T)
    out = np.empty(len(groups))
    for k, idx, parts in spectra:
        rdms = np.concatenate([
            np.einsum(subscripts, np.stack([block_states[b] for b in uses])
                      .reshape((-1,) + (2,) * (2 * size))).reshape(-1, 1 << k, 1 << k)
            for size, subscripts, uses in parts])
        out[list(idx)] = spectral_entropy(np.linalg.eigvalsh(rdms))
    return out


def _two_qubit_distances(rho: np.ndarray) -> np.ndarray:
    """delta between the two qubits of each 4x4 density matrix in a stack.

    The marginals are traced out of the 4x4 matrices, as `info_distance`
    does for one matrix.
    """
    r = rho.reshape(-1, 2, 2, 2, 2)
    s_ab, s_a, s_b = (
        spectral_entropy(np.linalg.eigvalsh(m))
        for m in (rho, np.einsum("katbt->kab", r), np.einsum("ktatb->kab", r))
    )
    return 2.0 * s_ab - s_a - s_b


def site_entropies(state: StateVector, labels: Sequence[int] | None = None) -> dict[int, float]:
    """Single-qubit reduced entropies S(q_i), in bits."""
    labels = tuple(labels) if labels is not None else state.labels
    return dict(zip(labels, map(float, _reduced_entropies(state, [(lab,) for lab in labels]))))


@dataclass(frozen=True, eq=False)
class DistanceField:
    """Symmetric matrix of pairwise distances over an ordered label list.

    Entries for pairs that were not computed hold NaN; the diagonal is
    exactly zero.  `site_entropies` maps each stored site that a computed
    pair touches to S(q) in bits, taken in the same pass as the pairs.
    """

    time_step: int
    labels: tuple[int, ...]
    values: np.ndarray
    site_entropies: dict[int, float] = None  # type: ignore[assignment]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        n = len(self.labels)
        if vals.shape != (n, n):
            raise ValueError(f"values shape {vals.shape} does not match {n} labels")
        asym = np.nanmax(np.abs(vals - vals.T), initial=0.0)
        if asym > 1e-10:
            raise ValueError(f"distance field asymmetric by {asym!r}")
        if np.any(np.diagonal(vals) != 0.0):
            raise ValueError("distance field diagonal must be exactly 0")
        both_nan = np.isnan(vals) & np.isnan(vals.T)
        if not np.all(np.isnan(vals) == both_nan):
            raise ValueError("NaN sentinel pattern must be symmetric")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "site_entropies", dict(self.site_entropies or {}))

    def value(self, a: int, b: int) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])

    def computed_pairs(self) -> list[tuple[int, int]]:
        out = []
        for i in range(len(self.labels)):
            for j in range(i + 1, len(self.labels)):
                if not math.isnan(self.values[i, j]):
                    out.append((self.labels[i], self.labels[j]))
        return out


def _select_pairs(labels: tuple[int, ...], pairs) -> list[tuple[int, int]]:
    if pairs == "all_pairs":
        return [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    if pairs == "nearest_neighbor":
        return [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
    chosen = []
    for a, b in pairs:
        if a == b or a not in labels or b not in labels:
            raise ValueError(f"bad pair ({a!r}, {b!r})")
        chosen.append((a, b))
    if not chosen:
        raise ValueError("empty pair selection")
    return chosen


def distance_field(
    state: StateVector,
    pairs="all_pairs",
    include_boundary: bool = False,
    boundary_labels: Iterable[int] = (),
    time_step: int = 0,
) -> DistanceField:
    """Pairwise information distances from 2-qubit reductions of a pure state.

    `pairs` is "all_pairs", "nearest_neighbor" (chain adjacency in label
    order), or an explicit iterable of label pairs, e.g. the edge set of a
    slice complex.  Boundary labels are dropped unless `include_boundary`.
    A boundary label absent from the state is a virtual |0> qubit at the
    chain end it bounds: it adds no entropy, so its distance to x is S(x).
    """
    boundary = tuple(dict.fromkeys(boundary_labels))
    labels = tuple(l for l in state.labels if include_boundary or l not in boundary)
    if include_boundary:
        virtual = [b for b in boundary if b not in state.labels]
        first = min(state.labels)
        labels = (*[b for b in virtual if b < first], *labels, *[b for b in virtual if b > first])
    if len(labels) < 2:
        raise ValueError("need at least two labels for a distance field")
    values = np.full((len(labels), len(labels)), UNCOMPUTED)
    np.fill_diagonal(values, 0.0)
    index = {lab: i for i, lab in enumerate(labels)}
    chosen = _select_pairs(labels, pairs)
    stored = set(state.labels)
    sites = [lab for lab in dict.fromkeys(lab for pair in chosen for lab in pair) if lab in stored]
    whole = [pair for pair in chosen if set(pair) <= stored]
    entropies = _reduced_entropies(state, [(lab,) for lab in sites] + whole)
    s_site = dict(zip(sites, map(float, entropies)))
    s_pair = dict(zip(whole, entropies[len(sites):]))
    for a, b in chosen:
        s_a, s_b = s_site.get(a, 0.0), s_site.get(b, 0.0)
        d = 2.0 * s_pair.get((a, b), s_a + s_b) - s_a - s_b
        values[index[a], index[b]] = d
        values[index[b], index[a]] = d
    return DistanceField(time_step=time_step, labels=labels, values=values,
                         site_entropies=s_site)


@dataclass(frozen=True)
class BlockReport:
    """Structure of an all-pairs distance field split by its zero-graph.

    Sites land in one region when their mutual distance is below `tol`.
    The three-region signature of an entangled block in progress is two
    regions with every cross pair at least `positive_tol`.
    """

    regions: tuple[tuple[int, ...], ...]
    pattern_holds: bool
    cross_min: float | None
    note: str


def block_structure_report(
    field: DistanceField,
    tol: float = 1e-8,
    positive_tol: float = 1e-6,
    seed_site: int | None = None,
) -> BlockReport:
    """Partition sites by null distances and test the block pattern.

    `seed_site`, which puts its own region first, must be one of the
    field's labels.
    """
    labels = field.labels
    n = len(labels)
    if np.any(np.isnan(field.values)):
        raise ValueError("block structure needs an all-pairs field")
    if seed_site is not None and seed_site not in labels:
        raise ValueError(f"seed site {seed_site} is not one of the sites {list(labels)}")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if abs(field.values[i, j]) <= tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    regions = sorted(groups.values(), key=lambda g: (len(g), g))
    cross = [
        field.values[i, j]
        for gi in regions
        for gj in regions
        if gi is not gj
        for i in gi
        for j in gj
    ]
    cross_min = float(min(cross)) if cross else None
    ok = len(regions) == 2 and cross_min is not None and cross_min >= positive_tol
    for g in regions:
        for i in g:
            for j in g:
                if abs(field.values[i, j]) > tol:
                    ok = False
    if len(regions) == 1:
        note = "single null region: no positive boundary (uniform field)"
    elif ok:
        note = "two regions separated by a positive-distance boundary"
    else:
        note = "irregular pattern"
    region_labels = tuple(tuple(labels[i] for i in g) for g in regions)
    if seed_site is not None and len(region_labels) == 2:
        if seed_site in region_labels[1]:
            region_labels = (region_labels[1], region_labels[0])
    return BlockReport(regions=region_labels, pattern_holds=ok, cross_min=cross_min, note=note)


@dataclass(frozen=True)
class SweepCurve:
    """delta sampled over a strictly increasing parameter grid."""

    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values differ in length")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", tuple(float(z) for z in self.grid))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def sign_changes(self) -> list[tuple[float, float]]:
        """Grid intervals whose endpoint values have strictly opposite signs."""
        out = []
        for i in range(len(self.grid) - 1):
            v0, v1 = self.values[i], self.values[i + 1]
            if (v0 > 0 and v1 < 0) or (v0 < 0 and v1 > 0):
                out.append((self.grid[i], self.grid[i + 1]))
        return out


_BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


def _werner_matrices(z: np.ndarray) -> np.ndarray:
    """(1-z) I/4 + z |b+><b+| for each z of a 1-D array, as a (len(z), 4, 4) stack."""
    if not np.all((0.0 <= z) & (z <= 1.0)):
        raise ValueError("z must lie in [0, 1]")
    z = z[:, None, None]
    return (1.0 - z) * np.eye(4, dtype=complex) / 4.0 + z * np.outer(_BELL_PLUS, _BELL_PLUS.conj())


def werner_state(z: float) -> DensityMatrix:
    """(1-z) I/4 + z |b+><b+| on labels (0, 1)."""
    return DensityMatrix(_werner_matrices(np.array([z], dtype=float))[0], (0, 1))


def pure_family_state(z: float) -> StateVector:
    """sqrt(1-z)|00> + sqrt(z)(|01>+|10>), normalized by 1/sqrt(1+z).

    The raw two-parameter family has squared norm 1+z; the stated
    properties (zero distance only at z=0, negative elsewhere) hold for
    the normalized family, so normalization is applied here.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError("z must lie in [0, 1]")
    amps = np.array([math.sqrt(1.0 - z), math.sqrt(z), math.sqrt(z), 0.0], dtype=complex)
    return StateVector(amps / math.sqrt(1.0 + z), (0, 1))


def werner_sweep(grid: Iterable[float]) -> SweepCurve:
    """delta(z) for the Werner family; +2 at z=0, -2 at z=1."""
    grid = tuple(grid)
    vals = _two_qubit_distances(_werner_matrices(np.array(grid, dtype=float)))
    return SweepCurve(grid=grid, values=tuple(vals))


def pure_family_sweep(grid: Iterable[float]) -> SweepCurve:
    """delta(z) for the normalized pure family; 0 at z=0, negative beyond."""
    grid = tuple(grid)
    amps = np.array([pure_family_state(z).amplitudes for z in grid]).reshape(-1, 4, 1)
    vals = _two_qubit_distances(amps @ amps.conj().transpose(0, 2, 1))
    return SweepCurve(grid=grid, values=tuple(vals))


def werner_null_crossing(tol: float = 1e-8) -> float:
    """Bisect the unique z* in (1/3, 1) where the Werner delta changes sign."""
    lo, hi = 1.0 / 3.0, 1.0

    def f(z: float) -> float:
        return _two_qubit_distances(_werner_matrices(np.array([z])))[0]

    flo = f(lo)
    if flo <= 0:
        raise ValueError("no sign change bracketed above z = 1/3")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
