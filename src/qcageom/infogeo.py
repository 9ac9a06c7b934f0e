"""Information distance between qubit subsystems and derived fields.

The central quantity is the pairwise distance

    delta(A, B) = 2 S(AB) - S(A) - S(B)        [bits]

which is 0 for pure product marginals, negative in the presence of
bipartite quantum correlations, and positive when classical uncertainty
in the joint system dominates.  It can be negative, so the geometry it
induces is pseudo-Riemannian rather than Riemannian.

The Werner and pure-family sweeps take delta from the closed-form spectra
of their states, so they need no numpy, and their endpoints are exact:
+2 and -2 for Werner, 0 and -2 for the pure family.  numpy and `statealg`
are imported by the functions that build or measure a state, so importing
this module, and the sweeps, load neither.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

from .qca import ENTROPY_FLOOR, Record

if TYPE_CHECKING:
    import numpy as np

    from .statealg import DensityMatrix, StateVector

#: Sentinel for pairs that were not requested in a DistanceField.  Zero is a
#: meaningful distance (the "null distance" case), so it cannot double as a
#: missing-value marker.
UNCOMPUTED = float("nan")

#: The bisection tolerance of `werner_null_crossing`, which `sweep` writes.
NULL_CROSSING_TOL = 1e-8


def __getattr__(name: str):
    if name == "partial_trace":
        # imported where it is used; reachable because perfbench/tests/test_traced.py
        # checks that a traced run restores `infogeo.partial_trace`
        from .statealg import partial_trace
        return partial_trace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _reduced_entropy(joint: DensityMatrix, part: set[int]) -> float:
    from .statealg import partial_trace, von_neumann_entropy

    if part == set(joint.labels):
        return von_neumann_entropy(joint)
    return von_neumann_entropy(partial_trace(joint, part))


def _parts(joint: DensityMatrix, part_a: Iterable[int],
           part_b: Iterable[int]) -> tuple[set[int], set[int]]:
    """The two parts as sets; ValueError unless both are nonempty, disjoint labels of `joint`."""
    a, b = set(part_a), set(part_b)
    if not a or not b:
        raise ValueError("both parts must be nonempty")
    if a & b:
        raise ValueError("parts must be disjoint")
    missing = (a | b) - set(joint.labels)
    if missing:
        raise ValueError(f"labels {sorted(missing)!r} not in the joint state")
    return a, b


def info_distance(joint: DensityMatrix, part_a: Iterable[int], part_b: Iterable[int]) -> float:
    """2 S(AB) - S(A) - S(B) over reductions of `joint`, in bits."""
    a, b = _parts(joint, part_a, part_b)
    s_ab = _reduced_entropy(joint, a | b)
    return 2.0 * s_ab - _reduced_entropy(joint, a) - _reduced_entropy(joint, b)


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
    (the block's positions then the rest's, block size), and for each
    number k of kept positions the group indices with the traces that
    give their 2^k x 2^k states in that order, as (block size, einsum
    subscripts, block indices).  The plan is all tuples, since every
    caller of the cache gets the same one.
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


def _block_states(state: StateVector, blocks) -> list[np.ndarray]:
    """Each block's state, from the nonzero amplitudes alone.

    One `_amplitude_bits` pass finds the nonzero amplitudes.  An
    amplitude's index in the register permuted to a block's order splits
    into its row (the block's bits) and its column (the rest's bits).  A
    block's matrix m holds one column per rest configuration with a
    nonzero amplitude, in the permuted register's column order, so m @ m^H
    drops only zero terms.  The rows and columns of all blocks come from
    one vectorized pass and one `np.unique`; each block then costs one
    small product of its own width.
    """
    import numpy as np

    n = state.n_qubits
    nonzero = np.flatnonzero(_amplitude_bits(state.amplitudes))
    shifts = np.arange(n - 1, -1, -1)
    weights = np.zeros((n, len(blocks)), dtype=np.int64)  # each position's bit, per block
    orders = np.array([order for order, _ in blocks], dtype=np.int64).reshape(-1, n)
    weights[orders.T, np.arange(len(blocks))] = (1 << shifts)[:, None]
    moved = ((nonzero[:, None] >> shifts) & 1) @ weights  # index in each permuted register
    rest = n - np.array([size for _, size in blocks], dtype=np.int64)
    rows, keys = (moved >> rest).T, (moved & ((1 << rest) - 1)).T
    tags = np.arange(len(blocks)) << n  # above every key, so one sort serves all blocks
    tagged, cols = np.unique((keys + tags[:, None]).ravel(), return_inverse=True)
    starts = np.searchsorted(tagged, np.append(tags, len(blocks) << n))
    cols = cols.reshape(keys.shape) - starts[:-1, None]
    values = state.amplitudes[nonzero]
    block_states = []
    for (_, size), row, col, width in zip(blocks, rows, cols, np.diff(starts).tolist()):
        m = np.zeros((1 << size, width), dtype=complex)
        m[row, col] = values
        block_states.append(m @ m.conj().T)
    return block_states


def _amplitude_bits(amplitudes: np.ndarray) -> np.ndarray:
    """Each amplitude's bits other than its two sign bits, as one word.

    A word is nonzero exactly when its amplitude is: -0.0 counts as zero
    and a subnormal as nonzero, whatever the floating-point mode.
    """
    import numpy as np

    words = amplitudes.view(np.uint64).reshape(-1, 2)  # real and imaginary bits
    bits = words[:, 0] | words[:, 1]
    bits <<= np.uint64(1)
    return bits


def _reduced_entropies(state: StateVector,
                       groups: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Entropy in bits of `state` reduced to each label group, and each group's p1.

    p1 is <1|rho|1> of a single-label group's 2x2 state, read off the
    states whose spectra give the entropies, and NaN for a larger group.

    The register is cut into consecutive two-position chunks, and each
    group is read from the block of the chunks it touches (a group inside
    one chunk takes a neighbouring chunk too; see `_block_positions`).
    Each block state is one m @ m^H, of at most 16x16 for sites and
    pairs, so an all-pairs pass on N qubits builds (ceil(N/2) choose 2)
    block states, not one state per pair.  m holds only the columns with
    a nonzero amplitude (`_block_states`): every pi3 snapshot at N=14 and
    N=16 has at most 106 and 137, and GHZ and propagate snapshots have 2.
    Each group's state is traced out of its block state with kept labels
    in register order, as in `partial_trace`: one einsum per (block
    size, kept positions) over the stacked block states, then one
    eigvalsh per reduced-state size.  A group's block depends only on
    its own positions and the state, so its entropy is bitwise the same
    whatever else is requested.  The plan depends only on N and the
    positions, so a run builds it once.  The state is already validated
    and each reduced state is Hermitian with unit trace, so only the sign
    of the spectrum is checked.
    """
    import numpy as np

    from .statealg import spectral_entropy

    n = state.n_qubits
    where = {lab: p for p, lab in enumerate(state.labels)}
    positions = tuple(tuple(sorted(where[lab] for lab in group)) for group in groups)
    blocks, spectra = _block_plan(n, positions)
    block_states = _block_states(state, blocks)
    out, p1 = np.empty(len(groups)), np.full(len(groups), math.nan)
    for k, idx, parts in spectra:
        rdms = np.concatenate([
            np.einsum(subscripts, np.stack([block_states[b] for b in uses])
                      .reshape((-1,) + (2,) * (2 * size))).reshape(-1, 1 << k, 1 << k)
            for size, subscripts, uses in parts])
        out[list(idx)] = spectral_entropy(np.linalg.eigvalsh(rdms))
        if k == 1:
            p1[list(idx)] = rdms[:, 1, 1].real
    return out, p1


def site_entropies(state: StateVector) -> dict[int, float]:
    """Single-qubit reduced entropies S(q_i), in bits, of every stored site."""
    entropies, _ = _reduced_entropies(state, [(lab,) for lab in state.labels])
    return dict(zip(state.labels, map(float, entropies)))


class DistanceField(Record, eq=False):
    """Symmetric matrix of pairwise distances over an ordered label list.

    Entries for pairs that were not computed hold NaN; the diagonal is
    exactly zero.  `site_entropies` maps each stored site that a computed
    pair touches to S(q) in bits, taken in the same pass as the pairs, and
    `site_p1` maps the same sites to <1|rho_q|1> of the same states.
    """

    time_step: int
    labels: tuple[int, ...]
    values: np.ndarray
    site_entropies: dict[int, float] = None  # type: ignore[assignment]
    site_p1: dict[int, float] = None  # type: ignore[assignment]

    def __post_init__(self):
        import numpy as np

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
        object.__setattr__(self, "site_p1", dict(self.site_p1 or {}))


def _select_pairs(labels: tuple[int, ...], pairs: str) -> list[tuple[int, int]]:
    """The label pairs of a named selection, each in label order."""
    if pairs == "all_pairs":
        return [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    if pairs == "nearest_neighbor":
        return [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
    raise ValueError(f"pairs must be 'all_pairs' or 'nearest_neighbor', not {pairs!r}")


def distance_field(
    state: StateVector,
    pairs: str = "all_pairs",
    include_boundary: bool = False,
    boundary_labels: Iterable[int] = (),
    time_step: int = 0,
) -> DistanceField:
    """Pairwise information distances from 2-qubit reductions of a pure state.

    `pairs` is "all_pairs" or "nearest_neighbor" (chain adjacency in label
    order).  Boundary labels are dropped unless `include_boundary`.
    A boundary label absent from the state is a virtual |0> qubit at the
    chain end it bounds: it adds no entropy, so its distance to x is S(x).
    A distance or site entropy within `ENTROPY_FLOOR` (1e-12 bits) of zero
    is stored as +0.0, so that an exact zero does not carry a rounding
    residue that depends on the summation order; a negative distance
    beyond the floor keeps its sign.  A site's p1 is stored as computed.
    """
    import numpy as np

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
    entropies, p1 = _reduced_entropies(state, [(lab,) for lab in sites] + whole)
    s_site = dict(zip(sites, map(float, entropies)))
    s_pair = dict(zip(whole, entropies[len(sites):]))
    for a, b in chosen:
        s_a, s_b = s_site.get(a, 0.0), s_site.get(b, 0.0)
        d = 2.0 * s_pair.get((a, b), s_a + s_b) - s_a - s_b
        values[index[a], index[b]] = d
        values[index[b], index[a]] = d
    values[np.abs(values) <= ENTROPY_FLOOR] = 0.0
    s_site = {a: s if s > ENTROPY_FLOOR else 0.0 for a, s in s_site.items()}  # S is never < 0
    return DistanceField(time_step=time_step, labels=labels, values=values,
                         site_entropies=s_site, site_p1=dict(zip(sites, map(float, p1))))


class BlockReport(Record):
    """Structure of an all-pairs distance field split by its zero-graph.

    Sites land in one region when a chain of null distances (|delta| <=
    `tol`) joins them.  The three-region signature of an entangled block in
    progress is two regions with every cross pair at least `positive_tol`.
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

    The regions are the connected components of the graph whose edges are
    the pairs i < j with |delta| <= `tol`, read off the transitive closure
    of its adjacency matrix, and ordered by (size, positions).  The pattern
    holds when there are two regions, every pair inside a region is null,
    and every cross pair is at least `positive_tol`.  `seed_site`, which
    puts its own region first, must be one of the field's labels.
    """
    import numpy as np

    labels, values = field.labels, field.values
    n = len(labels)
    if np.any(np.isnan(values)):
        raise ValueError("block structure needs an all-pairs field")
    if seed_site is not None and seed_site not in labels:
        raise ValueError(f"seed site {seed_site} is not one of the sites {list(labels)}")
    near = np.triu(np.abs(values) <= tol, 1)
    same = np.linalg.matrix_power((near | near.T | np.eye(n, dtype=bool)).astype(float), n) > 0
    regions = sorted({tuple(np.flatnonzero(row)) for row in same}, key=lambda g: (len(g), g))
    cross_min = float(values[~same].min()) if len(regions) > 1 else None
    ok = (len(regions) == 2 and cross_min >= positive_tol
          and bool(np.all(np.abs(values[same]) <= tol)))
    if len(regions) == 1:
        note = "single null region: no positive boundary (uniform field)"
    elif ok:
        note = "two regions separated by a positive-distance boundary"
    else:
        note = "irregular pattern"
    region_labels = tuple(tuple(labels[i] for i in g) for g in regions)
    if len(region_labels) == 2 and seed_site in region_labels[1]:
        region_labels = (region_labels[1], region_labels[0])
    return BlockReport(regions=region_labels, pattern_holds=ok, cross_min=cross_min, note=note)


class SweepCurve(Record):
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


def _check_z(z) -> float:
    """`z` as a float; ValueError unless it lies in [0, 1]."""
    z = float(z)
    if not 0.0 <= z <= 1.0:  # NaN fails too
        raise ValueError("z must lie in [0, 1]")
    return z


def _xlnx(x: float) -> float:
    """x ln x, or 0 for an eigenvalue up to ENTROPY_FLOOR, as `spectral_entropy` counts it."""
    return x * math.log(x) if x > ENTROPY_FLOOR else 0.0


def _bits(nats: float) -> float:
    """The entropy -sum(lambda ln lambda) / ln 2 from its sum, clipped at 0 (+0.0, not -0.0)."""
    return max(0.0 - nats / math.log(2.0), 0.0)


def _werner_delta(z: float) -> float:
    """delta of `werner_state(z)`.

    rho_AB has eigenvalues (1+3z)/4 once and (1-z)/4 three times, and both
    marginals are I/2, so S(A) = S(B) = 1.
    """
    s_ab = _bits(_xlnx((1.0 + 3.0 * z) / 4.0) + 3.0 * _xlnx((1.0 - z) / 4.0))
    return 2.0 * s_ab - 2.0


def _pure_family_delta(z: float) -> float:
    """delta of the pure state (sqrt(1-z)|00> + sqrt(z)(|01>+|10>)) / sqrt(1+z).

    S(AB) = 0 and S(B) = S(A).  The marginal has eigenvalues
    (1 +- sqrt((1-z)(1+3z))/(1+z))/2.  The smaller one is taken as det /
    larger, det = (z/(1+z))^2, and the larger one's log as log1p(-smaller),
    so nothing cancels near z = 0.
    """
    big = (1.0 + math.sqrt((1.0 - z) * (1.0 + 3.0 * z)) / (1.0 + z)) / 2.0
    small = (z / (1.0 + z)) ** 2 / big
    s_a = _bits(_xlnx(small) + big * math.log1p(-small))
    return 0.0 - s_a - s_a


def werner_state(z: float) -> DensityMatrix:
    """(1-z) I/4 + z |b+><b+| on labels (0, 1)."""
    import numpy as np

    from .statealg import DensityMatrix

    z = _check_z(z)
    bell_plus = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    rho = (1.0 - z) * np.eye(4, dtype=complex) / 4.0 + z * np.outer(bell_plus, bell_plus.conj())
    return DensityMatrix(rho, (0, 1))


def werner_sweep(grid: Iterable[float]) -> SweepCurve:
    """delta(z) for the Werner family; exactly +2 at z=0 and -2 at z=1."""
    grid = tuple(grid)
    return SweepCurve(grid=grid, values=tuple(_werner_delta(_check_z(z)) for z in grid))


def pure_family_sweep(grid: Iterable[float]) -> SweepCurve:
    """delta(z) for the normalized pure family; exactly 0 at z=0 and -2 at z=1, negative between."""
    grid = tuple(grid)
    return SweepCurve(grid=grid, values=tuple(_pure_family_delta(_check_z(z)) for z in grid))


def werner_null_crossing(tol: float = NULL_CROSSING_TOL) -> float:
    """Bisect the unique z* in (1/3, 1) where the Werner delta changes sign.

    Bisection stops when the bracket is at most `tol` wide, a finite number
    > 0, or when no float lies between its ends.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number > 0, not {tol!r}")
    lo, hi = 1.0 / 3.0, 1.0
    if _werner_delta(lo) <= 0:
        raise ValueError("no sign change bracketed above z = 1/3")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _werner_delta(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
