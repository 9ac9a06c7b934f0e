"""Simplicial complexes on foliation slices and their GF(2) homology.

Two constructions are provided.  The nerve construction assigns one
vertex to the shadow (causal past projected onto the slice) of each
maximal element of a thickened anti-chain, and a simplex to every family
of shadows with a common wire.  The unitary-shadow construction keeps
the individual wires of the slice as vertices and lets every update
gate contribute the full simplex over the sites its rule neighborhood
reaches within the chosen number of global updates; this reflects the
static topology the update rules induce on the register.  With the
controlled-gate simplification, edges joining the two control sites of
a gate are removed unless some other gate's shadow also covers the
pair, which turns the one-update complex into a discrete line.
The whole thickness filtration comes from one pass over the poset's gates
in layer order: thickness t adds the spans, clipped to the slice, of the
rule gates t global updates up, and the counts of the spans that hold
each control pair carry over from one thickness to the next.
"""
from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Iterable

from .causal import AntiChain, CausalPoset, Gate, Wire, thicken
from .qca import Record

BettiVector = tuple[int, ...]


def _maximal(sets: Iterable[frozenset]) -> frozenset[frozenset]:
    """The non-empty sets of a family that lie in no other set of it."""
    kept: list[frozenset] = []
    for s in sorted({s for s in sets if s}, key=len, reverse=True):
        if not any(s <= k for k in kept):
            kept.append(s)
    return frozenset(kept)


class SimplicialComplex(Record):
    """Vertex set plus a face-closed family of simplices.

    The complex is stored by its maximal simplices (its cover).  The face
    set `simplices` is derived from the cover on first use; `dim`,
    `maximal_simplices` and `betti` never need it.
    """

    vertices: tuple
    _cover: frozenset[frozenset]

    def __init__(self, vertices: Iterable, simplices: Iterable[Iterable]):
        verts = tuple(sorted(set(vertices)))
        simps = frozenset(frozenset(s) for s in simplices)
        vert_set = set(verts)
        for s in simps:
            if not s:
                raise ValueError("empty simplex")
            if not s <= vert_set:
                raise ValueError(f"simplex {sorted(s)!r} uses unknown vertices")
            for face in itertools.combinations(s, len(s) - 1):
                if face and frozenset(face) not in simps:
                    raise ValueError(f"face closure violated at {sorted(s)!r}")
        facets = {s - {v} for s in simps if len(s) > 1 for v in s}
        self._set_fields(verts, simps - facets)
        object.__setattr__(self, "simplices", simps)

    @classmethod
    def _from_cover(cls, vertices: Iterable, cover: frozenset[frozenset]) -> "SimplicialComplex":
        out = cls.__new__(cls)
        out._set_fields(tuple(sorted(set(vertices))), cover)
        return out

    @classmethod
    def from_maximal(cls, maximal: Iterable[Iterable], extra_vertices: Iterable = ()) -> "SimplicialComplex":
        """Downward closure of the given simplices plus isolated vertices."""
        sets = [frozenset(m) for m in maximal]
        verts = set(extra_vertices).union(*sets)
        return cls._from_cover(verts, _maximal([*sets, *(frozenset([v]) for v in verts)]))

    @functools.cached_property
    def simplices(self) -> frozenset[frozenset]:
        faces = set()
        for m in self._cover:
            for k in range(1, len(m) + 1):
                faces.update(map(frozenset, itertools.combinations(m, k)))
        return frozenset(faces)

    @property
    def dim(self) -> int:
        return max((len(s) - 1 for s in self._cover), default=-1)

    def k_simplices(self, k: int) -> list[frozenset]:
        return sorted((s for s in self.simplices if len(s) == k + 1),
                      key=lambda s: tuple(sorted(map(repr, s))))

    def edges(self) -> list[tuple]:
        return [tuple(sorted(e)) for e in self.k_simplices(1)]

    def maximal_simplices(self) -> list[frozenset]:
        return list(self._cover)

    def without_edges(self, removed: Iterable[tuple]) -> "SimplicialComplex":
        """Drop the given edges and every simplex containing one of them.

        A maximal simplex that contains a removed edge {a, b} splits into
        its two facets without a and without b, until no piece contains a
        removed edge.
        """
        removed = {frozenset(e) for e in removed}
        pending, seen, kept = list(self._cover), set(self._cover), []
        while pending:
            s = pending.pop()
            edge = next((r for r in removed if r <= s), None)
            if edge is None:
                kept.append(s)
                continue
            for v in edge:
                piece = s - {v}
                if piece not in seen:
                    seen.add(piece)
                    pending.append(piece)
        return SimplicialComplex._from_cover(self.vertices, _maximal(kept))

    def to_json_obj(self) -> dict:
        return {
            "vertices": [list(v) if isinstance(v, tuple) else v for v in self.vertices],
            "maximal_simplices": sorted(
                [sorted(list(x) if isinstance(x, tuple) else x for x in s)
                 for s in self.maximal_simplices()]
            ),
        }


def _gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of bit-mask rows: one basis row per leading bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def boundary_rank(complex_: SimplicialComplex, k: int) -> int:
    """Rank of the k-th boundary matrix over GF(2)."""
    if k <= 0 or k > complex_.dim:
        return 0
    faces = {s: i for i, s in enumerate(complex_.k_simplices(k - 1))}
    columns = []
    for s in complex_.k_simplices(k):
        mask = 0
        for face in itertools.combinations(sorted(s, key=repr), k):
            mask |= 1 << faces[frozenset(face)]
        columns.append(mask)
    return _gf2_rank(columns)


def _strong_collapse_core(cover: Iterable[frozenset]) -> frozenset[frozenset]:
    """Cover of the complex left after dropping dominated vertices.

    A vertex v is dominated when every maximal simplex containing v also
    contains some other vertex u; deleting v is a strong collapse, which
    keeps the homotopy type (Barmak and Minian 2012).  Iterating the nerve
    of the cover reaches the same core up to isomorphism, but a nerve can
    be far larger than its complex: maximal simplices that share one
    vertex span a simplex of the nerve.
    """
    cover = frozenset(cover)
    changed = True
    while changed:
        changed = False
        for v in frozenset().union(*cover):
            star = [s for s in cover if v in s]
            if len(frozenset.intersection(*star)) > 1:
                cover = _maximal([*(cover - set(star)), *(s - {v} for s in star)])
                changed = True
    return cover


def _face_betti(complex_: SimplicialComplex) -> BettiVector:
    ranks = [boundary_rank(complex_, k) for k in range(complex_.dim + 2)]
    return tuple(
        len(complex_.k_simplices(k)) - ranks[k] - ranks[k + 1]
        for k in range(complex_.dim + 1)
    )


def betti(complex_: SimplicialComplex) -> BettiVector:
    """(b0, b1, ..., b_dim) over GF(2): b_k = dim C_k - rank d_k - rank d_{k+1}.

    The ranks are taken on the strong-collapse core, which has the same
    homology; the vector is padded with zeros to the complex's own dim.
    """
    d = complex_.dim
    if d < 0:
        return ()
    core = _strong_collapse_core(complex_._cover)
    b = _face_betti(SimplicialComplex._from_cover(frozenset().union(*core), core))
    return b + (0,) * (d + 1 - len(b))


def _strip_trailing_zeros(b: BettiVector) -> BettiVector:
    out = list(b)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def shadow_complex(poset: CausalPoset, base: AntiChain, i: int) -> SimplicialComplex:
    """Nerve of the causal shadows cast on `base` by a thickness-i band.

    Each maximal element of the thickened anti-chain whose history since
    the slice contains a genuine update gate casts its causal past onto
    the slice; identical shadows merge into one vertex.  Identity-only
    histories cast no shadow (they carry the wire, not the computation).
    The nerve's maximal simplices are the wire stars: for each wire of
    `base`, the shadows that contain it.
    """
    thick = thicken(poset, base, i)
    shadows = set()
    for m in thick.maximal_nodes:
        past = poset.ancestors(m)
        if not any(isinstance(x, Gate) and x.kind == "rule" for x in past & thick.members):
            continue
        shadow = past & base.nodes
        if shadow:
            shadows.add(shadow)
    if not shadows:
        raise ValueError("no update-gate shadows in the thickened anti-chain")
    vertex_of = {s: tuple(sorted(w.site for w in s)) for s in shadows}
    # A family of shadows with a common wire lies in that wire's star.
    stars = [[vertex_of[s] for s in shadows if w in s] for w in base.nodes]
    return SimplicialComplex.from_maximal(stars)


def _slice_sites(base: AntiChain) -> tuple[int, list[int]]:
    layers = {n.layer for n in base.nodes}
    if len(layers) != 1 or not all(isinstance(n, Wire) for n in base.nodes):
        raise ValueError("base must be a single-layer wire slice")
    return layers.pop(), sorted(n.site for n in base.nodes)


def _species_depth_above(poset: CausalPoset, base_layer: int) -> int:
    """Number of layers above `base_layer` before the first phase layer."""
    stop = min((g.layer for g in poset.gates if g.kind == "phase" and g.layer > base_layer),
               default=poset.n_layers + 1)
    return stop - base_layer - 1


def _filtration(poset: CausalPoset, base: AntiChain, i_max: int,
                controlled_simplification: bool) -> list[SimplicialComplex]:
    """The complexes of thicknesses 1..i_max, or of as many as the species layers allow.

    Thickness t adds the rule gates at layers base+2t-1 and base+2t, whose
    spans reach w = t; the spans and the pair counts carry over.
    """
    base_layer, sites = _slice_sites(base)
    i_max = min(i_max, _species_depth_above(poset, base_layer) // 2)
    lo, hi, site_set = sites[0], sites[-1], frozenset(sites)
    gates_at: dict[int, list[Gate]] = {}  # thickness -> the rule gates it adds
    for g in poset.gates:
        r = g.layer - base_layer
        if g.kind == "rule" and 1 <= r <= 2 * i_max:
            gates_at.setdefault((r + 1) // 2, []).append(g)
    spans: set[frozenset[int]] = set()
    held: Counter[int] = Counter()  # x -> spans that hold the pair (x, x + 2), with multiplicity
    pairs = set()  # x of each control pair (x, x + 2) that its own gate's span holds
    complexes = []
    for t in range(1, i_max + 1):
        for g in gates_at.get(t, ()):
            span = site_set.intersection(range(max(lo, g.site - t), min(hi, g.site + t) + 1))
            spans.add(span)
            held.update(x for x in span if x + 2 in span)
            if {g.site - 1, g.site + 1} <= span:
                pairs.add(g.site - 1)
        complex_ = SimplicialComplex.from_maximal(spans, extra_vertices=sites)
        if controlled_simplification:
            complex_ = complex_.without_edges((x, x + 2) for x in pairs if held[x] == 1)
        complexes.append(complex_)
    return complexes


def unitary_shadow_complex(
    poset: CausalPoset,
    base: AntiChain,
    i: int,
    controlled_simplification: bool = False,
) -> SimplicialComplex:
    """Slice topology induced by the update gates of i global updates.

    Vertices are the individual wires (sites) of the slice.  A rule gate
    g at site s, r species layers above the slice, contributes the simplex
    over its span, the slice wires within w = ceil(r/2) of s: the reach of
    its rule neighborhood measured in global updates.  `ancestors(g)`
    meets the slice in the register sites within r of s, so a span's
    register part lies in g's past, at half the causal speed; boundary
    wires 0 and N+1 sit in spans but in no past, as edge gates list no
    ancilla as a control.  One global update hence yields a chain of
    2-simplices; thicker bands fatten the blocks while the global line
    topology persists.
    """
    if i < 1:
        raise ValueError("thickness must be >= 1")
    base_layer, _ = _slice_sites(base)
    available = _species_depth_above(poset, base_layer)
    if 2 * i > available:
        raise ValueError(
            f"thickness {i} needs {2 * i} species layers above layer {base_layer}, "
            f"only {available} available"
        )
    return _filtration(poset, base, i, controlled_simplification)[-1]


class StableComplexResult(Record):
    """Outcome of scanning the thickness filtration for stable homology."""

    t_star: int | None
    complex: SimplicialComplex | None
    filtration: tuple[tuple[int, BettiVector], ...]
    note: str


def stable_complex(
    poset: CausalPoset,
    base: AntiChain,
    i_max: int,
    controlled_simplification: bool = False,
) -> StableComplexResult:
    """Earliest thickness whose complex is connected with settled Betti numbers.

    Returns the smallest t* with b0 = 1 and identical Betti vectors at
    t*, t*+1 and t*+2 (window bounded by i_max), plus the full filtration
    for inspection.  If the complex never becomes connected the register
    splits into separate computations and no t* is reported.
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    complexes = _filtration(poset, base, i_max, controlled_simplification)
    feasible = len(complexes)
    filtration = [(t, betti(c)) for t, c in enumerate(complexes, start=1)]
    bettis = {t: _strip_trailing_zeros(b) for t, b in filtration}
    t_star = None
    for t in range(1, feasible - 1):
        if bettis[t][0] != 1:
            continue
        if bettis[t] == bettis[t + 1] == bettis[t + 2]:
            t_star = t
            break
    if t_star is None:
        if any(b[0] == 1 for b in bettis.values()):
            note = f"no thickness in 1..{feasible} holds a stable Betti window"
        elif filtration:
            note = ("complex never becomes connected: treat the register as "
                    "separate computations")
        else:
            note = "trace too shallow for any thickness"
        return StableComplexResult(t_star=None, complex=None,
                                   filtration=tuple(filtration), note=note)
    return StableComplexResult(
        t_star=t_star,
        complex=complexes[t_star - 1],
        filtration=tuple(filtration),
        note=f"stable from thickness {t_star}",
    )
