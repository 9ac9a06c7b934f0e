"""Causal poset of a QCA run: wires, gates, cones, slices, thickening.

The poset is bipartite: wire nodes are the Hilbert spaces living between
layers, gate nodes are the unitaries between consecutive slices.  A wire
precedes every gate it feeds; a gate precedes the single wire it emits.
A controlled gate consumes its target and control wires but emits only
the fresh target wire; every wire that is not targeted in a layer is
re-emitted through an explicit identity gate.  This keeps consecutive
slices disjoint and encodes that the controls of one gate exert no
causal influence on each other through it.

Boundary ancillae are pinned to |0>, so edge-site gates list only their
interior neighbor as a control and boundary wires flow through identity
chains.  The state vectors of `qca` do not store the ancillae; here they
stay as the wires of sites 0 and N+1.

A change to the initial state outside a wire's ancestors leaves that
wire's computational-basis populations unchanged.  Its coherences may
change: a controlled gate kicks a target-dependent phase back onto its
controls, which the poset does not record.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .qca import RunTrace


@dataclass(frozen=True)
class Wire:
    site: int
    layer: int

    @property
    def node_id(self) -> str:
        return f"w:{self.site}:{self.layer}"


@dataclass(frozen=True)
class Gate:
    site: int
    layer: int
    kind: str  # "rule", "identity", or "phase"

    @property
    def node_id(self) -> str:
        return f"g:{self.site}:{self.layer}:{self.kind}"


Node = Wire | Gate


def _topo_key(node: Node) -> tuple[int, int, int]:
    # Gates of layer L sit between the wires of layers L-1 and L.
    if isinstance(node, Wire):
        return (2 * node.layer, 0, node.site)
    return (2 * node.layer - 1, 1, node.site)


class CausalPoset:
    """Finite poset given by covering relations, with cached reachability.

    The order is the reflexive-transitive closure of the covers; closure
    rows are bitsets over a fixed topological node order, recomputed per
    instance (node counts stay well below 10^4 at desk scale).
    """

    def __init__(self, nodes: Iterable[Node], covers: Iterable[tuple[Node, Node]]):
        self.nodes: tuple[Node, ...] = tuple(sorted(set(nodes), key=_topo_key))
        self._index = {n: i for i, n in enumerate(self.nodes)}
        n = len(self.nodes)
        self._succ: list[list[int]] = [[] for _ in range(n)]
        self._pred: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        for u, v in covers:
            iu, iv = self._index[u], self._index[v]
            if _topo_key(u) >= _topo_key(v):
                raise ValueError(f"cover {u} -> {v} violates layer order")
            if (iu, iv) not in seen:
                seen.add((iu, iv))
                self._succ[iu].append(iv)
                self._pred[iv].append(iu)
        # Reflexive-transitive closure as bitset rows.  Nodes are already
        # topologically sorted, so one backward and one forward sweep do it.
        self._desc = [0] * n
        for i in range(n - 1, -1, -1):
            mask = 1 << i
            for j in self._succ[i]:
                mask |= self._desc[j]
            self._desc[i] = mask
        self._anc = [0] * n
        for i in range(n):
            mask = 1 << i
            for j in self._pred[i]:
                mask |= self._anc[j]
            self._anc[i] = mask

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def _require(self, node: Node) -> int:
        if node not in self._index:
            raise ValueError(f"unknown node {node!r}")
        return self._index[node]

    def _unpack(self, mask: int) -> frozenset[Node]:
        out = []
        i = 0
        while mask:
            if mask & 1:
                out.append(self.nodes[i])
            mask >>= 1
            i += 1
        return frozenset(out)

    def leq(self, x: Node, y: Node) -> bool:
        """x precedes-or-equals y."""
        return bool(self._desc[self._require(x)] >> self._require(y) & 1)

    def comparable(self, x: Node, y: Node) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def ancestors(self, node: Node) -> frozenset[Node]:
        """All y with y <= node, including node itself."""
        return self._unpack(self._anc[self._require(node)])

    def descendants(self, node: Node) -> frozenset[Node]:
        """All y with node <= y, including node itself."""
        return self._unpack(self._desc[self._require(node)])

    # Cone aliases in the source convention where J+(x) = {y | y <= x}
    # collects the nodes feeding x and J-(x) = {y | x <= y} the nodes fed
    # by it.  ancestors/descendants are the unambiguous names.
    future_cone = ancestors
    past_cone = descendants

    def covers(self) -> list[tuple[Node, Node]]:
        return [
            (self.nodes[i], self.nodes[j])
            for i in range(len(self.nodes))
            for j in self._succ[i]
        ]

    @property
    def wires(self) -> tuple[Wire, ...]:
        return tuple(n for n in self.nodes if isinstance(n, Wire))

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(n for n in self.nodes if isinstance(n, Gate))

    def wires_at_layer(self, layer: int) -> tuple[Wire, ...]:
        return tuple(w for w in self.wires if w.layer == layer)

    @property
    def n_layers(self) -> int:
        return max((w.layer for w in self.wires), default=0)

    def is_antichain(self, nodes: Iterable[Node]) -> bool:
        nodes = list(nodes)
        for i, x in enumerate(nodes):
            for y in nodes[i + 1:]:
                if self.comparable(x, y):
                    return False
        return True

    def is_maximal_antichain(self, nodes: Iterable[Node]) -> bool:
        nodes = set(nodes)
        if not self.is_antichain(nodes):
            return False
        mask = 0
        for a in nodes:
            i = self._require(a)
            mask |= self._anc[i] | self._desc[i]
        return all(mask >> self._index[v] & 1 for v in self.nodes if v not in nodes)


@dataclass(frozen=True)
class AntiChain:
    """Pairwise incomparable node set; maximal if it cannot be extended."""

    nodes: frozenset[Node]
    maximal: bool = False

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))


@dataclass(frozen=True)
class ThickenedAntiChain:
    """An anti-chain together with the causal depth-i band above it.

    A node p at or above the base belongs to thickness i when the longest
    chain from the base to p, counted in nodes of the combined wire+gate
    poset, has at most i+1 elements.  Thickness 0 is the base itself;
    each species layer first adds its gate nodes, then their output wires.
    `maximal_nodes` are the members with no successor among the members.
    """

    base: AntiChain
    thickness: int
    members: frozenset[Node]
    maximal_nodes: frozenset[Node]


def build_poset(trace: RunTrace) -> CausalPoset:
    """Combined wire/gate poset of a run, with identity insertion."""
    labels = trace.config.labels
    nodes: list[Node] = [Wire(site, 0) for site in labels]
    covers: list[tuple[Node, Node]] = []
    for layer in trace.layers:
        targeted = {g.target for g in layer.gates}
        if not targeted <= set(labels):
            raise ValueError(f"layer {layer.index} targets unknown sites")
        if len(targeted) != len(layer.gates):
            raise ValueError(f"layer {layer.index} targets a site twice")
        for rec in layer.gates:
            gate = Gate(rec.target, layer.index, rec.kind)
            nodes.append(gate)
            for site in (rec.target, *rec.controls):
                covers.append((Wire(site, layer.index - 1), gate))
            out = Wire(rec.target, layer.index)
            nodes.append(out)
            covers.append((gate, out))
        for site in labels:
            if site not in targeted:
                gate = Gate(site, layer.index, "identity")
                out = Wire(site, layer.index)
                nodes.extend([gate, out])
                covers.append((Wire(site, layer.index - 1), gate))
                covers.append((gate, out))
    return CausalPoset(nodes, covers)


def slice_antichain(poset: CausalPoset, layer: int) -> AntiChain:
    """The maximal anti-chain of all wires at one layer."""
    if not 0 <= layer <= poset.n_layers:
        raise ValueError(f"layer {layer} out of range 0..{poset.n_layers}")
    wires = poset.wires_at_layer(layer)
    nodes = frozenset(wires)
    if not poset.is_maximal_antichain(nodes):
        raise ValueError(f"wires of layer {layer} do not form a maximal anti-chain")
    return AntiChain(nodes=nodes, maximal=True)


def foliate(poset: CausalPoset) -> list[AntiChain]:
    """All layer slices in time order: disjoint and jointly covering."""
    return [slice_antichain(poset, layer) for layer in range(poset.n_layers + 1)]


def thicken(poset: CausalPoset, base: AntiChain, i: int) -> ThickenedAntiChain:
    """Thickness-i band above `base` (longest-chain depth at most i+1)."""
    if i < 0:
        raise ValueError("thickness must be >= 0")
    if not poset.is_maximal_antichain(base.nodes):
        raise ValueError("base must be a maximal anti-chain")
    index = poset._index
    reach = 0
    for a in base.nodes:
        reach |= poset._desc[index[a]]
    depth: dict[int, int] = {}
    for pos, node in enumerate(poset.nodes):
        if not reach >> pos & 1:
            continue
        if node in base.nodes:
            depth[pos] = 1
        else:
            depth[pos] = 1 + max(depth[p] for p in poset._pred[pos] if p in depth)
    member_pos = {pos for pos, d in depth.items() if d <= i + 1}
    members = frozenset(poset.nodes[pos] for pos in member_pos)
    maximal = frozenset(
        poset.nodes[pos]
        for pos in member_pos
        if not any(s in member_pos for s in poset._succ[pos])
    )
    return ThickenedAntiChain(base=base, thickness=i, members=members, maximal_nodes=maximal)


def poset_json(poset: CausalPoset) -> dict:
    """Node/edge list of covering relations for external visualization."""
    nodes = []
    for n in poset.nodes:
        entry = {"id": n.node_id, "site": n.site, "layer": n.layer,
                 "kind": "wire" if isinstance(n, Wire) else n.kind}
        nodes.append(entry)
    edges = [[u.node_id, v.node_id] for u, v in poset.covers()]
    return {"nodes": nodes, "edges": sorted(edges)}
