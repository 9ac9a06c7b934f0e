"""Causal poset of a QCA run: wires, gates, past cones, slices, thickening.

`CausalPoset` holds any covers that respect the layer order.  The poset
of a run, which `build_poset` makes, is bipartite: wire nodes are the
Hilbert spaces living between layers, gate nodes are the unitaries
between consecutive slices.  A wire precedes every gate of the next layer
that it feeds; a gate precedes the single wire it emits at its own site.
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

from typing import Iterable

from .qca import Record, RunTrace


class Wire(Record):
    site: int
    layer: int

    @property
    def node_id(self) -> str:
        return f"w:{self.site}:{self.layer}"


class Gate(Record):
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
    """Finite layered poset given by covering relations.

    Any covers in which each node comes before its successor in the layer
    order are accepted, wire-to-wire and skip-level covers included; only
    the posets of `build_poset` are bipartite.
    The order is the reflexive-transitive closure of the covers, and it is
    never stored: x <= y exactly when x is in `ancestors(y)`, a traversal
    of the covers made per query, so memory stays linear in the nodes and
    covers.  The anti-chain tests and thickening traverse the covers too;
    the views `wires`, `gates` and `n_layers` are computed once.  A trace
    of L layers on N sites gives (N+2)(2L+1) nodes, 18,450 at the CLI's
    caps (N=16, 256 steps, L=512).
    """

    def __init__(self, nodes: Iterable[Node], covers: Iterable[tuple[Node, Node]]):
        self.nodes: tuple[Node, ...] = tuple(sorted(set(nodes), key=_topo_key))
        self.wires: tuple[Wire, ...] = tuple(n for n in self.nodes if isinstance(n, Wire))
        self.gates: tuple[Gate, ...] = tuple(n for n in self.nodes if isinstance(n, Gate))
        self.n_layers: int = max((w.layer for w in self.wires), default=0)
        self._index = {n: i for i, n in enumerate(self.nodes)}
        self._succ: list[list[int]] = [[] for _ in self.nodes]
        self._pred: list[list[int]] = [[] for _ in self.nodes]
        seen = set()
        for u, v in covers:
            iu, iv = self._require(u), self._require(v)
            if _topo_key(u) >= _topo_key(v):
                raise ValueError(f"cover {u} -> {v} violates layer order")
            if (iu, iv) not in seen:
                seen.add((iu, iv))
                self._succ[iu].append(iv)
                self._pred[iv].append(iu)

    def _require(self, node: Node) -> int:
        if node not in self._index:
            raise ValueError(f"unknown node {node!r}")
        return self._index[node]

    def _cone(self, starts: Iterable[int], edges: list[list[int]]) -> set[int]:
        """The positions reached from `starts` along `edges`, the starts included."""
        reached = set(starts)
        stack = list(reached)
        while stack:
            for j in edges[stack.pop()]:
                if j not in reached:
                    reached.add(j)
                    stack.append(j)
        return reached

    def ancestors(self, node: Node) -> frozenset[Node]:
        """All y with y <= node, including node itself."""
        return frozenset(self.nodes[i] for i in self._cone([self._require(node)], self._pred))

    def covers(self) -> list[tuple[Node, Node]]:
        return [
            (self.nodes[i], self.nodes[j])
            for i in range(len(self.nodes))
            for j in self._succ[i]
        ]

    def wires_at_layer(self, layer: int) -> tuple[Wire, ...]:
        return tuple(w for w in self.wires if w.layer == layer)

    def is_antichain(self, nodes: Iterable[Node]) -> bool:
        """No member lies among the members' strict descendants; a node listed twice fails."""
        positions = [self._require(x) for x in nodes]
        members = set(positions)
        above = self._cone([j for i in members for j in self._succ[i]], self._succ)
        return len(members) == len(positions) and members.isdisjoint(above)

    def is_maximal_antichain(self, nodes: Iterable[Node]) -> bool:
        """An anti-chain whose members' up-cones and down-cones cover every node."""
        nodes = set(nodes)
        members = [self._require(x) for x in nodes]
        covered = self._cone(members, self._succ) | self._cone(members, self._pred)
        return len(covered) == len(self.nodes) and self.is_antichain(nodes)


class AntiChain(Record):
    """A node set, unchecked: `CausalPoset.is_antichain` and `is_maximal_antichain` test it."""

    nodes: frozenset[Node]

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))


class ThickenedAntiChain(Record):
    """The causal depth-i band above a maximal anti-chain, which it includes.

    A node p at or above the base belongs to thickness i when the longest
    chain from the base to p, counted in nodes of the combined wire+gate
    poset, has at most i+1 elements.  Thickness 0 is the base itself;
    each species layer first adds its gate nodes, then their output wires.
    `maximal_nodes` are the members with no successor among the members.
    """

    members: frozenset[Node]
    maximal_nodes: frozenset[Node]


def build_poset(trace: RunTrace) -> CausalPoset:
    """Combined wire/gate poset of a run, with identity insertion."""
    labels = trace.config.labels
    wire = {site: Wire(site, 0) for site in labels}  # each site's latest wire
    nodes: list[Node] = list(wire.values())
    covers: list[tuple[Node, Node]] = []
    for layer in trace.layers:
        targeted = {g.target for g in layer.gates}
        if not targeted <= set(labels):
            raise ValueError(f"layer {layer.index} targets unknown sites")
        if len(targeted) != len(layer.gates):
            raise ValueError(f"layer {layer.index} targets a site twice")
        emitted = {}
        for rec in layer.gates:
            gate = Gate(rec.target, layer.index, rec.kind)
            nodes.append(gate)
            for site in (rec.target, *rec.controls):
                covers.append((wire[site], gate))
            out = emitted[rec.target] = Wire(rec.target, layer.index)
            nodes.append(out)
            covers.append((gate, out))
        for site in labels:
            if site not in targeted:
                gate = Gate(site, layer.index, "identity")
                out = emitted[site] = Wire(site, layer.index)
                nodes.extend([gate, out])
                covers.append((wire[site], gate))
                covers.append((gate, out))
        wire = emitted
    return CausalPoset(nodes, covers)


def slice_antichain(poset: CausalPoset, layer: int) -> AntiChain:
    """The maximal anti-chain of all wires at one layer."""
    if not 0 <= layer <= poset.n_layers:
        raise ValueError(f"layer {layer} out of range 0..{poset.n_layers}")
    wires = poset.wires_at_layer(layer)
    nodes = frozenset(wires)
    if not poset.is_maximal_antichain(nodes):
        raise ValueError(f"wires of layer {layer} do not form a maximal anti-chain")
    return AntiChain(nodes)


def thicken(poset: CausalPoset, base: AntiChain, i: int) -> ThickenedAntiChain:
    """Thickness-i band above `base` (longest-chain depth at most i+1)."""
    if i < 0:
        raise ValueError("thickness must be >= 0")
    if not poset.is_maximal_antichain(base.nodes):
        raise ValueError("base must be a maximal anti-chain")
    reach = poset._cone([poset._index[a] for a in base.nodes], poset._succ)
    depth: dict[int, int] = {}
    for pos in sorted(reach):
        node = poset.nodes[pos]
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
    return ThickenedAntiChain(members, maximal)


def poset_json(poset: CausalPoset) -> dict:
    """Node/edge list of covering relations for external visualization."""
    nodes = []
    for n in poset.nodes:
        entry = {"id": n.node_id, "site": n.site, "layer": n.layer,
                 "kind": "wire" if isinstance(n, Wire) else n.kind}
        nodes.append(entry)
    edges = [[u.node_id, v.node_id] for u, v in poset.covers()]
    return {"nodes": nodes, "edges": sorted(edges)}
