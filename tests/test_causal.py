"""Poset construction, cones, slices, and thickening vs. enumeration oracles."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcageom.causal import (
    AntiChain,
    CausalPoset,
    Gate,
    Wire,
    build_poset,
    poset_json,
    slice_antichain,
    thicken,
)
from qcageom.qca import (
    PI3_RULE,
    PULSE_RULE,
    GateRecord,
    LayerRecord,
    QcaConfig,
    RunTrace,
    UpdateRule,
    initial_state,
    propagate_experiment,
    run,
)
from qcageom.statealg import partial_trace

RNG = np.random.default_rng(3)
KET0 = np.array([1, 0], dtype=complex)
KET_PLUS = np.array([math.sqrt(0.5), math.sqrt(0.5)], dtype=complex)


def make_trace(n_sites: int, layers: list[tuple[str, list[tuple[int, tuple[int, ...]]]]]) -> RunTrace:
    """Hand-built trace: a list of (species, [(target, controls), ...])."""
    config = QcaConfig(n_sites=n_sites, rule=PULSE_RULE)
    recs = tuple(
        LayerRecord(
            index=i + 1,
            species=species,
            gates=tuple(GateRecord(target=t, controls=c) for t, c in gates),
        )
        for i, (species, gates) in enumerate(layers)
    )
    return RunTrace(config=config, granularity="per_species_layer", layers=recs, snapshots=())


def one_b_layer_n4() -> RunTrace:
    # B gates at sites 1 and 3 with reduced edge controls
    return make_trace(4, [("B", [(1, (2,)), (3, (2, 4))])])


def closure_oracle(poset: CausalPoset) -> np.ndarray:
    """Reflexive-transitive closure by repeated boolean matrix squaring."""
    n = len(poset.nodes)
    idx = {node: i for i, node in enumerate(poset.nodes)}
    m = np.eye(n, dtype=bool)
    for u, v in poset.covers():
        m[idx[u], idx[v]] = True
    while True:
        nxt = m | (m @ m)
        if np.array_equal(nxt, m):
            return m
        m = nxt


class TestBuildPoset:
    def test_zero_layer_trace(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        trace = run(config, 0)
        poset = build_poset(trace)
        assert len(poset.wires) == 6
        assert len(poset.gates) == 0

    def test_one_b_layer_n4_hand_oracle(self):
        poset = build_poset(one_b_layer_n4())
        # wire count doubles: 6 initial + 6 fresh
        assert len(poset.wires) == 12
        gates = {(g.site, g.kind) for g in poset.gates}
        assert gates == {
            (1, "rule"), (3, "rule"),
            (0, "identity"), (2, "identity"), (4, "identity"), (5, "identity"),
        }
        # B1 consumes target wire 1 and control wire 2 of layer 0
        preds = {u for u, v in poset.covers() if v == Gate(1, 1, "rule")}
        assert preds == {Wire(1, 0), Wire(2, 0)}
        preds3 = {u for u, v in poset.covers() if v == Gate(3, 1, "rule")}
        assert preds3 == {Wire(2, 0), Wire(3, 0), Wire(4, 0)}

    def test_acyclic_antisymmetric(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        poset = build_poset(run(config, 3))
        closure = closure_oracle(poset)
        both = closure & closure.T
        assert np.array_equal(both, np.eye(len(poset.nodes), dtype=bool))

    def test_malformed_trace(self):
        with pytest.raises(ValueError):
            build_poset(make_trace(4, [("B", [(1, ()), (1, ())])]))
        with pytest.raises(ValueError):
            build_poset(make_trace(4, [("B", [(9, ())])]))

    def test_cover_naming_an_unlisted_node(self):
        with pytest.raises(ValueError, match=r"Gate\(site=1, layer=1, kind='rule'\)"):
            CausalPoset([Wire(1, 0)], [(Wire(1, 0), Gate(1, 1, "rule"))])
        with pytest.raises(ValueError, match=r"Wire\(site=2, layer=0\)"):
            CausalPoset([Gate(1, 1, "rule")], [(Wire(2, 0), Gate(1, 1, "rule"))])


@st.composite
def random_run_posets(draw) -> CausalPoset:
    config = QcaConfig(n_sites=draw(st.integers(2, 5)),
                       rule=draw(st.sampled_from([PULSE_RULE, PI3_RULE])),
                       b_parity=draw(st.sampled_from(["odd", "even"])))
    return build_poset(run(config, draw(st.integers(0, 3)), snapshots=False))


class TestRunPosetShape:
    @given(random_run_posets())
    def test_covers_feed_the_next_layer_or_emit_the_gate_wire(self, poset):
        """A wire covers into a gate of the next layer; a gate into the one wire it emits."""
        emitting = set()
        for u, v in poset.covers():
            if isinstance(u, Wire):
                assert isinstance(v, Gate) and v.layer == u.layer + 1, (u, v)
            else:
                assert v == Wire(u.site, u.layer), (u, v)
                emitting.add(u)
        assert emitting == set(poset.gates)


def layer_rank(node) -> int:
    """Wires of layer L sit at 2L, the gates of layer L between layers L-1 and L."""
    return 2 * node.layer - isinstance(node, Gate)


@st.composite
def random_dags(draw) -> CausalPoset:
    """Posets built directly from covers that may skip levels, as no run builds them."""
    n_sites, n_layers = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    nodes = [Wire(s, layer) for s in range(n_sites) for layer in range(n_layers + 1)]
    nodes += [Gate(s, layer, draw(st.sampled_from(["rule", "identity"])))
              for s in range(n_sites) for layer in range(1, n_layers + 1)]
    pairs = [(u, v) for u in nodes for v in nodes if layer_rank(u) < layer_rank(v)]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=3 * len(nodes))) if pairs else []
    return CausalPoset(nodes, covers)


def descendants(poset: CausalPoset, node) -> set:
    """All m with node <= m, read off the order: node is among m's ancestors."""
    return {m for m in poset.nodes if node in poset.ancestors(m)}


class TestCones:
    def test_isolated_wire(self):
        config = QcaConfig(n_sites=2, rule=PULSE_RULE)
        poset = build_poset(run(config, 0))
        w = Wire(1, 0)
        assert poset.ancestors(w) == frozenset([w])
        assert descendants(poset, w) == {w}

    def test_three_element_chain(self):
        poset = build_poset(make_trace(2, [("B", [(1, ())])]))
        w0, g, w1 = Wire(1, 0), Gate(1, 1, "rule"), Wire(1, 1)
        assert descendants(poset, w0) >= {w0, g, w1}
        assert poset.ancestors(w1) >= {w0, g, w1}
        assert poset.ancestors(g) & descendants(poset, g) == {g}

    def test_reflexive_intersection(self):
        poset = build_poset(one_b_layer_n4())
        for node in poset.nodes:
            assert poset.ancestors(node) & descendants(poset, node) == {node}

    @given(st.one_of(random_run_posets(), random_dags()))
    @example(build_poset(one_b_layer_n4()))
    @settings(deadline=None)
    def test_against_reachability_oracle(self, poset):
        closure = closure_oracle(poset)
        idx = {node: i for i, node in enumerate(poset.nodes)}
        for node in poset.nodes:
            want_desc = {m for m in poset.nodes if closure[idx[node], idx[m]]}
            want_anc = {m for m in poset.nodes if closure[idx[m], idx[node]]}
            assert descendants(poset, node) == want_desc
            assert poset.ancestors(node) == want_anc

    def test_unknown_node(self):
        poset = build_poset(one_b_layer_n4())
        with pytest.raises(ValueError):
            poset.ancestors(Wire(99, 0))

    def test_order_axioms_sampled(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        poset = build_poset(run(config, 2))
        nodes = poset.nodes
        below = {node: poset.ancestors(node) for node in nodes}  # x <= y: x in below[y]
        for node in nodes:
            assert node in below[node]
        for _ in range(300):
            x, y, z = (nodes[int(i)] for i in RNG.integers(0, len(nodes), size=3))
            if x in below[y] and y in below[x]:
                assert x == y
            if x in below[y] and y in below[z]:
                assert x in below[z]


def pairwise_antichain(poset: CausalPoset, nodes) -> bool:
    """No two entries of `nodes` are comparable in the closure; an entry listed twice is."""
    closure, idx = closure_oracle(poset), {node: i for i, node in enumerate(poset.nodes)}
    nodes = [idx[x] for x in nodes]
    return not any(closure[x, y] or closure[y, x]
                   for i, x in enumerate(nodes) for y in nodes[i + 1:])


def pairwise_maximal_antichain(poset: CausalPoset, nodes) -> bool:
    closure, idx = closure_oracle(poset), {node: i for i, node in enumerate(poset.nodes)}
    nodes = set(nodes)
    return pairwise_antichain(poset, nodes) and all(
        any(closure[idx[a], v] or closure[v, idx[a]] for a in nodes)
        for v in range(len(poset.nodes)))


class TestSlicesAndFoliation:
    def test_layer_zero_is_initial_data(self):
        poset = build_poset(one_b_layer_n4())
        base = slice_antichain(poset, 0)
        assert base.nodes == frozenset(Wire(s, 0) for s in range(6))
        assert poset.is_maximal_antichain(base.nodes)

    def test_antichain_property(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        poset = build_poset(run(config, 2))
        for layer in range(poset.n_layers + 1):
            assert poset.is_antichain(slice_antichain(poset, layer).nodes)

    @given(st.one_of(random_run_posets(), random_dags()), st.data())
    @settings(deadline=None)
    def test_antichain_tests_match_the_pairwise_oracle(self, poset, data):
        wires = poset.wires_at_layer(data.draw(st.integers(0, poset.n_layers)))
        candidates = [
            data.draw(st.lists(st.sampled_from(poset.nodes), max_size=6)),
            data.draw(st.lists(st.sampled_from(wires), max_size=6)),
            [*wires, data.draw(st.sampled_from(poset.nodes))],
        ]
        for nodes in candidates:
            assert poset.is_antichain(nodes) == pairwise_antichain(poset, nodes), nodes
            assert poset.is_maximal_antichain(nodes) == pairwise_maximal_antichain(poset, nodes), \
                nodes

    @pytest.mark.parametrize("n_sites, steps", [(2, 0), (4, 2), (5, 3)])
    def test_every_layer_slice_against_the_pairwise_oracle(self, n_sites, steps):
        poset = build_poset(run(QcaConfig(n_sites=n_sites, rule=PI3_RULE), steps,
                                snapshots=False))
        for layer in range(poset.n_layers + 1):
            wires = poset.wires_at_layer(layer)
            assert pairwise_maximal_antichain(poset, wires)
            assert poset.is_antichain(wires) and poset.is_maximal_antichain(wires)
            assert not poset.is_antichain([*wires, wires[0]])
            assert not poset.is_maximal_antichain(wires[1:])

    def test_maximality_against_extension_oracle(self):
        config = QcaConfig(n_sites=3, rule=PULSE_RULE)
        poset = build_poset(run(config, 1))
        closure = closure_oracle(poset)
        idx = {node: i for i, node in enumerate(poset.nodes)}
        for layer in range(poset.n_layers + 1):
            nodes = slice_antichain(poset, layer).nodes
            for outside in set(poset.nodes) - nodes:
                related = any(
                    closure[idx[outside], idx[a]] or closure[idx[a], idx[outside]]
                    for a in nodes
                )
                assert related, f"{outside} could extend layer {layer}"

    def test_layer_out_of_range(self):
        poset = build_poset(one_b_layer_n4())
        with pytest.raises(ValueError):
            slice_antichain(poset, 9)

    def test_foliation_partitions_wires(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        poset = build_poset(run(config, 3))
        slices = [slice_antichain(poset, layer) for layer in range(poset.n_layers + 1)]
        assert len(slices) == poset.n_layers + 1 == 7
        seen = set()
        for s in slices:
            assert not (s.nodes & seen)
            seen |= s.nodes
        assert seen == set(poset.wires)


def interval_oracle(poset: CausalPoset, closure, idx, base_nodes, p) -> int:
    """Longest-chain node count inside the slice-to-p interval.

    Enumerates J^-(p) (intersect) J^+(base) directly from the closure
    matrix, then takes the longest chain in that subset by dynamic
    programming over the closure order.
    """
    up_of_base = set()
    for a in base_nodes:
        up_of_base |= {m for m in poset.nodes if closure[idx[a], idx[m]]}
    down_of_p = {m for m in poset.nodes if closure[idx[m], idx[p]]}
    interval = sorted(up_of_base & down_of_p, key=lambda n: idx[n])
    if p not in interval:
        return 0
    best = {}
    for v in interval:
        preds = [u for u in interval if u != v and closure[idx[u], idx[v]]]
        best[v] = 1 + max((best[u] for u in preds), default=0)
    return best[p]


class TestThicken:
    def _poset_two_layers(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        return build_poset(run(config, 1))

    def test_i0_is_base(self):
        poset = self._poset_two_layers()
        base = slice_antichain(poset, 0)
        thick = thicken(poset, base, 0)
        assert thick.members == base.nodes
        assert thick.maximal_nodes == base.nodes

    def test_i1_adds_next_gate_layer(self):
        poset = self._poset_two_layers()
        base = slice_antichain(poset, 0)
        thick = thicken(poset, base, 1)
        layer1_gates = {g for g in poset.gates if g.layer == 1}
        assert thick.members == base.nodes | layer1_gates
        assert thick.maximal_nodes == layer1_gates

    def test_nesting(self):
        poset = self._poset_two_layers()
        base = slice_antichain(poset, 0)
        prev = frozenset()
        for i in range(6):
            members = thicken(poset, base, i).members
            assert prev <= members
            prev = members

    def test_membership_against_enumeration_oracle(self):
        poset = self._poset_two_layers()
        base = slice_antichain(poset, 0)
        closure = closure_oracle(poset)
        idx = {node: i for i, node in enumerate(poset.nodes)}
        depth = {}
        for p in poset.nodes:
            d = interval_oracle(poset, closure, idx, base.nodes, p)
            if d:
                depth[p] = d
        for i in range(6):
            want = {p for p, d in depth.items() if d <= i + 1}
            assert thicken(poset, base, i).members == want

    def test_mid_slice_base(self):
        poset = self._poset_two_layers()
        base = slice_antichain(poset, 1)
        thick = thicken(poset, base, 1)
        layer2_gates = {g for g in poset.gates if g.layer == 2}
        assert thick.members == base.nodes | layer2_gates

    def test_non_maximal_base_rejected(self):
        poset = self._poset_two_layers()
        partial = AntiChain(nodes=frozenset([Wire(1, 0), Wire(2, 0)]))
        with pytest.raises(ValueError):
            thicken(poset, partial, 1)

    def test_negative_thickness(self):
        poset = self._poset_two_layers()
        with pytest.raises(ValueError):
            thicken(poset, slice_antichain(poset, 0), -1)


def held_by_poset(steps: int) -> tuple[int, int]:
    """Node count, and bytes held after `build_poset` and `slice_antichain`, of an N=8 run."""
    trace = run(QcaConfig(8, PULSE_RULE), steps, snapshots=False)
    tracemalloc.start()
    try:
        poset = build_poset(trace)
        base = slice_antichain(poset, poset.n_layers // 2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert base.nodes
    return len(poset.nodes), held


class TestMemory:
    def test_held_memory_grows_with_the_nodes_not_their_square(self):
        # 2,570 and 10,250 nodes: a transitive closure stored per node grows toward 16x
        nodes_64, held_64 = held_by_poset(64)
        nodes_256, held_256 = held_by_poset(256)
        assert nodes_256 / nodes_64 == pytest.approx(3.99, abs=0.01)
        assert held_256 / held_64 <= 5, (held_64, held_256)


def random_qubit(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def random_unitary_2(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestLightCone:
    """Where a change to one seed qubit can show up in the evolved register.

    The poset bounds the computational-basis populations of every wire.
    It does not bound coherences: a controlled gate kicks a phase that
    depends on its target back onto its controls, so whole single-site
    states are bounded only by the cone of gate supports.
    """

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_seed_change_stays_in_cone(self, n, parity):
        rng = np.random.default_rng(1000 * n + len(parity))
        rule = UpdateRule(*(random_unitary_2(rng) for _ in range(4)))
        config = QcaConfig(n_sites=n, rule=rule, b_parity=parity)
        seed = int(rng.integers(1, n + 1))
        qubits = {site: random_qubit(rng) for site in config.register_sites}
        a = run(config, 2, initial_state(config, qubits))
        b = run(config, 2, initial_state(config, {**qubits, seed: random_qubit(rng)}))
        poset = build_poset(a)
        support = {seed}
        outside_poset = 0
        for (layer, sa), (_, sb) in zip(a.snapshots, b.snapshots):
            if layer:
                for g in a.layers[layer - 1].gates:
                    if support & {g.target, *g.controls}:
                        support = support | {g.target, *g.controls}
            for x in config.register_sites:
                ra, rb = partial_trace(sa, {x}).matrix, partial_trace(sb, {x}).matrix
                if x not in support:
                    assert np.max(np.abs(ra - rb)) <= 1e-12
                if Wire(seed, 0) not in poset.ancestors(Wire(x, layer)):
                    assert np.max(np.abs(np.diagonal(ra - rb))) <= 1e-12
                    outside_poset += 1
        assert outside_poset > 0

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_seed_change_stays_in_cone_over_a_phase_layer(self, n):
        a, _ = propagate_experiment(n, (0.6 + 0.2j, 0.3 - 0.7j))
        b, _ = propagate_experiment(n, (1, 0))
        assert a.layers[-1].species == "phase"
        poset = build_poset(a)
        outside_poset = 0
        for (layer, sa), (_, sb) in zip(a.snapshots, b.snapshots):
            for x in a.config.register_sites:
                if Wire(1, 0) not in poset.ancestors(Wire(x, layer)):
                    ra, rb = partial_trace(sa, {x}).matrix, partial_trace(sb, {x}).matrix
                    assert np.max(np.abs(np.diagonal(ra - rb))) <= 1e-12
                    outside_poset += 1
        # the cone of site 1 gains a site per layer until it holds the register at layer N - 1
        assert outside_poset == n * (n - 1) // 2

    def test_coherence_kicked_back_onto_control(self):
        # pi3 rule, N=2: site 1 is the target, site 2 (in |+>) its control.
        config = QcaConfig(n_sites=2, rule=PI3_RULE)
        rdms = []
        for seed in (KET0, KET_PLUS):
            trace = run(config, 1, initial_state(config, {1: seed, 2: KET_PLUS}))
            rdms.append(partial_trace(trace.snapshot_at_layer(1), {2}).matrix)
        poset = build_poset(trace)
        assert Wire(1, 0) not in poset.ancestors(Wire(2, 1))
        assert np.allclose(np.diagonal(rdms[0]), np.diagonal(rdms[1]), atol=1e-12)
        assert abs(rdms[0][0, 1] - rdms[1][0, 1]) > 0.1


class TestExport:
    def test_poset_json_shape(self):
        poset = build_poset(one_b_layer_n4())
        obj = poset_json(poset)
        assert len(obj["nodes"]) == len(poset.nodes)
        ids = {n["id"] for n in obj["nodes"]}
        assert len(ids) == len(poset.nodes)
        for u, v in obj["edges"]:
            assert u in ids and v in ids
