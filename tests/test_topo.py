"""Simplicial complexes, GF(2) homology, and the thickness filtration."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcageom.causal import CausalPoset, Gate, Wire, build_poset, slice_antichain, thicken
from qcageom.qca import (
    GateRecord, LayerRecord, PI3_RULE, PULSE_RULE, QcaConfig, RunTrace, ghz_experiment, run,
)
from qcageom.topo import (
    SimplicialComplex,
    _strong_collapse_core,
    betti,
    boundary_rank,
    shadow_complex,
    stable_complex,
    unitary_shadow_complex,
)

RNG = np.random.default_rng(42)


def complex_of(*maximal, vertices=()):
    return SimplicialComplex.from_maximal(maximal, extra_vertices=vertices)


def path_graph(n: int) -> SimplicialComplex:
    return complex_of(*[(i, i + 1) for i in range(n - 1)])


# ------------------------------------------------------------ GF(2) oracle

def betti_oracle(cx: SimplicialComplex) -> tuple[int, ...]:
    """Kernel/image dimensions from dense numpy elimination mod 2."""

    def rank_mod2(m: np.ndarray) -> int:
        m = m.copy() % 2
        rank = 0
        rows, cols = m.shape
        pivot_row = 0
        for c in range(cols):
            pivots = [r for r in range(pivot_row, rows) if m[r, c]]
            if not pivots:
                continue
            r0 = pivots[0]
            m[[pivot_row, r0]] = m[[r0, pivot_row]]
            for r in range(rows):
                if r != pivot_row and m[r, c]:
                    m[r] = (m[r] + m[pivot_row]) % 2
            pivot_row += 1
            rank += 1
        return rank

    d = cx.dim
    out = []
    for k in range(d + 1):
        sk = cx.k_simplices(k)
        n_k = len(sk)
        if k == 0:
            rank_k = 0
        else:
            faces = {s: i for i, s in enumerate(cx.k_simplices(k - 1))}
            m = np.zeros((len(faces), n_k), dtype=np.int64)
            for j, s in enumerate(sk):
                for face in itertools.combinations(sorted(s, key=repr), k):
                    m[faces[frozenset(face)], j] = 1
            rank_k = rank_mod2(m) if faces else 0
        sk1 = cx.k_simplices(k + 1)
        if sk1:
            faces = {s: i for i, s in enumerate(sk)}
            m = np.zeros((n_k, len(sk1)), dtype=np.int64)
            for j, s in enumerate(sk1):
                for face in itertools.combinations(sorted(s, key=repr), k + 1):
                    m[faces[frozenset(face)], j] = 1
            rank_k1 = rank_mod2(m)
        else:
            rank_k1 = 0
        out.append(n_k - rank_k - rank_k1)
    return tuple(out)


def random_complex(max_vertices: int = 12) -> SimplicialComplex:
    n = int(RNG.integers(3, max_vertices + 1))
    n_simplices = int(RNG.integers(2, 9))
    maximal = []
    for _ in range(n_simplices):
        size = int(RNG.integers(1, min(6, n + 1)))
        maximal.append(tuple(RNG.choice(n, size=size, replace=False).tolist()))
    return complex_of(*maximal, vertices=range(n))


class TestSimplicialComplex:
    def test_face_closure_enforced(self):
        with pytest.raises(ValueError):
            SimplicialComplex(vertices=(0, 1, 2), simplices=frozenset([frozenset([0, 1, 2])]))

    def test_from_maximal_closes(self):
        cx = complex_of((0, 1, 2))
        assert len(cx.simplices) == 7
        assert cx.dim == 2

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(vertices=(0,), simplices=frozenset([frozenset([5])]))

    def test_edges_and_maximal(self):
        cx = complex_of((0, 1, 2), (2, 3))
        assert (2, 3) in cx.edges()
        maxes = {tuple(sorted(s)) for s in cx.maximal_simplices()}
        assert maxes == {(0, 1, 2), (2, 3)}

    def test_euler(self):
        assert path_graph(3).euler_characteristic() == 1
        hollow = complex_of((0, 1), (1, 2), (0, 2))
        assert hollow.euler_characteristic() == 0

    def test_without_edges_keeps_closure(self):
        cx = complex_of((0, 1, 2))
        out = cx.without_edges([(0, 2)])
        assert frozenset([0, 1, 2]) not in out.simplices
        assert frozenset([0, 2]) not in out.simplices
        assert frozenset([0, 1]) in out.simplices
        assert out.vertices == (0, 1, 2)


class TestBoundaryRank:
    def test_path_p3(self):
        assert boundary_rank(path_graph(3), 1) == 2

    def test_hollow_triangle(self):
        hollow = complex_of((0, 1), (1, 2), (0, 2))
        assert boundary_rank(hollow, 1) == 2

    def test_filled_triangle_d2(self):
        filled = complex_of((0, 1, 2))
        assert boundary_rank(filled, 2) == 1

    def test_out_of_range(self):
        assert boundary_rank(path_graph(3), 5) == 0
        assert boundary_rank(path_graph(3), 0) == 0


class TestBetti:
    def test_path(self):
        assert betti(path_graph(4)) == (1, 0)

    def test_hollow_triangle(self):
        assert betti(complex_of((0, 1), (1, 2), (0, 2))) == (1, 1)

    def test_filled_triangle(self):
        assert betti(complex_of((0, 1, 2))) == (1, 0, 0)

    def test_disjoint_vertices(self):
        cx = complex_of(vertices=range(5))
        assert betti(cx) == (5,)

    def test_two_loops(self):
        cx = complex_of((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4))
        assert betti(cx) == (1, 2)

    def test_against_oracle_random(self):
        for _ in range(50):
            cx = random_complex()
            assert betti(cx) == betti_oracle(cx)

    def test_euler_consistency_random(self):
        for _ in range(20):
            cx = random_complex()
            b = betti(cx)
            assert cx.euler_characteristic() == sum(
                (-1) ** k * v for k, v in enumerate(b)
            )


# ------------------------------------------------- complexes from posets

def synthetic_poset(covers):
    nodes = {u for u, _ in covers} | {v for _, v in covers}
    return CausalPoset(nodes, covers)


class TestShadowComplex:
    def test_single_gate_whole_base(self):
        base_wires = [Wire(s, 0) for s in range(4)]
        g = Gate(0, 1, "rule")
        covers = [(w, g) for w in base_wires] + [(g, Wire(0, 1))]
        poset = synthetic_poset(covers)
        base = slice_antichain(poset, 0)
        cx = shadow_complex(poset, base, 1)
        assert len(cx.vertices) == 1
        assert cx.dim == 0

    def test_1d_qca_path_nerve(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        poset = build_poset(run(config, 1))
        base = slice_antichain(poset, 0)
        cx = shadow_complex(poset, base, 1)
        # shadows of the two B gates overlap on one wire -> path nerve
        assert cx.vertices == ((1, 2), (2, 3, 4))
        assert betti(cx) == (1, 0)

    def test_n6_longer_path(self):
        config = QcaConfig(n_sites=6, rule=PULSE_RULE)
        poset = build_poset(run(config, 1))
        base = slice_antichain(poset, 0)
        cx = shadow_complex(poset, base, 1)
        assert len(cx.vertices) == 3
        assert betti(cx) == (1, 0)
        assert len(cx.edges()) == 2

    def test_disjoint_shadows(self):
        base_wires = [Wire(s, 0) for s in range(4)]
        g1, g2 = Gate(0, 1, "rule"), Gate(2, 1, "rule")
        covers = [
            (base_wires[0], g1), (base_wires[1], g1), (g1, Wire(0, 1)),
            (base_wires[2], g2), (base_wires[3], g2), (g2, Wire(2, 1)),
        ]
        poset = synthetic_poset(covers)
        base = slice_antichain(poset, 0)
        cx = shadow_complex(poset, base, 1)
        assert betti(cx) == (2,)


def nerve_oracle(poset, base, i) -> SimplicialComplex:
    """The nerve from every subfamily of shadows with a common wire, face by face."""
    thick = thicken(poset, base, i)
    shadows = set()
    for m in thick.maximal_nodes:
        if not any(isinstance(x, Gate) and x.kind == "rule"
                   for x in poset.ancestors(m) & thick.members):
            continue
        past = poset.ancestors(m) & base.nodes
        if past:
            shadows.add(frozenset(past))
    if not shadows:
        raise ValueError("no update-gate shadows in the thickened anti-chain")
    vertex_of = {s: tuple(sorted(w.site for w in s)) for s in shadows}
    ordered = sorted(shadows, key=lambda s: vertex_of[s])
    simplices = set()
    for r in range(1, len(ordered) + 1):
        added = False
        for combo in itertools.combinations(ordered, r):
            if frozenset.intersection(*combo):
                simplices.add(frozenset(vertex_of[s] for s in combo))
                added = True
        if not added:
            break
    return SimplicialComplex(vertices=vertex_of.values(), simplices=simplices)


class TestNerveOracle:
    @settings(deadline=None)
    @given(n=st.integers(2, 10), rule=st.sampled_from([PULSE_RULE, PI3_RULE]),
           parity=st.sampled_from(["odd", "even"]), steps=st.integers(1, 3),
           layer=st.integers(0, 1), i=st.integers(1, 4))
    def test_wire_stars_equal_enumerated_nerve(self, n, rule, parity, steps, layer, i):
        poset = build_poset(run(QcaConfig(n_sites=n, rule=rule, b_parity=parity), steps))
        base = slice_antichain(poset, layer)
        expect = nerve_oracle(poset, base, i)
        cx = shadow_complex(poset, base, i)
        assert cx == expect
        assert cx.simplices == expect.simplices
        assert betti(cx) == betti_oracle(expect)


class TestUnitaryShadowComplex:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_thickness1_simplified_is_path(self, n):
        config = QcaConfig(n_sites=n, rule=PULSE_RULE)
        poset = build_poset(run(config, 4))
        base = slice_antichain(poset, 0)
        cx = unitary_shadow_complex(poset, base, 1, controlled_simplification=True)
        assert cx.vertices == tuple(range(n + 2))
        assert set(cx.edges()) == {(s, s + 1) for s in range(n + 1)}
        assert cx.dim == 1
        assert betti(cx) == (1, 0)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_thickness1_unsimplified_triangle_chain(self, n):
        config = QcaConfig(n_sites=n, rule=PULSE_RULE)
        poset = build_poset(run(config, 4))
        base = slice_antichain(poset, 0)
        cx = unitary_shadow_complex(poset, base, 1, controlled_simplification=False)
        triangles = cx.k_simplices(2)
        assert {tuple(sorted(t)) for t in triangles} == {
            (s - 1, s, s + 1) for s in range(1, n + 1)
        }
        # edge (i, i+1) interior to the register lies in two triangles,
        # the outermost edges in one; every (i, i+2) chord in exactly one
        def count(edge):
            return sum(1 for t in triangles if set(edge) <= t)

        for a in range(n + 1):
            expect = 2 if 1 <= a <= n - 1 else 1
            assert count((a, a + 1)) == expect
        for a in range(n):
            assert count((a, a + 2)) == 1
        assert betti(cx)[:2] == (1, 0)

    def test_thickness2_dimension_grows_connected(self):
        config = QcaConfig(n_sites=6, rule=PULSE_RULE)
        poset = build_poset(run(config, 4))
        base = slice_antichain(poset, 0)
        c1 = unitary_shadow_complex(poset, base, 1, controlled_simplification=True)
        c2 = unitary_shadow_complex(poset, base, 2, controlled_simplification=True)
        assert c2.dim > c1.dim
        assert c2.dim == 4
        assert betti(c2)[0] == 1
        # explicit enumeration: deepest gates reach sites s-2..s+2
        expected_top = {
            frozenset(range(max(0, s - 2), min(7, s + 2) + 1)) for s in range(1, 7)
        }
        got_top = {s for s in c2.maximal_simplices() if len(s) == 5}
        assert got_top == {s for s in expected_top if len(s) == 5}

    def test_monotone_before_simplification(self):
        config = QcaConfig(n_sites=6, rule=PULSE_RULE)
        poset = build_poset(run(config, 4))
        base = slice_antichain(poset, 0)
        prev = frozenset()
        for i in (1, 2, 3, 4):
            cx = unitary_shadow_complex(poset, base, i, controlled_simplification=False)
            assert prev <= cx.simplices
            prev = cx.simplices

    def test_face_closure_after_simplification(self):
        config = QcaConfig(n_sites=6, rule=PULSE_RULE)
        poset = build_poset(run(config, 3))
        base = slice_antichain(poset, 0)
        for i in (1, 2, 3):
            cx = unitary_shadow_complex(poset, base, i, controlled_simplification=True)
            for s in cx.simplices:
                for face in itertools.combinations(s, len(s) - 1):
                    if face:
                        assert frozenset(face) in cx.simplices

    def test_requires_depth(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        poset = build_poset(run(config, 1))
        base = slice_antichain(poset, 0)
        with pytest.raises(ValueError):
            unitary_shadow_complex(poset, base, 2)

    def test_phase_layer_bounds_depth(self):
        # GHZ N=10: species layers 1..5, the phase correction at layer 6
        poset = build_poset(ghz_experiment(10)[0])
        for base_layer, available in ((0, 5), (1, 4), (4, 1), (5, 0), (6, 0)):
            base = slice_antichain(poset, base_layer)
            thickness = available // 2 + 1
            with pytest.raises(ValueError, match=f"only {available} available"):
                unitary_shadow_complex(poset, base, thickness)
        result = stable_complex(poset, slice_antichain(poset, 0), 4)
        assert [t for t, _ in result.filtration] == [1, 2]

    def test_mid_slice_base(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        poset = build_poset(run(config, 3))
        base = slice_antichain(poset, 2)
        cx = unitary_shadow_complex(poset, base, 1, controlled_simplification=True)
        assert betti(cx) == (1, 0)


class TestStableComplex:
    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("simplify", [True, False])
    def test_tstar_one_with_constant_betti(self, n, simplify):
        config = QcaConfig(n_sites=n, rule=PULSE_RULE)
        poset = build_poset(run(config, 4))
        base = slice_antichain(poset, 0)
        result = stable_complex(poset, base, 4, controlled_simplification=simplify)
        assert result.t_star == 1
        assert len(result.filtration) == 4
        for _, b in result.filtration:
            assert b[0] == 1
            assert all(v == 0 for v in b[1:])

    def test_no_gates_never_connects(self):
        trace = RunTrace(
            config=QcaConfig(n_sites=4, rule=PULSE_RULE),
            granularity="per_species_layer",
            layers=tuple(
                LayerRecord(index=i + 1, species="B", gates=()) for i in range(8)
            ),
            snapshots=(),
        )
        poset = build_poset(trace)
        base = slice_antichain(poset, 0)
        result = stable_complex(poset, base, 4)
        assert result.t_star is None
        assert "separate computations" in result.note

    def test_shallow_trace_reported(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        poset = build_poset(run(config, 1))
        base = slice_antichain(poset, 0)
        result = stable_complex(poset, base, 4, controlled_simplification=True)
        assert result.t_star is None
        assert result.filtration == ((1, (1, 0)),)


# ------------------------------------ maximal-simplex storage and collapse

def closure_oracle(maximal, vertices=()) -> set[frozenset]:
    """Every non-empty subset of every given simplex, plus the vertices."""
    faces = {frozenset([v]) for v in vertices}
    for m in maximal:
        m = sorted(set(m))
        for mask in range(1, 2 ** len(m)):
            faces.add(frozenset(x for i, x in enumerate(m) if mask >> i & 1))
    return faces


def random_cover(rng, n: int, offset: int = 0) -> list[tuple]:
    return [
        tuple((offset + rng.choice(n, size=int(rng.integers(1, min(6, n + 1))),
                                   replace=False)).tolist())
        for _ in range(int(rng.integers(1, 9)))
    ]


def octahedron_boundary() -> SimplicialComplex:
    return complex_of(*itertools.product((0, 1), (2, 3), (4, 5)))


class TestMaximalStorage:
    def test_derived_faces_match_closure(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            cover = random_cover(rng, n)
            cx = complex_of(*cover, vertices=range(n))
            expected = closure_oracle(cover, range(n))
            assert cx.simplices == expected
            assert {s for s in expected if not any(s < t for t in expected)} == \
                set(cx.maximal_simplices())
            assert cx.dim == max(len(s) for s in expected) - 1

    def test_without_edges_matches_face_filter(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(3, 10))
            cover = random_cover(rng, n)
            cx = complex_of(*cover, vertices=range(n))
            removed = [tuple(rng.choice(n, size=2, replace=False).tolist())
                       for _ in range(int(rng.integers(1, 5)))]
            expected = {s for s in closure_oracle(cover, range(n))
                        if not any(set(r) <= s for r in removed)}
            out = cx.without_edges(removed)
            assert out.simplices == expected
            assert out.vertices == cx.vertices
            assert out == SimplicialComplex(vertices=range(n), simplices=expected)

    def test_explicit_faces_equal_from_maximal(self):
        cx = complex_of((0, 1, 2), (2, 3), vertices=[4])
        explicit = SimplicialComplex(vertices=cx.vertices, simplices=cx.simplices)
        assert explicit == cx
        assert betti(explicit) == betti(cx) == (2, 0, 0)


class TestStrongCollapseBetti:
    def test_random_without_edges_against_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(150):
            n = int(rng.integers(3, 10))
            cx = complex_of(*random_cover(rng, n), vertices=range(n))
            removed = [tuple(rng.choice(n, size=2, replace=False).tolist())
                       for _ in range(int(rng.integers(1, 5)))]
            out = cx.without_edges(removed)
            assert betti(out) == betti_oracle(out)

    def test_random_disconnected_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n1, n2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            cover = random_cover(rng, n1) + random_cover(rng, n2, offset=n1)
            cx = complex_of(*cover, vertices=range(n1 + n2 + 1))
            b = betti(cx)
            assert b == betti_oracle(cx)
            assert b[0] >= 2

    @pytest.mark.parametrize("cx, expected", [
        (octahedron_boundary(), (1, 0, 1)),
        (complex_of((0, 1), (1, 2), (0, 2)), (1, 1)),
    ])
    def test_no_dominated_vertex(self, cx, expected):
        assert _strong_collapse_core(cx.maximal_simplices()) == \
            frozenset(cx.maximal_simplices())
        assert betti(cx) == betti_oracle(cx) == expected

    def test_padded_to_dim(self):
        cx = complex_of((0, 1, 2, 3), (3, 4))
        assert betti(cx) == betti_oracle(cx) == (1, 0, 0, 0)

    def test_slice_complex_collapses_to_a_point(self):
        config = QcaConfig(n_sites=14, rule=PULSE_RULE)
        poset = build_poset(run(config, 5))
        base = slice_antichain(poset, 0)
        cx = unitary_shadow_complex(poset, base, 5, controlled_simplification=True)
        assert len(_strong_collapse_core(cx.maximal_simplices())) == 1
        assert betti(cx) == (1,) + (0,) * cx.dim
