"""Information distance, distance fields, and the two parametric sweeps."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcageom import infogeo
from qcageom.infogeo import (
    DistanceField,
    block_structure_report,
    distance_field,
    info_distance,
    mutual_information,
    pure_family_state,
    pure_family_sweep,
    site_entropies,
    werner_null_crossing,
    werner_state,
    werner_sweep,
)
from qcageom.statealg import (
    DensityMatrix,
    InvariantError,
    StateVector,
    basis_state,
    partial_trace,
    ppt_separable_2q,
    pure_density,
    spectral_entropy,
    tensor,
    von_neumann_entropy,
)

RNG = np.random.default_rng(7)


def random_state(n: int) -> StateVector:
    amps = RNG.normal(size=1 << n) + 1j * RNG.normal(size=1 << n)
    return StateVector(amps / np.linalg.norm(amps))


def bell_plus() -> StateVector:
    return StateVector(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


def ghz3() -> StateVector:
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / math.sqrt(2)
    return StateVector(amps)


def entropy_oracle(matrix: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(matrix)
    return float(-sum(v * math.log2(v) for v in vals if v > 1e-12))


def werner_entropy(z: float) -> float:
    lams = [(1 + 3 * z) / 4] + [(1 - z) / 4] * 3
    return -sum(l * math.log2(l) for l in lams if l > 1e-12)


class TestInfoDistance:
    def test_pure_product_zero(self):
        joint = pure_density(basis_state("00"))
        assert info_distance(joint, {0}, {1}) == pytest.approx(0.0, abs=1e-12)

    def test_bell_minus_two(self):
        assert info_distance(pure_density(bell_plus()), {0}, {1}) == pytest.approx(-2.0, abs=1e-9)

    def test_maximally_mixed_plus_two(self):
        joint = DensityMatrix(np.eye(4) / 4)
        assert info_distance(joint, {0}, {1}) == pytest.approx(2.0, abs=1e-12)

    def test_werner_third_positive(self):
        # spectrum (1/2, 1/6, 1/6, 1/6): delta = 2*S - 2 = log2(3)
        d = info_distance(werner_state(1 / 3), {0}, {1})
        assert d > 0
        assert d == pytest.approx(2 * werner_entropy(1 / 3) - 2, abs=1e-12)
        assert d == pytest.approx(math.log2(3), abs=1e-12)

    def test_symmetry_exact(self):
        joint = partial_trace(random_state(3), {0, 1})
        assert info_distance(joint, {0}, {1}) == info_distance(joint, {1}, {0})

    def test_errors(self):
        joint = pure_density(basis_state("00"))
        with pytest.raises(ValueError):
            info_distance(joint, {0}, {0})
        with pytest.raises(ValueError):
            info_distance(joint, set(), {1})
        with pytest.raises(ValueError):
            info_distance(joint, {0}, {5})

    def test_pure_global_state_nonpositive(self):
        # For disjoint parts covering a pure state, delta = -2 S(A) <= 0.
        for _ in range(6):
            s = random_state(4)
            joint = pure_density(s)
            a = {0, 3}
            b = set(s.labels) - a
            d = info_distance(joint, a, b)
            sa = entropy_oracle(partial_trace(s, a).matrix)
            assert d == pytest.approx(-2 * sa, abs=1e-8)
            assert d <= 1e-9


class TestMutualInformation:
    def test_examples(self):
        assert mutual_information(pure_density(bell_plus()), {0}, {1}) == pytest.approx(2.0, abs=1e-9)
        prod = pure_density(basis_state("10"))
        assert mutual_information(prod, {0}, {1}) == pytest.approx(0.0, abs=1e-12)
        got = mutual_information(werner_state(0.5), {0}, {1})
        assert got == pytest.approx(2 - werner_entropy(0.5), abs=1e-12)
        assert got == pytest.approx(0.4512, abs=1e-4)

    def test_nonnegative(self):
        for _ in range(6):
            joint = partial_trace(random_state(4), {1, 2})
            assert mutual_information(joint, {1}, {2}) >= -1e-9


class TestDistanceField:
    def test_all_zero_product(self):
        field = distance_field(basis_state("000"), pairs="all_pairs")
        assert np.allclose(field.values, 0.0, atol=1e-9)

    def test_ghz3_all_null(self):
        # Each 2-qubit marginal is (|00><00| + |11><11|)/2, so
        # S(AB) = S(A) = S(B) = 1 and every pair distance vanishes.
        marginal = partial_trace(ghz3(), {0, 1}).matrix
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[3, 3] = 0.5
        assert np.allclose(marginal, expect, atol=1e-12)
        field = distance_field(ghz3(), pairs="all_pairs")
        assert np.max(np.abs(field.values)) <= 1e-9

    def test_bell_tensor_zero(self):
        state = tensor(bell_plus(), basis_state("0", labels=(2,)))
        field = distance_field(state, pairs=[(0, 1), (1, 2)])
        assert field.value(0, 1) == pytest.approx(-2.0, abs=1e-9)
        # Marginal of (1,2) is I/2 (x) |0><0|: S(AB)=1, S(1)=1, S(2)=0,
        # so the distance is +1 (uncorrelated but mixed joint).
        assert field.value(1, 2) == pytest.approx(1.0, abs=1e-9)
        assert math.isnan(field.value(0, 2))

    def test_sentinel_and_diagonal(self):
        field = distance_field(random_state(3), pairs=[(0, 1)])
        assert np.all(np.diagonal(field.values) == 0.0)
        assert math.isnan(field.value(1, 2))
        assert not math.isnan(field.value(0, 1))

    def test_boundary_exclusion(self):
        state = random_state(4)
        field = distance_field(state, pairs="all_pairs",
                               include_boundary=False, boundary_labels=(0, 3))
        assert field.labels == (1, 2)
        field_b = distance_field(state, pairs="all_pairs",
                                 include_boundary=True, boundary_labels=(0, 3))
        assert field_b.labels == (0, 1, 2, 3)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_virtual_boundary_matches_stored_ancillae(self, n):
        """Boundary labels absent from the state act as stored |0> qubits."""
        register = random_state(n)
        register = StateVector(register.amplitudes, tuple(range(1, n + 1)))
        zero = basis_state("0", labels=(0,))
        stored = tensor(tensor(zero, register), basis_state("0", labels=(n + 1,)))
        explicit = [(0, n + 1), (n + 1, 1), (1, n)]
        for pairs in ("all_pairs", "nearest_neighbor", explicit):
            for include_boundary in (False, True):
                kwargs = dict(pairs=pairs, include_boundary=include_boundary,
                              boundary_labels=(0, n + 1))
                if pairs is explicit and not include_boundary:
                    continue
                virtual = distance_field(register, **kwargs)
                want = distance_field(stored, **kwargs)
                assert virtual.labels == want.labels
                assert np.allclose(virtual.values, want.values, atol=1e-12, equal_nan=True)
        field = distance_field(register, include_boundary=True, boundary_labels=(0, n + 1))
        ent = site_entropies(register)
        assert field.value(0, n + 1) == 0.0
        for x in range(1, n + 1):
            assert field.value(0, x) == field.value(n + 1, x) == ent[x]

    def test_nearest_neighbor_mode(self):
        field = distance_field(random_state(4), pairs="nearest_neighbor")
        assert field.computed_pairs() == [(0, 1), (1, 2), (2, 3)]

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            distance_field(random_state(2), pairs=[])

    def test_field_validation(self):
        with pytest.raises(ValueError):
            DistanceField(0, (0, 1), np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            DistanceField(0, (0, 1), np.array([[0.5, 1.0], [1.0, 0.0]]))


class TestBatchedKernel:
    """The batched reduced-state pass against the per-pair reference path."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("include_boundary", [False, True])
    def test_matches_per_pair_reference(self, n, include_boundary):
        rng = np.random.default_rng(100 + n)
        labels = tuple(int(x) for x in rng.permutation(np.arange(10, 10 + 3 * n, 3)))
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(amps / np.linalg.norm(amps), labels)
        boundary = (labels[-1],)
        kept = labels if include_boundary else labels[:-1]
        # explicit pairs in both register orders
        explicit = [tuple(int(x) for x in rng.choice(kept, size=2, replace=False))
                    for _ in range(4)]
        for pairs in ("all_pairs", "nearest_neighbor", explicit):
            field = distance_field(state, pairs=pairs, include_boundary=include_boundary,
                                   boundary_labels=boundary)
            assert field.labels == kept
            computed = field.computed_pairs()
            if pairs is explicit:
                assert {frozenset(p) for p in computed} == {frozenset(p) for p in explicit}
            for a, b in computed:
                expect = info_distance(partial_trace(state, {a, b}), {a}, {b})
                assert abs(field.value(a, b) - expect) <= 1e-12
        ent = site_entropies(state, kept[::-1])
        assert list(ent) == list(kept[::-1])
        for lab, s in ent.items():
            assert abs(s - von_neumann_entropy(partial_trace(state, {lab}))) <= 1e-12

    def test_negative_eigenvalue_raises(self):
        stack = np.array([[0.5, 0.5], [1.0 + 2e-10, -2e-10]])
        with pytest.raises(InvariantError):
            spectral_entropy(stack)
        # within -1e-10 the eigenvalue counts as zero
        assert spectral_entropy(np.array([[-5e-11, 1.0]]))[0] == 0.0
        assert np.allclose(spectral_entropy(stack[:1]), [1.0])

    def test_sweeps_match_scalar_distance(self):
        grid = [i / 40 for i in range(41)]
        werner = werner_sweep(grid)
        pure = pure_family_sweep(grid)
        for z, dw, dp in zip(grid, werner.values, pure.values):
            assert dw == pytest.approx(info_distance(werner_state(z), {0}, {1}), abs=1e-12)
            state = pure_family_state(z)
            expect = info_distance(partial_trace(state, {0, 1}), {0}, {1})
            assert dp == pytest.approx(expect, abs=1e-12)


class TestBlockPass:
    """Sites and pairs read from block states, against `partial_trace`."""

    # deadline=None: single examples at N=10 vary in time on a loaded machine
    @settings(deadline=None)
    @given(st.data())
    def test_matches_partial_trace_and_ignores_other_groups(self, data):
        n = data.draw(st.integers(1, 10), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        labels = tuple(int(x) for x in rng.permutation(np.arange(20, 20 + 2 * n, 2)))
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(amps / np.linalg.norm(amps), labels)
        group = st.lists(st.sampled_from(labels), min_size=1, max_size=min(n, 2),
                         unique=True).map(tuple)
        groups = data.draw(st.lists(group, min_size=1, max_size=12), label="groups")
        entropies = infogeo._reduced_entropies(state, groups)
        for g, s in zip(groups, entropies):
            assert abs(s - von_neumann_entropy(partial_trace(state, g))) <= 1e-12
            assert infogeo._reduced_entropies(state, [g])[0] == s

    def test_all_pairs_builds_one_block_per_pair_of_chunks(self):
        groups = tuple((p,) for p in range(14)) + tuple(
            (p, q) for p in range(14) for q in range(p + 1, 14))
        blocks, _ = infogeo._block_plan(14, groups)
        assert sorted(size for _, size in blocks) == [4] * 21
        blocks, _ = infogeo._block_plan(13, groups[:13])  # sites; chunk 6 is {12}
        assert sorted(size for _, size in blocks) == [3] + [4] * 5


class TestSeparabilityWitness:
    def test_negative_distance_implies_entangled(self):
        hits = 0
        for _ in range(12):
            s = random_state(3)
            for pair in ((0, 1), (0, 2), (1, 2)):
                joint = partial_trace(s, set(pair))
                d = info_distance(joint, {pair[0]}, {pair[1]})
                if d < -1e-6:
                    hits += 1
                    assert not ppt_separable_2q(joint)
        assert hits > 0  # the witness actually fired


class TestSweeps:
    def test_werner_endpoints(self):
        curve = werner_sweep([0.0, 0.5, 1.0])
        assert curve.values[0] == pytest.approx(2.0, abs=1e-9)
        assert curve.values[-1] == pytest.approx(-2.0, abs=1e-9)

    def test_werner_monotone(self):
        grid = [i / 100 for i in range(101)]
        curve = werner_sweep(grid)
        for a, b in zip(curve.values, curve.values[1:]):
            assert b <= a + 1e-9

    def test_werner_unique_crossing_past_third(self):
        grid = [i / 200 for i in range(201)]
        curve = werner_sweep(grid)
        changes = curve.sign_changes()
        assert len(changes) == 1
        assert changes[0][0] > 1 / 3

    def test_null_crossing_bisection(self):
        z_star = werner_null_crossing(tol=1e-8)

        # independent bisection on the symbolic spectrum
        def f(z):
            return 2 * werner_entropy(z) - 2

        lo, hi = 1 / 3, 1.0
        while hi - lo > 1e-10:
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert z_star == pytest.approx((lo + hi) / 2, abs=2e-8)
        assert 1 / 3 < z_star < 1.0

    def test_pure_family_normalization(self):
        # printed family has squared norm 1+z; the constructor normalizes
        for z in (0.0, 0.3, 1.0):
            s = pure_family_state(z)
            assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1) <= 1e-12

    def test_pure_family_values(self):
        curve = pure_family_sweep([0.0, 0.5, 1.0])
        assert curve.values[0] == pytest.approx(0.0, abs=1e-9)
        assert curve.values[1] < -1e-6
        assert curve.values[2] == pytest.approx(-2.0, abs=1e-9)

    def test_pure_family_against_marginal_oracle(self):
        for z in (0.1, 0.5, 0.9):
            s = pure_family_state(z)
            rho_a = partial_trace(s, {0}).matrix
            expect = -2 * entropy_oracle(rho_a)
            got = info_distance(partial_trace(s, {0, 1}), {0}, {1})
            assert got == pytest.approx(expect, abs=1e-9)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            werner_sweep([0.5, 0.5])
        with pytest.raises(ValueError):
            werner_state(1.2)


class TestBlockReport:
    def _field(self, labels, fill):
        n = len(labels)
        vals = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    vals[i, j] = fill(labels[i], labels[j])
        return DistanceField(0, tuple(labels), vals)

    def test_in_progress_pattern(self):
        interior = {3, 4, 5}

        def fill(a, b):
            return 1.0 if (a in interior) != (b in interior) else 0.0

        rep = block_structure_report(self._field(range(1, 9), fill), seed_site=4)
        assert rep.pattern_holds
        assert rep.regions[0] == (3, 4, 5)
        assert rep.cross_min == pytest.approx(1.0)

    def test_uniform_field(self):
        rep = block_structure_report(self._field(range(1, 6), lambda a, b: 0.0))
        assert not rep.pattern_holds
        assert len(rep.regions) == 1
        assert "uniform" in rep.note

    def test_requires_all_pairs(self):
        field = distance_field(random_state(3), pairs=[(0, 1)])
        with pytest.raises(ValueError):
            block_structure_report(field)


class TestSiteEntropies:
    def test_ghz_marginals(self):
        ent = site_entropies(ghz3())
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in ent.values())


def test_triangle_inequality_search_is_recorded_only():
    """Scan a few states for triangle-inequality failures; record, don't assert.

    The distance can be negative, so the triangle inequality has no
    supported invariant here; any counterexample found is printed into
    the test log as an artifact.
    """
    found = []
    for _ in range(10):
        s = random_state(3)
        d = {}
        for pair in ((0, 1), (0, 2), (1, 2)):
            joint = partial_trace(s, set(pair))
            d[pair] = info_distance(joint, {pair[0]}, {pair[1]})
        if d[(0, 2)] > d[(0, 1)] + d[(1, 2)] + 1e-9:
            found.append(d)
    print(f"triangle-inequality violations found: {len(found)}")
    for d in found[:3]:
        print("  witness:", {k: round(v, 6) for k, v in d.items()})
