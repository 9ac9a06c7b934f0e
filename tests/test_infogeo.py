"""Information distance, distance fields, and the two parametric sweeps."""
from __future__ import annotations

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcageom import exports, infogeo
from qcageom.qca import ghz_experiment, ghz_seed_site, pi3_experiment, propagate_experiment
from qcageom.infogeo import (
    BlockReport,
    DistanceField,
    block_structure_report,
    distance_field,
    info_distance,
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
    spectral_entropy,
    von_neumann_entropy,
)

RNG = np.random.default_rng(7)


def random_state(n: int) -> StateVector:
    amps = RNG.normal(size=1 << n) + 1j * RNG.normal(size=1 << n)
    return StateVector(amps / np.linalg.norm(amps))


def bell_plus() -> StateVector:
    return StateVector(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


def density(state: StateVector) -> DensityMatrix:
    """|psi><psi| on the state's labels."""
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()), state.labels)


def computed_pairs(field: DistanceField) -> list[tuple[int, int]]:
    """The pairs (a, b), a before b in the field's labels, whose distance is not the sentinel."""
    n = len(field.labels)
    return [(field.labels[i], field.labels[j]) for i in range(n) for j in range(i + 1, n)
            if not math.isnan(field.values[i, j])]


def pure_family_state(z: float) -> StateVector:
    """sqrt(1-z)|00> + sqrt(z)(|01>+|10>), normalized by 1/sqrt(1+z).

    The raw two-parameter family has squared norm 1+z; the stated
    properties (zero distance only at z=0, negative elsewhere) hold for
    the normalized family, so normalization is applied here.
    """
    amps = np.array([math.sqrt(1.0 - z), math.sqrt(z), math.sqrt(z), 0.0], dtype=complex)
    return StateVector(amps / math.sqrt(1.0 + z), (0, 1))


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
        joint = density(basis_state("00"))
        assert info_distance(joint, {0}, {1}) == pytest.approx(0.0, abs=1e-12)

    def test_bell_minus_two(self):
        assert info_distance(density(bell_plus()), {0}, {1}) == pytest.approx(-2.0, abs=1e-9)

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
        joint = density(basis_state("00"))
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
            joint = density(s)
            a = {0, 3}
            b = set(s.labels) - a
            d = info_distance(joint, a, b)
            sa = entropy_oracle(partial_trace(s, a).matrix)
            assert d == pytest.approx(-2 * sa, abs=1e-8)
            assert d <= 1e-9


@pytest.mark.parametrize("func", [info_distance])
@pytest.mark.parametrize("part_a, part_b, message", [
    (set(), {1}, "both parts must be nonempty"),
    ({0}, [], "both parts must be nonempty"),
    ({0, 1}, {1}, "parts must be disjoint"),
    ({0}, (5, 7), r"labels \[5, 7\] not in the joint state"),
])
def test_bad_parts_rejected(func, part_a, part_b, message):
    with pytest.raises(ValueError, match=message):
        func(density(basis_state("00")), part_a, part_b)


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
        state = StateVector(np.kron(bell_plus().amplitudes, [1, 0]))
        field = distance_field(state, pairs=[(0, 1), (1, 2)])
        assert field.value(0, 1) == pytest.approx(-2.0, abs=1e-9)
        # Marginal of (1,2) is I/2 (x) |0><0|: S(AB)=1, S(1)=1, S(2)=0,
        # so the distance is +1 (uncorrelated but mixed joint).
        assert field.value(1, 2) == pytest.approx(1.0, abs=1e-9)
        assert math.isnan(field.value(0, 2))

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_ghz_snapshots_are_written_in_closed_form(self, n):
        """Each snapshot is a GHZ state on the sites reached so far, times |0> elsewhere.

        So S = 1 on a reached site and 0 elsewhere, and delta is 1 between a
        reached and an unreached site and 0 otherwise; with the floor, the
        written cells are exactly those values.
        """
        trace, _ = ghz_experiment(n)
        reached_before: set[int] = set()
        for idx, state in trace.snapshots:
            field = distance_field(state, time_step=idx)
            reached = {s for s, ent in field.site_entropies.items() if ent > 0.5}
            assert reached >= reached_before
            reached_before = reached
            assert [exports.fmt12(field.site_entropies[s]) for s in field.labels] == \
                ["1" if s in reached else "0" for s in field.labels]
            closed = np.array([[float((a in reached) != (b in reached)) for b in field.labels]
                               for a in field.labels])
            assert exports.distance_field_csv(field) == \
                exports.distance_field_csv(DistanceField(idx, field.labels, closed))
            assert not np.any(np.signbit(field.values[field.values == 0.0]))
        assert reached_before == set(range(1, n + 1))

    @pytest.mark.parametrize("n", range(4, 17, 2))
    def test_propagate_snapshots_follow_the_two_branch_closed_form(self, n):
        """Each snapshot is a|x> + b|y> for basis states x and y.

        So S(G) = H(|a|^2, |b|^2) when x and y differ both inside and outside
        G, and S(G) = 0 otherwise; delta is 2 S(pq) - S(p) - S(q) of those.
        """
        trace, _ = propagate_experiment(n, np.array([0.6 + 0.2j, 0.3 - 0.7j]))
        for idx, state in trace.snapshots:
            ix, iy = np.flatnonzero(state.amplitudes)
            p = abs(state.amplitudes[ix]) ** 2
            h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
            differ = {site for pos, site in enumerate(state.labels)
                      if (ix ^ iy) >> (n - 1 - pos) & 1}

            def entropy(group: set[int]) -> float:
                return h if differ & group and differ - group else 0.0

            field = distance_field(state, time_step=idx)
            s = {site: entropy({site}) for site in field.labels}
            assert field.site_entropies == pytest.approx(s, abs=1e-12)
            assert all(field.site_entropies[q] == 0.0 for q in field.labels if s[q] == 0.0)
            closed = np.array([[0.0 if a == b else 2 * entropy({a, b}) - s[a] - s[b]
                                for b in field.labels] for a in field.labels])
            assert np.max(np.abs(field.values - closed)) <= 1e-12
            assert np.all(field.values[closed == 0.0] == 0.0)

    def test_floor_keeps_the_sign_of_a_negative_distance(self):
        field = distance_field(bell_plus(), pairs="all_pairs")
        assert exports.fmt12(field.value(0, 1)) == "-2"

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
        stored = StateVector(np.kron(np.kron([1, 0], register.amplitudes), [1, 0]),
                             tuple(range(n + 2)))
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
        assert computed_pairs(field) == [(0, 1), (1, 2), (2, 3)]

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
            computed = computed_pairs(field)
            if pairs is explicit:
                assert {frozenset(p) for p in computed} == {frozenset(p) for p in explicit}
            for a, b in computed:
                expect = info_distance(partial_trace(state, {a, b}), {a}, {b})
                assert abs(field.value(a, b) - expect) <= 1e-12
        ent = site_entropies(state)
        assert list(ent) == list(labels)
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
        size = 1 << n
        support = np.sort(rng.choice(size, data.draw(st.integers(1, size), label="support"),
                                     replace=False))
        amps = np.empty(size, dtype=complex)  # zeros of either sign in both parts
        amps.real, amps.imag = rng.choice([0.0, -0.0], size), rng.choice([0.0, -0.0], size)
        amps[support] = rng.normal(size=support.size) + 1j * rng.normal(size=support.size)
        amps[support] /= np.linalg.norm(amps[support])
        if support.size < size:  # one subnormal part, in an amplitude that is otherwise 0
            tiny = int(rng.choice(np.setdiff1d(np.arange(size), support)))
            amps[tiny] = complex(0.0, -5e-324) if tiny % 2 else complex(1e-310, -0.0)
            support = np.union1d(support, [tiny])
        state = StateVector(amps, labels)
        assert np.array_equal(np.flatnonzero(infogeo._amplitude_bits(state.amplitudes)), support)
        group = st.lists(st.sampled_from(labels), min_size=1, max_size=min(n, 2),
                         unique=True).map(tuple)
        groups = data.draw(st.lists(group, min_size=1, max_size=12), label="groups")
        reduced = [partial_trace(state, g) for g in groups]
        entropies, p1 = infogeo._reduced_entropies(state, groups)
        for g, s, p, rho in zip(groups, entropies, p1, reduced):
            assert abs(s - von_neumann_entropy(rho)) <= 1e-12
            if len(g) == 1:
                assert abs(p - rho.matrix[1, 1].real) <= 1e-12
            else:
                assert math.isnan(p)
            alone = np.concatenate(infogeo._reduced_entropies(state, [g]))
            assert np.array_equal(alone, [s, p], equal_nan=True)

    def test_a_field_of_virtual_pairs_reads_no_block(self):
        state = basis_state("00000000", labels=range(1, 9))
        field = distance_field(state, pairs=[(0, 9)], include_boundary=True,
                               boundary_labels=(0, 9))
        assert field.value(0, 9) == 0.0 and field.site_entropies == {}

    @pytest.mark.parametrize("n", range(4, 13))
    def test_builders_agree_on_every_experiment_snapshot(self, n):
        """Block states against `partial_trace` on every pi3, GHZ and propagate snapshot."""
        runs = [pi3_experiment(n, seed) for seed in range(1, n + 1)]
        if n % 2 == 0:  # GHZ and propagate need an even N
            runs += [ghz_experiment(n)[0],
                     propagate_experiment(n, np.array([0.6 + 0.2j, 0.3 - 0.7j]))[0]]
        sites = tuple((p,) for p in range(n))
        blocks, _ = infogeo._block_plan(n, sites + tuple(
            (p, q) for p in range(n) for q in range(p + 1, n)))
        for trace in runs:
            for _, state in trace.snapshots:
                for (order, size), rho in zip(blocks, infogeo._block_states(state, blocks),
                                              strict=True):
                    expect = partial_trace(state, [state.labels[p] for p in order[:size]])
                    assert np.max(np.abs(rho - expect.matrix)) <= 1e-12

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

    @pytest.mark.parametrize("tol", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_null_crossing_rejects_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            werner_null_crossing(tol)

    @pytest.mark.parametrize("tol", [1e-20, 5e-324])
    def test_null_crossing_below_float_spacing(self, tol):
        # the bracket cannot shrink below one float spacing; bisection stops there
        assert werner_null_crossing(tol) == pytest.approx(werner_null_crossing(), abs=1e-8)

    @pytest.mark.parametrize("sweep", [werner_sweep, pure_family_sweep])
    @pytest.mark.parametrize("z", [-0.1, 1.5, math.nan])
    def test_sweep_rejects_z(self, sweep, z):
        with pytest.raises(ValueError, match=r"z must lie in \[0, 1\]"):
            sweep([0.0, z])

    def test_sweeps_against_40_digit_oracle(self):
        """Both sweeps on the CLI's 5001-point grid, against a 40-digit evaluation."""
        grid = [i / 5000 for i in range(5001)]
        werner, pure = werner_sweep(grid).values, pure_family_sweep(grid).values
        assert (werner[0], werner[-1], pure[0], pure[-1]) == (2.0, -2.0, 0.0, -2.0)
        assert math.copysign(1.0, pure[0]) == 1.0  # +0.0
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            ln2 = Decimal(2).ln()

            def bits(*spectrum):
                return -sum((x * x.ln() for x in spectrum if x > 0), Decimal(0)) / ln2

            for z, dw, dp in zip(grid, werner, pure):
                d = Decimal(z)
                small = (1 - d) / 4
                expect_w = 2 * bits((1 + 3 * d) / 4, small, small, small) - 2
                root = ((1 - d) * (1 + 3 * d)).sqrt() / (1 + d)
                expect_p = -2 * bits((1 + root) / 2, (1 - root) / 2)
                assert abs(Decimal(dw) - expect_w) <= Decimal("2e-15"), z
                assert abs(Decimal(dp) - expect_p) <= Decimal("2e-15"), z


def union_find_block_report(field: DistanceField, tol: float = 1e-8,
                            positive_tol: float = 1e-6, seed_site=None) -> BlockReport:
    """`block_structure_report` by union-find over the pairs and loops over the regions."""
    labels, n = field.labels, len(field.labels)
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
    cross = [field.values[i, j] for gi in regions for gj in regions if gi is not gj
             for i in gi for j in gj]
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
    if seed_site is not None and len(region_labels) == 2 and seed_site in region_labels[1]:
        region_labels = (region_labels[1], region_labels[0])
    return BlockReport(regions=region_labels, pattern_holds=ok, cross_min=cross_min, note=note)


@st.composite
def null_fields(draw) -> tuple[DistanceField, int]:
    """A symmetric field of N = 2..18 sites over values near and far from the null tolerance."""
    n = draw(st.integers(2, 18))
    upper = draw(st.lists(st.sampled_from([0.0, 1e-9, -1e-9, 2e-8, 5e-7, 0.5, -0.3, 1.0]),
                          min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    vals = np.zeros((n, n))
    vals[np.triu_indices(n, 1)] = upper
    labels = tuple(range(1, n + 1))
    return DistanceField(0, labels, vals + vals.T), draw(st.sampled_from(labels))


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

    @given(null_fields())
    @settings(deadline=None)
    def test_regions_match_the_union_find_oracle(self, drawn):
        field, seed = drawn
        assert block_structure_report(field, seed_site=seed) == \
            union_find_block_report(field, seed_site=seed)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_ghz_snapshots_match_the_union_find_oracle(self, n):
        trace, _ = ghz_experiment(n)
        seed = ghz_seed_site(n)
        for idx, state in trace.snapshots:
            field = distance_field(state, time_step=idx)
            assert block_structure_report(field, seed_site=seed) == \
                union_find_block_report(field, seed_site=seed)

    def test_requires_all_pairs(self):
        field = distance_field(random_state(3), pairs=[(0, 1)])
        with pytest.raises(ValueError):
            block_structure_report(field)


class TestSiteEntropies:
    def test_ghz_marginals(self):
        ent = site_entropies(ghz3())
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in ent.values())


def occupation_oracle(state: StateVector) -> dict[int, float]:
    """p(1) of every label: the sum of |a_i|^2 over the amplitudes whose bit for it is set."""
    n = state.n_qubits
    probs = np.abs(state.amplitudes.reshape((2,) * n)) ** 2
    return {lab: float(probs.sum(axis=tuple(a for a in range(n) if a != pos))[1])
            for pos, lab in enumerate(state.labels)}


class TestSiteP1:
    """A field's p1 against the direct sum over the amplitudes."""

    def test_matches_direct_sum(self):
        state = basis_state("0110", labels=(0, 1, 2, 3))
        assert distance_field(state).site_p1 == occupation_oracle(state) == \
            {0: 0.0, 1: 1.0, 2: 1.0, 3: 0.0}

    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_pulse_snapshots_equal_the_direct_sum_bitwise(self, n):
        runs = [propagate_experiment(n, np.array([0.6 + 0.2j, 0.3 - 0.7j]))[0]]
        if n >= 4:  # GHZ needs N >= 4
            runs.append(ghz_experiment(n)[0])
        for trace in runs:
            boundary = trace.config.boundary_labels
            for _, state in trace.snapshots:
                oracle = occupation_oracle(state)
                for pairs, include in (("nearest_neighbor", True), ("all_pairs", False)):
                    field = distance_field(state, pairs=pairs, include_boundary=include,
                                           boundary_labels=boundary)
                    assert field.site_p1 == oracle

    def test_gathered_and_transposed_states_agree_with_the_direct_sum(self):
        # sparse pi3 snapshots (at most 106 nonzero amplitudes at N=14) and dense random states
        pi3 = [state for seed in (1, 7, 14) for _, state in pi3_experiment(14, seed).snapshots]
        dense = [random_state(n) for n in (2, 5, 8, 11)]
        for state in pi3 + dense:
            oracle = occupation_oracle(state)
            p1 = distance_field(state).site_p1
            assert p1.keys() == oracle.keys()
            assert all(abs(p1[q] - oracle[q]) <= 1e-15 for q in oracle)


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
