"""QCA engine against dense-matrix oracles and the named experiments."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qcageom import qca, statealg
from qcageom.qca import (
    PI3_RULE,
    PULSE_RULE,
    QcaConfig,
    UpdateRule,
    ghz_experiment,
    ghz_seed_site,
    initial_state,
    pi3_experiment,
    propagate_experiment,
    run,
    x_pulse_rule,
    x_rotation,
)
from qcageom.statealg import (
    InvariantError,
    StateVector,
    apply_unitary,
    basis_state,
    partial_trace,
    von_neumann_entropy,
)

RNG = np.random.default_rng(99)
KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([math.sqrt(0.5), math.sqrt(0.5)], dtype=complex)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)

#: Angle of the propagation experiment's final Z rotation, exp(-i*theta/2*sigma_z)
#: on site N, found by `TestPropagation.test_z_angle_calibration`.
PROPAGATION_Z_ANGLE = math.pi


def p1(state: StateVector, site: int) -> float:
    """<1|rho|1> of `site`'s reduced state."""
    return float(partial_trace(state, {site}).matrix[1, 1].real)


def z_rotation(theta: float) -> np.ndarray:
    """exp(-i*theta/2*sigma_z)."""
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def random_su2(rng: np.random.Generator = RNG) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_rule() -> UpdateRule:
    return UpdateRule(random_su2(), random_su2(), random_su2(), random_su2())


def random_register_state(config: QcaConfig, rng: np.random.Generator = RNG) -> StateVector:
    dim = 1 << config.n_sites
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(amps / np.linalg.norm(amps), config.register_sites)


@st.composite
def near_unitaries(draw) -> np.ndarray:
    """A 2x2 unitary, exact or with one entry perturbed near the tolerance,
    past modulus one, or not finite."""
    a, b, c, phase = (draw(st.floats(-math.pi, math.pi)) for _ in range(4))
    u = np.exp(1j * phase) * np.array([
        [math.cos(a) * np.exp(1j * b), math.sin(a) * np.exp(1j * c)],
        [-math.sin(a) * np.exp(-1j * c), math.cos(a) * np.exp(-1j * b)],
    ])
    i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    kind = draw(st.sampled_from(["exact", "perturbed", "past_one", "not_finite"]))
    if kind == "perturbed":
        u[i, j] += complex(draw(st.floats(-3e-10, 3e-10)), draw(st.floats(-3e-10, 3e-10)))
    elif kind == "past_one":
        u[i, j] = draw(st.floats(1.0 - 1e-9, 1e308)) * np.exp(1j * phase)
    elif kind == "not_finite":
        u[i, j] = draw(st.sampled_from([math.inf, -math.inf, math.nan, complex(0, math.inf),
                                        complex(math.nan, 0.5), complex(math.inf, math.nan)]))
    return u


def species_update(state: StateVector, config: QcaConfig, species: str) -> StateVector:
    """One species layer of `config`'s rule, through the loop that every run uses."""
    layer = next(l for l in qca._layers(config, 2) if l.species == species)
    return qca._evolve(config, state, (layer,)).snapshots[-1][1]


def global_update(state: StateVector, config: QcaConfig) -> StateVector:
    """One global step: the B layer, then the A layer."""
    return species_update(species_update(state, config, "B"), config, "A")


# ---------------------------------------------------------------- oracles

def embedded_site_matrix(rule: UpdateRule, site: int, n_sites: int) -> np.ndarray:
    """Independent assembly of one site gate on the full register.

    Builds the controlled action column by column over all basis states
    of the (N+2)-qubit register, reading neighbor bits directly.
    """
    n = n_sites + 2
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    u = rule.unitaries
    for col in range(dim):
        left = (col >> (n - 1 - (site - 1))) & 1
        right = (col >> (n - 1 - (site + 1))) & 1
        if site == 1:
            left = 0
        if site == n_sites:
            right = 0
        gate = u[2 * left + right]
        s_bit = (col >> (n - 1 - site)) & 1
        for out_bit in (0, 1):
            row = col & ~(1 << (n - 1 - site)) | (out_bit << (n - 1 - site))
            m[row, col] += gate[out_bit][s_bit]
    return m


def dense_layer_matrix(config: QcaConfig, species: str) -> np.ndarray:
    dim = 1 << (config.n_sites + 2)
    m = np.eye(dim, dtype=complex)
    for site in config.species_sites(species):
        m = embedded_site_matrix(config.rule, site, config.n_sites) @ m
    return m


def with_ancillae(state: StateVector) -> np.ndarray:
    """|0> (x) psi (x) |0>: a register state on the oracles' N+2 qubits."""
    return np.kron(np.kron(KET0, state.amplitudes), KET0)


def register_part(amps: np.ndarray) -> np.ndarray:
    """Register amplitudes of an (N+2)-qubit vector; its ancillae must hold exactly |0>."""
    psi = amps.reshape(2, -1, 2)
    assert not psi[1].any() and not psi[:, :, 1].any()
    return psi[0, :, 0]


# ---------------------------------------------------------------- rules

class TestUpdateRule:
    def test_rejects_non_unitary(self):
        shear = np.array([[1, 1], [0, 1]], dtype=complex)
        with pytest.raises(ValueError):
            UpdateRule(I2, I2, I2, shear)
        # a phase correction is checked as the rule of its layer
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        with pytest.raises(ValueError, match="not a 2x2 unitary"):
            qca._evolve(config, initial_state(config), qca._layers(config, 2, 3), phase=shear)

    @pytest.mark.parametrize("entry", [math.inf, math.nan, 1e308, 1e200j])
    def test_rejects_entries_past_modulus_one(self, entry):
        # the unitarity product would overflow (a RuntimeWarning, an error here)
        u = np.array([[entry, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="u2 is not a 2x2 unitary"):
            UpdateRule(I2, I2, u, I2)

    def test_pulse_rule_operators(self):
        # exact: (1, -iX, -iX, -1), which x_rotation gives only within an ulp
        assert PULSE_RULE.unitaries == (qca.IDENTITY_2, ((0, -1j), (-1j, 0)),
                                        ((0, -1j), (-1j, 0)), ((-1, 0), (0, -1)))
        assert PI3_RULE.u3 == PULSE_RULE.u3 == x_pulse_rule(0.25).u3
        assert np.max(np.abs(np.array(x_rotation(math.pi / 2)) - PULSE_RULE.u1)) <= 1e-15
        assert np.max(np.abs(np.array(x_rotation(math.pi)) - PULSE_RULE.u3)) <= 1e-15

    def test_x_rotation(self):
        theta = 0.37
        expect = math.cos(theta) * I2 - 1j * math.sin(theta) * X
        assert np.allclose(x_rotation(theta), expect)

    @given(st.floats(-1e6, 1e6) | st.sampled_from(
        [0.0, -0.0, math.pi / 2, math.pi / 3, math.pi, -math.pi, 2 * math.pi, 1e300]))
    def test_x_rotation_has_the_bits_of_the_numpy_expression(self, theta):
        expect = math.cos(theta) * I2 - 1j * math.sin(theta) * X
        assert np.array(x_rotation(theta)).tobytes() == expect.tobytes()

    def test_matrices_are_python_complex_numbers(self):
        for u in PI3_RULE.unitaries:
            assert type(u) is tuple and all(type(z) is complex for row in u for z in row)

    @given(st.data())
    def test_accepts_exactly_what_is_unitary_accepts(self, data):
        u = data.draw(near_unitaries())
        if np.all(np.abs(u) <= 1.0 + statealg.ATOL):
            # BLAS rounds u^dagger u with fused multiply-adds, the pure-Python
            # check without: a deviation within rounding of ATOL may go either way
            deviation = np.max(np.abs(u.conj().T @ u - I2))
            assume(abs(deviation - statealg.ATOL) > 1e-14)
        try:
            UpdateRule(I2, u, I2, I2)
            accepted = True
        except ValueError as exc:
            assert str(exc) == "u1 is not a 2x2 unitary within 1e-10"
            accepted = False
        assert accepted == statealg.is_unitary(u)


class TestSpeciesUpdate:
    def test_species_sites_split_the_register_by_parity(self):
        odd, even = (1, 3, 5), (2, 4)
        assert QcaConfig(5, PULSE_RULE).species_sites("B") == odd
        assert QcaConfig(5, PULSE_RULE).species_sites("A") == even
        assert QcaConfig(5, PULSE_RULE, "even").species_sites("B") == even
        assert QcaConfig(5, PULSE_RULE, "even").species_sites("A") == odd
        assert QcaConfig(5, PULSE_RULE).species_sites("X") == ()

    def test_all_zero_register_fixed(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        state = initial_state(config)
        out = species_update(state, config, "B")
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_n2_seed_10_flips_site_2(self):
        # |10> with even B: site 2 sees (left, right) = (1, 0) -> u2
        config = QcaConfig(n_sites=2, rule=PULSE_RULE, b_parity="even")
        state = initial_state(config, {1: KET1})
        out = species_update(state, config, "B")
        oracle = dense_layer_matrix(config, "B") @ with_ancillae(state)
        assert np.allclose(out.amplitudes, register_part(oracle), atol=1e-12)
        assert p1(out, 2) == pytest.approx(1.0, abs=1e-12)

    def test_involutive_rule_squares_to_identity_on_basis(self):
        rule = UpdateRule(I2, X, X, I2)
        config = QcaConfig(n_sites=5, rule=rule)
        for bits in ("10010", "01101", "00000"):
            state = basis_state(bits, labels=config.register_sites)
            once = species_update(state, config, "A")
            twice = species_update(once, config, "A")
            assert np.allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    def test_same_species_order_independent(self):
        """The oracle's site gates applied in reverse order give the same layer."""
        for n in range(2, 9):
            for parity in ("odd", "even"):
                config = QcaConfig(n_sites=n, rule=random_rule(), b_parity=parity)
                state = random_register_state(config)
                for species in ("A", "B"):
                    forward = species_update(state, config, species)
                    backward = with_ancillae(state)
                    for site in reversed(config.species_sites(species)):
                        backward = embedded_site_matrix(config.rule, site, n) @ backward
                    err = np.max(np.abs(forward.amplitudes - register_part(backward)))
                    assert err <= 1e-12, (n, parity, species)

    def test_random_rules_keep_the_norm(self):
        for n in (3, 6, 9):
            config = QcaConfig(n_sites=n, rule=random_rule())
            trace = run(config, 5, random_register_state(config))
            for _, state in trace.snapshots:
                assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1) <= 1e-12

    def test_gate_norm_drift_raises(self):
        rule = random_rule()
        object.__setattr__(rule, "u3", 2 * I2)
        config = QcaConfig(n_sites=4, rule=rule)
        with pytest.raises(InvariantError, match="drifted norm"):
            species_update(random_register_state(config), config, "B")

    def test_gate_nan_norm_raises_at_first_gate(self, monkeypatch):
        applied = []
        kernel = qca._controlled_update

        def spy(psi, coef, gate, out, scratch):
            applied.append(gate)
            return kernel(psi, coef, gate, out, scratch)

        rule = random_rule()
        object.__setattr__(rule, "u3", np.full((2, 2), np.nan))
        config = QcaConfig(n_sites=4, rule=rule, b_parity="even")
        monkeypatch.setattr(qca, "_controlled_update", spy)
        with pytest.raises(InvariantError, match="drifted norm"):
            species_update(random_register_state(config), config, "B")
        # the first B gate, at site 2, applies u3 where sites 1 and 3 hold |1>
        assert [g.target for g in applied] == [2]


class TestRegisterOnlyState:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("species", ["A", "B"])
    def test_matches_ancilla_oracle(self, n, parity, species):
        """Evolving without the ancillae equals the (N+2)-qubit oracle on |0>psi|0>."""
        config = QcaConfig(n_sites=n, rule=random_rule(), b_parity=parity)
        state = random_register_state(config)
        out = species_update(state, config, species)
        oracle = dense_layer_matrix(config, species) @ with_ancillae(state)
        assert np.max(np.abs(out.amplitudes - register_part(oracle))) <= 1e-12

    def test_labels_and_sizes(self):
        config = QcaConfig(n_sites=5, rule=PI3_RULE)
        assert initial_state(config).labels == config.register_sites
        trace = run(config, 2, initial_state(config, {3: KET_PLUS}))
        for _, state in trace.snapshots:
            assert state.labels == config.register_sites
            assert state.amplitudes.size == 1 << 5

    def test_seed_tuples_give_the_bits_of_complex_arrays(self):
        config = QcaConfig(n_sites=3, rule=PI3_RULE)

        def bits(seeds):
            return initial_state(config, seeds).amplitudes.tobytes()

        for given, array in ((qca.KET1, KET1), (qca.KET_PLUS, KET_PLUS)):
            assert isinstance(given, tuple)
            assert bits({2: given}) == bits({2: array})
        assert bits({}) == bits({1: KET0, 2: KET0, 3: KET0})

    def test_site_cap(self):
        assert QcaConfig(n_sites=16, rule=PULSE_RULE).n_sites == 16
        with pytest.raises(ValueError):
            QcaConfig(n_sites=17, rule=PULSE_RULE)

    def test_pi3_n16_runs(self):
        trace = pi3_experiment(16, 8, 1)
        final = trace.snapshots[-1][1]
        assert final.amplitudes.size == 1 << 16
        assert abs(np.vdot(final.amplitudes, final.amplitudes).real - 1) <= 1e-10


class TestGlobalUpdate:
    def test_identity_rule_fixed_point(self):
        config = QcaConfig(n_sites=4, rule=UpdateRule(I2, I2, I2, I2))
        state = random_register_state(config)
        out = global_update(state, config)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_matches_dense_oracle_n4(self):
        for parity in ("odd", "even"):
            config = QcaConfig(n_sites=4, rule=random_rule(), b_parity=parity)
            state = random_register_state(config)
            dense = dense_layer_matrix(config, "A") @ dense_layer_matrix(config, "B")
            out = global_update(state, config)
            oracle = register_part(dense @ with_ancillae(state))
            assert np.max(np.abs(out.amplitudes - oracle)) <= 1e-10

    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_pulse_keeps_basis_seeds_in_one_component(self, parity):
        config = QcaConfig(n_sites=6, rule=PULSE_RULE, b_parity=parity)
        state = initial_state(config, {1: KET1, 4: KET1})
        for _ in range(6):
            state = global_update(state, config)
            mags = np.abs(state.amplitudes)
            assert abs(np.max(mags) - 1.0) <= 1e-9
            assert np.sum(mags > 1e-9) == 1


class TestRun:
    def test_zero_steps(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        trace = run(config, 0)
        assert len(trace.layers) == 0
        assert len(trace.snapshots) == 1

    def test_layer_bookkeeping(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        trace = run(config, 3)
        assert len(trace.layers) == 6
        assert [l.species for l in trace.layers] == ["B", "A"] * 3
        assert len(trace.snapshots) == 7
        trace_g = run(config, 3, record="per_global_step")
        assert len(trace_g.snapshots) == 4

    def test_gate_records_reduced_controls(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        trace = run(config, 1)
        by_target = {g.target: g for g in trace.layers[0].gates}
        assert set(by_target) == {1, 3}
        assert by_target[1].controls == (2,)
        assert by_target[3].controls == (2, 4)

    def test_layers_evolve_through_their_records(self, monkeypatch):
        applied = []
        kernel = qca._controlled_update

        def spy(psi, coef, gate, out, scratch):
            applied.append(gate)
            return kernel(psi, coef, gate, out, scratch)

        def no_blas(*args, **kwargs):
            raise AssertionError("a gate went through statealg.apply_unitary")

        monkeypatch.setattr(qca, "_controlled_update", spy)
        monkeypatch.setattr(qca, "apply_unitary", no_blas)
        monkeypatch.setattr(statealg, "apply_unitary", no_blas)
        for experiment, n_gates in (
            # two run layers, the extra B layer, a phase layer
            (lambda: ghz_experiment(6)[0], 10),
            # four run layers of two gates, a phase layer
            (lambda: propagate_experiment(4, KET_PLUS)[0], 9),
            (lambda: pi3_experiment(5, 2, 2), 10),
        ):
            applied.clear()
            trace = experiment()
            recorded = [g for layer in trace.layers for g in layer.gates]
            assert len(applied) == len(recorded) == n_gates
            assert all(a is r for a, r in zip(applied, recorded))

    @pytest.mark.parametrize("n", [2, 3, 6, 7])
    def test_snapshots_are_reevolutions_in_their_own_memory(self, n):
        # the kernel writes into reused buffers, so a snapshot that kept one
        # would change under the next layer
        config = QcaConfig(n_sites=n, rule=random_rule())
        trace = run(config, 3, random_register_state(config))
        states = [state for _, state in trace.snapshots]
        for layer, before, after in zip(trace.layers, states, states[1:]):
            again = species_update(before, config, layer.species)
            assert again.amplitudes.tobytes() == after.amplitudes.tobytes()
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                assert not np.shares_memory(a.amplitudes, b.amplitudes)

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(2, 10), parity=st.sampled_from(["odd", "even"]),
           u0_is_identity=st.booleans(), species=st.text("AB", max_size=6),
           phase=st.tuples(st.integers(0, 6), st.integers(1, 10)),
           record=st.sampled_from(["per_species_layer", "per_global_step"]),
           seed=st.integers(0, 2**32 - 1))
    def test_loop_equals_the_kernel_gate_by_gate(self, n, parity, u0_is_identity, species,
                                                 phase, record, seed):
        """`_evolve`'s snapshots have the bits of each gate written into fresh arrays."""
        rng = np.random.default_rng(seed)
        u0 = I2 if u0_is_identity else random_su2(rng)
        rule = UpdateRule(u0, random_su2(rng), random_su2(rng), random_su2(rng))
        config = QcaConfig(n_sites=n, rule=rule, b_parity=parity)
        at, site = phase
        by_species = {l.species: l for l in qca._layers(config, 2)}
        by_species["phase"] = qca._layers(config, 0, min(site, n))[0]
        kinds = list(species)
        kinds.insert(min(at, len(kinds)), "phase")
        layers = tuple(by_species[k].replace(index=i) for i, k in enumerate(kinds, start=1))
        u = random_su2(rng)
        state = random_register_state(config, rng)

        unitaries = {"A": rule.unitaries, "B": rule.unitaries, "phase": (u, u, u, u)}
        psi, expected = state.amplitudes, [(0, state.amplitudes)]
        for layer in layers:
            coef = np.array(unitaries[layer.species]).reshape(2, 2, 2, 2).transpose(3, 0, 2, 1)
            for gate in layer.gates:
                psi = qca._controlled_update(psi, coef, gate, np.empty_like(psi),
                                             np.empty_like(psi))
            if record == "per_species_layer" or layer.species == "A":
                expected.append((layer.index, psi))

        got = qca._evolve(config, state, layers, record, phase=u).snapshots
        assert [layer for layer, _ in got] == [layer for layer, _ in expected]
        for (_, snapshot), (_, amps) in zip(got, expected):
            assert np.array_equal(snapshot.amplitudes.view(np.uint64), amps.view(np.uint64))

    def test_kernel_matches_its_expression_with_temporaries(self):
        config = QcaConfig(n_sites=5, rule=random_rule())
        coef = np.array(config.rule.unitaries).reshape(2, 2, 2, 2).transpose(3, 0, 2, 1)
        psi = random_register_state(config).amplitudes
        out, scratch = np.empty_like(psi), np.empty_like(psi)
        for layer in qca._layers(config, 2):
            for gate in layer.gates:
                t = gate.target
                left = 2 if t - 1 in gate.controls else 1
                right = 2 if t + 1 in gate.controls else 1
                v = psi.reshape(1 << (t - left), left, 2, right, -1)
                c = coef[:, :left, :, :right, None]
                expect = (0.0 + c[0] * v[:, :, :1] + c[1] * v[:, :, 1:]).reshape(-1)
                got = qca._controlled_update(psi, coef, gate, out, scratch)
                assert got is out
                assert got.tobytes() == expect.tobytes()
                psi = got.copy()

    def test_determinism_bit_exact(self):
        config = QcaConfig(n_sites=6, rule=PI3_RULE)
        initial = initial_state(config, {3: KET_PLUS})
        t1 = run(config, 4, initial)
        t2 = run(config, 4, initial)
        for (l1, s1), (l2, s2) in zip(t1.snapshots, t2.snapshots):
            assert l1 == l2
            assert np.array_equal(s1.amplitudes, s2.amplitudes)

    def test_zero_amplitudes_are_positive_zero(self):
        """Saved traces encode +0.0, as a matrix product writes it, never -0.0."""
        traces = [pi3_experiment(6, seed_site, 4) for seed_site in (1, 3, 6)]
        traces += [propagate_experiment(n, np.array(psi))[0]
                   for n in (2, 6) for psi in ((0, 1), (1, 0), (0.6 + 0.2j, 0.3 - 0.7j))]
        traces += [ghz_experiment(n)[0] for n in (4, 6, 8)]
        for trace in traces:
            for _, state in trace.snapshots:
                parts = state.amplitudes.view(float)
                assert not np.any(np.signbit(parts[parts == 0.0]))

    def test_norm_every_layer(self):
        trace = pi3_experiment(6, 2, 4)
        for _, state in trace.snapshots:
            assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1) <= 1e-10


class TestRunWithoutSnapshots:
    @pytest.mark.parametrize("record", ["per_species_layer", "per_global_step"])
    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("rule", [PULSE_RULE, PI3_RULE], ids=["pulse", "pi3"])
    def test_layers_equal_the_evolving_run_without_a_gate(self, rule, parity, record,
                                                         monkeypatch):
        applied = []
        kernel = qca._controlled_update

        def spy(psi, coef, gate, out, scratch):
            applied.append(gate)
            return kernel(psi, coef, gate, out, scratch)

        monkeypatch.setattr(qca, "_controlled_update", spy)
        for n in range(2, 15):
            config = QcaConfig(n_sites=n, rule=rule, b_parity=parity)
            evolved = run(config, 4, record=record)
            assert len(applied) == 4 * n
            applied.clear()
            bare = run(config, 4, record=record, snapshots=False)
            assert applied == []
            assert bare.layers == evolved.layers
            assert (bare.config, bare.granularity, bare.snapshots) == (config, record, ())

    def test_initial_state_needs_snapshots(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        with pytest.raises(ValueError, match="initial state"):
            run(config, 2, initial_state(config), snapshots=False)


class TestIntegerArguments:
    """Sizes and step counts are integers: numpy's are, a bool, a float or a str is not."""

    CONFIG = QcaConfig(n_sites=4, rule=PULSE_RULE)

    @pytest.mark.parametrize("call", [
        lambda: QcaConfig(n_sites=4.5, rule=PULSE_RULE),
        lambda: QcaConfig(n_sites=4.0, rule=PULSE_RULE),
        lambda: QcaConfig(n_sites="4", rule=PULSE_RULE),
        lambda: QcaConfig(n_sites=True, rule=PULSE_RULE),
        lambda: run(TestIntegerArguments.CONFIG, 1.5, snapshots=False),
        lambda: run(TestIntegerArguments.CONFIG, True),
        lambda: run(TestIntegerArguments.CONFIG, "2", snapshots=False),
        lambda: ghz_experiment(4.0),
        lambda: propagate_experiment(4.0, np.array([1, 0])),
        lambda: pi3_experiment(4.0, 2, 1),
        lambda: pi3_experiment(6, True, 1),
        lambda: pi3_experiment(6, 2.0, 1),
        lambda: initial_state(TestIntegerArguments.CONFIG, {True: qca.KET_PLUS}),
        lambda: initial_state(TestIntegerArguments.CONFIG, {2.0: qca.KET_PLUS}),
    ], ids=["config-float", "config-integral-float", "config-str", "config-bool", "run-float",
            "run-bool", "run-str", "ghz-float", "propagate-float", "pi3-float", "pi3-seed-bool",
            "pi3-seed-float", "initial-state-bool-key", "initial-state-float-key"])
    def test_non_integer_rejected(self, call):
        with pytest.raises(ValueError, match="is not an integer"):
            call()

    def test_numpy_integers_accepted(self):
        config = QcaConfig(n_sites=np.int64(4), rule=PULSE_RULE)
        assert config == self.CONFIG and type(config.n_sites) is int
        assert run(config, np.int8(2), snapshots=False).layers == run(config, 2).layers


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_pulse_experiments_keep_two_amplitudes(n):
    # the pulse rule and both corrections map each basis branch to one basis state
    for (trace, fid), n_rule, phase_site in (
        (propagate_experiment(n, np.array([0.6 + 0.2j, 0.3 - 0.7j])), n, n),
        (ghz_experiment(n), n // 2, ghz_seed_site(n)),
    ):
        for _, state in trace.snapshots:
            assert np.count_nonzero(state.amplitudes) == 2
        assert abs(fid - 1.0) <= 1e-15
        # rule layers B first, then one phase gate with no controls
        assert [l.species for l in trace.layers] == [*("BA" * n)[:n_rule], "phase"]
        assert trace.layers[-1].gates == (qca.GateRecord(phase_site, (), "phase"),)


class TestPropagation:
    def test_phase_is_the_calibrated_z_rotation(self):
        phase = qca._PROPAGATION_PHASE
        assert np.max(np.abs(z_rotation(PROPAGATION_Z_ANGLE) - phase)) <= 1e-15
        assert phase == ((-1j, 0), (0, 1j))

    def test_zero_seed_fixed_point(self):
        trace, fid = propagate_experiment(6, np.array([1, 0]))
        assert fid == pytest.approx(1.0, abs=1e-12)
        final = trace.snapshots[-1][1]
        assert np.abs(final.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)

    def test_one_seed_reaches_site_n(self):
        trace, fid = propagate_experiment(12, KET1)
        assert fid >= 1 - 1e-9
        # ridge: after global step g (layer 2g), the excitation sits at
        # sites {2g, 2g+1}, collapsing onto site N at the end
        final = trace.snapshot_at_layer(12)
        assert p1(final, 12) == pytest.approx(1.0, abs=1e-9)
        assert sum(p1(final, s) for s in range(1, 12)) <= 1e-9

    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("psi", [
        (0, 1),
        (1 / math.sqrt(2), 1 / math.sqrt(2)),
        (1 / math.sqrt(2), 1j / math.sqrt(2)),
        (3, 4j),  # normalized on input
    ])
    def test_fidelity_one(self, n, psi):
        trace, fid = propagate_experiment(n, np.array(psi))
        assert fid >= 1 - 1e-9
        final = trace.snapshots[-1][1]
        for site in range(1, n):
            rho = partial_trace(final, {site}).matrix
            assert rho[0, 0].real >= 1 - 1e-9

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            propagate_experiment(5, KET1)

    @pytest.mark.parametrize("psi", [(math.nan, 1), (math.inf, 0), (0, 0), (1, 0, 0)])
    def test_bad_seed_rejected(self, psi):
        with pytest.raises(ValueError):
            propagate_experiment(4, np.array(psi))

    def test_seeds_are_not_renormalized(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        with pytest.raises(ValueError):
            initial_state(config, {1: np.array([3, 4])})

    def test_z_angle_calibration(self):
        """Golden-section scan of the final Z angle on a |+> seed.

        Re-derives the committed constant: the fidelity-maximizing angle
        is pi (a multiple of pi/2, as expected for the pulse rule).
        """
        n = 4
        config_psi = np.array([1, 1], dtype=complex) / math.sqrt(2)

        def fid_for_angle(theta: float) -> float:
            trace, _ = propagate_experiment(n, config_psi)
            # undo the committed rotation, apply the trial angle instead
            state = trace.snapshots[-2][1]
            state = apply_unitary(state, z_rotation(theta), (n,))
            rho = partial_trace(state, {n}).matrix
            return float((config_psi.conj() @ rho @ config_psi).real)

        lo, hi = 0.0, 2 * math.pi
        inv_phi = (math.sqrt(5) - 1) / 2
        a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        for _ in range(60):
            if fid_for_angle(a) < fid_for_angle(b):
                lo = a
            else:
                hi = b
            a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        theta_star = 0.5 * (lo + hi)
        assert theta_star == pytest.approx(math.pi, abs=1e-6)
        assert fid_for_angle(math.pi) >= 1 - 1e-9


class TestGhz:
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_fidelity_one(self, n):
        trace, fid = ghz_experiment(n)
        assert fid >= 1 - 1e-9

    def test_n12_layer_count(self):
        trace, _ = ghz_experiment(12)
        # k = 3 global updates plus the phase correction layer
        species = [l.species for l in trace.layers]
        assert species == ["B", "A"] * 3 + ["phase"]

    def test_n6_extra_b_layer(self):
        trace, fid = ghz_experiment(6)
        species = [l.species for l in trace.layers]
        assert species == ["B", "A", "B", "phase"]
        assert fid >= 1 - 1e-9

    def test_n4_against_dense_oracle(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE, b_parity="odd")
        state = initial_state(config, {2: KET_PLUS})
        dense = dense_layer_matrix(config, "A") @ dense_layer_matrix(config, "B")
        amps = dense @ with_ancillae(state)
        # phase correction exp(-i pi/4 sigma_z) on site 2 (k = 1)
        corr = np.diag([np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)])
        oracle = apply_unitary(StateVector(amps, config.labels), corr, (2,))
        register = StateVector(register_part(oracle.amplitudes), config.register_sites)
        trace, fid = ghz_experiment(4)
        assert np.max(np.abs(trace.snapshots[-1][1].amplitudes - register.amplitudes)) <= 1e-10
        ghz = np.zeros(1 << 4, dtype=complex)
        ghz[[0, -1]] = 1 / math.sqrt(2)
        assert abs(np.vdot(register.amplitudes, ghz)) ** 2 == pytest.approx(1.0, abs=1e-12)
        final = trace.snapshots[-1][1].amplitudes
        assert fid == pytest.approx(abs(np.vdot(final, ghz)) ** 2, abs=1e-15)
        assert fid >= 1 - 1e-9

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            ghz_experiment(5)
        with pytest.raises(ValueError):
            ghz_experiment(2)


class TestPi3:
    def test_zero_steps_product(self):
        trace = pi3_experiment(6, 1, 0)
        state = trace.snapshots[-1][1]
        for site in range(1, 7):
            rho = partial_trace(state, {site})
            assert von_neumann_entropy(rho) <= 1e-9

    def test_seed_site_validation(self):
        with pytest.raises(ValueError):
            pi3_experiment(6, 0)
        with pytest.raises(ValueError):
            pi3_experiment(6, 7)

    def test_entropy_spreads(self):
        trace = pi3_experiment(10, 1, 5)
        final = trace.snapshots[-1][1]
        ent = [von_neumann_entropy(partial_trace(final, {s})) for s in range(1, 11)]
        assert all(e > 1e-6 for e in ent)

