"""QCA engine against dense-matrix oracles and the named experiments."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qcageom import qca, statealg
from qcageom.qca import (
    PI3_RULE,
    PULSE_RULE,
    KET0,
    KET1,
    KET_PLUS,
    QcaConfig,
    UpdateRule,
    ghz_experiment,
    ghz_vector,
    global_update,
    initial_state,
    occupation_probabilities,
    pi3_experiment,
    propagate_experiment,
    run,
    species_update,
    x_pulse_rule,
    x_rotation,
    z_rotation,
)
from qcageom.statealg import (
    InvariantError,
    StateVector,
    apply_unitary,
    basis_state,
    fidelity,
    partial_trace,
    von_neumann_entropy,
)

RNG = np.random.default_rng(99)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_su2() -> np.ndarray:
    m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_rule() -> UpdateRule:
    return UpdateRule(random_su2(), random_su2(), random_su2(), random_su2())


def random_register_state(config: QcaConfig) -> StateVector:
    dim = 1 << config.n_sites
    amps = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    return StateVector(amps / np.linalg.norm(amps), config.register_sites)


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
            m[row, col] += gate[out_bit, s_bit]
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
        with pytest.raises(ValueError):
            UpdateRule(I2, I2, I2, np.array([[1, 1], [0, 1]], dtype=complex))

    @pytest.mark.parametrize("entry", [math.inf, math.nan, 1e308, 1e200j])
    def test_rejects_entries_past_modulus_one(self, entry):
        # the unitarity product would overflow (a RuntimeWarning, an error here)
        u = np.array([[entry, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="u2 is not a 2x2 unitary"):
            UpdateRule(I2, I2, u, I2)

    def test_pulse_rule_operators(self):
        assert np.allclose(PULSE_RULE.u0, I2)
        assert np.allclose(PULSE_RULE.u1, -1j * X, atol=1e-12)
        assert np.allclose(PULSE_RULE.u3, -I2, atol=1e-12)

    def test_x_rotation(self):
        theta = 0.37
        expect = math.cos(theta) * I2 - 1j * math.sin(theta) * X
        assert np.allclose(x_rotation(theta), expect)


class TestSpeciesUpdate:
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
        occ = occupation_probabilities(out)
        assert occ[2] == pytest.approx(1.0, abs=1e-12)

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

    def test_dimension_mismatch(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        with pytest.raises(ValueError):
            species_update(basis_state("0000"), config, "B")
        with pytest.raises(ValueError):
            species_update(basis_state("000000", labels=config.labels), config, "B")


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
        assert trace.n_layers == 0
        assert len(trace.snapshots) == 1

    def test_layer_bookkeeping(self):
        config = QcaConfig(n_sites=4, rule=PULSE_RULE)
        trace = run(config, 3)
        assert trace.n_layers == 6
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

    def test_kernel_matches_its_expression_with_temporaries(self):
        config = QcaConfig(n_sites=5, rule=random_rule())
        coef = np.array(config.rule.unitaries).reshape(2, 2, 2, 2).transpose(3, 0, 2, 1)
        psi = random_register_state(config).amplitudes
        out, scratch = np.empty_like(psi), np.empty_like(psi)
        for species in ("B", "A"):
            for gate in qca._species_gates(config, species):
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


class TestPropagation:
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
        occ = occupation_probabilities(final)
        assert occ[12] == pytest.approx(1.0, abs=1e-9)
        assert sum(occ[s] for s in range(1, 12)) <= 1e-9

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
        assert fidelity(register, ghz_vector(4, config)) == pytest.approx(1.0, abs=1e-12)
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


class TestOccupation:
    def test_matches_direct_sum(self):
        state = basis_state("0110", labels=(0, 1, 2, 3))
        occ = occupation_probabilities(state)
        assert occ == {0: 0.0, 1: 1.0, 2: 1.0, 3: 0.0}
