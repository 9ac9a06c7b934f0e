"""QCA engine against dense-matrix oracles and the named experiments."""
from __future__ import annotations

import math

import numpy as np
import pytest

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
    site_update_unitary,
    species_update,
    x_pulse_rule,
    x_rotation,
    z_rotation,
)
from qcageom.statealg import (
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

    def test_pulse_rule_operators(self):
        assert np.allclose(PULSE_RULE.u0, I2)
        assert np.allclose(PULSE_RULE.u1, -1j * X, atol=1e-12)
        assert np.allclose(PULSE_RULE.u3, -I2, atol=1e-12)

    def test_x_rotation(self):
        theta = 0.37
        expect = math.cos(theta) * I2 - 1j * math.sin(theta) * X
        assert np.allclose(x_rotation(theta), expect)


class TestSiteUpdateUnitary:
    def test_identity_rule(self):
        rule = UpdateRule(I2, I2, I2, I2)
        assert np.allclose(site_update_unitary(rule, 2, 4), np.eye(8))
        assert np.allclose(site_update_unitary(rule, 1, 4), np.eye(4))
        assert np.allclose(site_update_unitary(rule, 4, 4), np.eye(4))

    def test_u0_branch_leaves_site_alone(self):
        m = site_update_unitary(PULSE_RULE, 2, 4)
        # controls |00>: columns 0 (site 0) and 2 (site 1)
        assert np.allclose(m[:, 0], np.eye(8)[:, 0])
        assert np.allclose(m[:, 2], np.eye(8)[:, 2])

    def test_interior_block_structure(self):
        rule = random_rule()
        m = site_update_unitary(rule, 2, 4)
        for l in (0, 1):
            for r in (0, 1):
                rows = [4 * l + r, 4 * l + 2 + r]
                assert np.allclose(m[np.ix_(rows, rows)], rule.unitaries[2 * l + r])

    def test_interior_against_basis_oracle(self):
        rule = random_rule()
        m = site_update_unitary(rule, 2, 4)
        for idx in range(8):
            l, s, r = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
            u = rule.unitaries[2 * l + r]
            expect = np.zeros(8, dtype=complex)
            for out in (0, 1):
                expect[(l << 2) | (out << 1) | r] = u[out, s]
            assert np.allclose(m[:, idx], expect)

    def test_boundary_reductions(self):
        rule = random_rule()
        m1 = site_update_unitary(rule, 1, 6)
        # basis (site, right): right bit selects u0/u1
        for r in (0, 1):
            rows = [r, 2 + r]
            assert np.allclose(m1[np.ix_(rows, rows)], rule.unitaries[r])
        mn = site_update_unitary(rule, 6, 6)
        for l in (0, 1):
            rows = [2 * l, 2 * l + 1]
            assert np.allclose(mn[np.ix_(rows, rows)], rule.unitaries[2 * l])

    def test_site_range(self):
        with pytest.raises(ValueError):
            site_update_unitary(PULSE_RULE, 0, 4)
        with pytest.raises(ValueError):
            site_update_unitary(PULSE_RULE, 5, 4)


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
        config = QcaConfig(n_sites=6, rule=random_rule())
        state = random_register_state(config)
        forward = species_update(state, config, "B")
        backward = state
        for site in reversed(config.species_sites("B")):
            gate = site_update_unitary(config.rule, site, config.n_sites)
            if site == 1:
                targets = (1, 2)
            elif site == config.n_sites:
                targets = (config.n_sites - 1, config.n_sites)
            else:
                targets = (site - 1, site, site + 1)
            backward = apply_unitary(backward, gate, targets)
        assert np.max(np.abs(forward.amplitudes - backward.amplitudes)) <= 1e-10

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

    def test_determinism_bit_exact(self):
        config = QcaConfig(n_sites=6, rule=PI3_RULE)
        initial = initial_state(config, {3: KET_PLUS})
        t1 = run(config, 4, initial)
        t2 = run(config, 4, initial)
        for (l1, s1), (l2, s2) in zip(t1.snapshots, t2.snapshots):
            assert l1 == l2
            assert np.array_equal(s1.amplitudes, s2.amplitudes)

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
