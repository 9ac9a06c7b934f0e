"""File formats: round-trips, sentinel handling, PGM mapping, determinism."""
from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcageom import exports
from qcageom.infogeo import DistanceField, distance_field, werner_sweep
from qcageom.qca import (
    KET_PLUS,
    PI3_RULE,
    QcaConfig,
    RunTrace,
    ghz_experiment,
    initial_state,
    pi3_experiment,
    propagate_experiment,
    run,
)

RNG = np.random.default_rng(5)


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert exports.fmt12(1 / 3) == "0.333333333333"
        assert exports.fmt12(2.0) == "2"
        assert exports.fmt12(-1.5487949406954) == "-1.5487949407"

    def test_nan_and_negative_zero(self):
        assert exports.fmt12(float("nan")) == "nan"
        assert exports.fmt12(-0.0) == "0"

    def test_matrix_csv_roundtrip(self):
        vals = RNG.normal(size=(3, 4))
        text = exports.matrix_csv(["a", "b", "c", "d"], [1, 2, 3], vals)
        cols, rows, back = exports.parse_matrix_csv(text)
        assert cols == ["a", "b", "c", "d"]
        assert rows == ["1", "2", "3"]
        assert np.max(np.abs(np.array(back) - vals)) <= 1e-11 * np.max(np.abs(vals))


class TestDistanceFieldFiles:
    def _field(self):
        vals = np.array([[0.0, -2.0, math.nan], [-2.0, 0.0, 1.0], [math.nan, 1.0, 0.0]])
        return DistanceField(3, (1, 2, 3), vals)

    def test_csv_sentinel(self):
        text = exports.distance_field_csv(self._field())
        lines = text.splitlines()
        assert lines[0] == "label,1,2,3"
        assert lines[1].split(",") == ["1", "0", "-2", "nan"]

    def test_csv_roundtrip(self):
        field = self._field()
        _, _, back = exports.parse_matrix_csv(exports.distance_field_csv(field))
        back = np.array(back)
        assert np.array_equal(np.isnan(back), np.isnan(field.values))
        mask = ~np.isnan(back)
        assert np.array_equal(back[mask], field.values[mask])

    def test_json_null(self):
        obj = exports.distance_field_json_obj(self._field())
        assert obj["time_step"] == 3
        assert obj["values"][0][2] is None
        assert obj["values"][0][1] == -2.0
        json.dumps(obj)  # must be serializable


class TestSweepCsv:
    def test_endpoint_rows(self):
        curve = werner_sweep([0.0, 0.5, 1.0])
        lines = exports.sweep_csv(curve).splitlines()
        assert lines[0] == "z,delta"
        assert lines[1] == "0,2"
        assert lines[-1].startswith("1,-2")


class TestPgm:
    def test_linear_mapping(self, tmp_path):
        m = np.array([[0.0, 1.0], [2.0, 4.0]])
        scale = exports.write_pgm(tmp_path / "x.pgm", m)
        data = (tmp_path / "x.pgm").read_bytes()
        header, pixels = data.rsplit(b"\n", 1)
        assert header == b"P5\n2 2\n255"
        assert list(pixels) == [0, 64, 128, 255]
        assert scale["min"] == 0.0 and scale["max"] == 4.0

    def test_nan_renders_black(self, tmp_path):
        m = np.array([[math.nan, 5.0], [10.0, 5.0]])
        exports.write_pgm(tmp_path / "x.pgm", m)
        pixels = (tmp_path / "x.pgm").read_bytes().rsplit(b"\n", 1)[1]
        assert list(pixels) == [0, 0, 255, 0]

    def test_constant_field(self, tmp_path):
        scale = exports.write_pgm(tmp_path / "x.pgm", np.full((1, 3), 7.0))
        pixels = (tmp_path / "x.pgm").read_bytes().rsplit(b"\n", 1)[1]
        assert list(pixels) == [0, 0, 0]
        assert scale["min"] == scale["max"] == 7.0


class TestTraceRoundtrip:
    def test_bit_exact_amplitudes(self):
        config = QcaConfig(n_sites=4, rule=PI3_RULE)
        trace = run(config, 2, initial_state(config, {2: KET_PLUS}))
        obj = exports.trace_to_json_obj(trace)
        assert obj["format"] == "qcageom-trace-v2"
        assert obj["labels"] == [1, 2, 3, 4]
        back = exports.trace_from_json_obj(json.loads(exports.json_dumps(obj)))
        assert back.config.n_sites == 4
        assert back.config.b_parity == "odd"
        assert back.granularity == trace.granularity
        assert len(back.layers) == len(trace.layers)
        for (l1, s1), (l2, s2) in zip(trace.snapshots, back.snapshots):
            assert l1 == l2
            assert np.array_equal(s1.amplitudes, s2.amplitudes)

    def test_rule_matrices_roundtrip(self):
        config = QcaConfig(n_sites=2, rule=PI3_RULE)
        trace = run(config, 1)
        back = exports.trace_from_json_obj(exports.trace_to_json_obj(trace))
        for u1, u2 in zip(trace.config.rule.unitaries, back.config.rule.unitaries):
            assert np.array_equal(u1, u2)

    def test_snapshots_optional(self):
        config = QcaConfig(n_sites=2, rule=PI3_RULE)
        trace = run(config, 1)
        obj = exports.trace_to_json_obj(_without_snapshots(trace))
        assert "snapshots" not in obj
        back = exports.trace_from_json_obj(obj)
        assert back.snapshots == ()

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            exports.trace_from_json_obj({"format": "something-else"})

    @pytest.mark.parametrize("mangle", [
        lambda o: o.pop("layers"),
        lambda o: o["config"].pop("rule"),
        lambda o: o.__setitem__("layers", [3]),
        lambda o: o["layers"][0].__setitem__("gates", [{"target": 1}]),
        lambda o: o["snapshots"][0].__setitem__("amplitudes_b64", 5),
        lambda o: o["config"]["rule"].__setitem__("unitaries", [[1, 2]]),
        # JSON booleans are not numbers: these entries would read as the identity
        lambda o: o["config"]["rule"]["unitaries"].__setitem__(
            0, [[True, False], [False, False], [False, False], [True, False]]),
        lambda o: o["config"]["rule"]["unitaries"][0].__setitem__(0, [10**400, 0]),
        lambda o: o["layers"][0].__setitem__("index", 1.5),
        lambda o: o["layers"][0].__setitem__("index", True),
        lambda o: o["layers"][1].__setitem__("index", 1),
        lambda o: o["layers"][0]["gates"][0].__setitem__("target", 0),
        lambda o: o["layers"][0]["gates"][0].__setitem__("target", 7),
        lambda o: o["layers"][0]["gates"][0].__setitem__("controls", [5]),
        lambda o: o["layers"][0]["gates"][0].__setitem__("controls", [2.0]),
        lambda o: o["layers"][0]["gates"][0].__setitem__("kind", "swap"),
        lambda o: o["layers"][0].__setitem__("species", "Z"),
        lambda o: o.__setitem__("granularity", "whatever"),
        lambda o: o["snapshots"][1].__setitem__("layer", 99),
        lambda o: o["snapshots"][1].__setitem__("layer", 0),
        lambda o: o["snapshots"][2].__setitem__("layer", 1),
        lambda o: o["config"].__setitem__("n_sites", 6.0),
        lambda o: o.__setitem__("labels", list(range(8))),
        lambda o: o["config"]["rule"].__setitem__("name", [1, {"a": None}]),
        lambda o: o["config"]["rule"].__setitem__("name", 3),
    ])
    def test_malformed_fields_raise_value_error(self, mangle):
        config = QcaConfig(n_sites=6, rule=PI3_RULE)
        obj = json.loads(exports.json_dumps(exports.trace_to_json_obj(run(config, 1))))
        mangle(obj)
        with pytest.raises(ValueError):
            exports.trace_from_json_obj(obj)

    def test_v1_reads_as_register_states(self, as_v1):
        config = QcaConfig(n_sites=4, rule=PI3_RULE)
        trace = run(config, 2, initial_state(config, {2: KET_PLUS}))
        obj = json.loads(exports.json_dumps(exports.trace_to_json_obj(trace)))
        back = exports.trace_from_json_obj(as_v1(obj))
        assert back.config.labels == (0, 1, 2, 3, 4, 5)
        for (l1, s1), (l2, s2) in zip(trace.snapshots, back.snapshots):
            assert l1 == l2
            assert s2.labels == (1, 2, 3, 4)
            assert np.array_equal(s1.amplitudes, s2.amplitudes)
        v1 = as_v1(obj)
        v1["labels"] = [1, 2, 3, 4]
        with pytest.raises(ValueError):
            exports.trace_from_json_obj(v1)

    def test_v1_excited_ancilla_rejected(self, as_v1):
        config = QcaConfig(n_sites=4, rule=PI3_RULE)
        obj = exports.trace_to_json_obj(run(config, 1, initial_state(config, {2: KET_PLUS})))
        tilt = np.array([math.sqrt(1 - 1e-9), math.sqrt(1e-9)])
        for bad in (dict(left=tilt), dict(right=tilt), dict(left=np.array([1.0, math.nan]))):
            with pytest.raises(ValueError, match="boundary qubit"):
                exports.trace_from_json_obj(as_v1(obj, **bad))
        tiny = np.array([math.sqrt(1 - 1e-12), math.sqrt(1e-12)])
        assert len(exports.trace_from_json_obj(as_v1(obj, left=tiny)).snapshots) == 3

    def test_load_missing_file_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            exports.load_trace(tmp_path / "absent.json")

    def test_save_load(self, tmp_path):
        config = QcaConfig(n_sites=3, rule=PI3_RULE)
        trace = run(config, 1, initial_state(config, {1: KET_PLUS}))
        exports.save_trace(tmp_path / "t.json", trace)
        back = exports.load_trace(tmp_path / "t.json")
        assert np.array_equal(back.snapshots[-1][1].amplitudes,
                              trace.snapshots[-1][1].amplitudes)


#: Values that replace a field of a trace: every JSON type, and numbers out of range.
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 20), st.floats(),
                  st.text(max_size=4), st.lists(st.integers(0, 3), max_size=3),
                  st.dictionaries(st.sampled_from(["layer", "index"]), st.integers(0, 3)))


def _alter_b64(draw, obj: dict) -> None:
    """Truncate one snapshot's base64 text, replace one of its characters, or retype it."""
    snap = draw(st.sampled_from(obj["snapshots"]))
    text = snap["amplitudes_b64"]
    if not isinstance(text, str):
        return
    i = draw(st.integers(0, max(len(text) - 1, 0)))
    how = draw(st.sampled_from(["truncate", "replace", "retype"]))
    if how == "truncate":
        snap["amplitudes_b64"] = text[:i]
    elif how == "replace":
        snap["amplitudes_b64"] = text[:i] + draw(st.sampled_from("A/+=!\u00e9\n")) + text[i + 1:]
    else:
        snap["amplitudes_b64"] = draw(_JUNK)


def _alter_field(draw, obj: dict) -> None:
    """Drop, or replace with junk, a field reached by a random walk from the top."""
    parent, key, node = None, None, obj
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(_JUNK)


class TestTraceFuzz:
    @settings(deadline=None)
    @given(st.data())
    def test_mutated_trace_loads_or_raises_value_error(self, as_v1, data):
        config = QcaConfig(n_sites=3, rule=PI3_RULE)
        obj = json.loads(exports.json_dumps(exports.trace_to_json_obj(
            run(config, 1, initial_state(config, {2: KET_PLUS})))))
        if data.draw(st.booleans(), label="v1"):
            obj = as_v1(obj)
        n_b64 = data.draw(st.integers(0, 2), label="base64 mutations")
        for _ in range(n_b64):
            _alter_b64(data.draw, obj)
        for _ in range(data.draw(st.integers(0 if n_b64 else 1, 2), label="field mutations")):
            _alter_field(data.draw, obj)
        try:
            trace = exports.trace_from_json_obj(obj)
            for _, state in trace.snapshots:
                assert state.n_qubits == 3
        except ValueError:  # InvariantError included
            pass


class TestDeterminism:
    def test_identical_json_bytes(self):
        config = QcaConfig(n_sites=4, rule=PI3_RULE)
        t1 = run(config, 3, initial_state(config, {2: KET_PLUS}))
        t2 = run(config, 3, initial_state(config, {2: KET_PLUS}))
        assert exports.json_dumps(exports.trace_to_json_obj(t1)) == \
            exports.json_dumps(exports.trace_to_json_obj(t2))

    def test_streamed_json_bytes(self, tmp_path):
        config = QcaConfig(n_sites=4, rule=PI3_RULE)
        trace = run(config, 3, initial_state(config, {2: KET_PLUS}))
        obj = exports.trace_to_json_obj(trace)
        exports.write_json(tmp_path / "t.json", obj)
        assert (tmp_path / "t.json").read_text() == exports.json_dumps(obj)
        exports.save_trace(tmp_path / "s.json", trace)
        assert (tmp_path / "s.json").read_bytes() == (tmp_path / "t.json").read_bytes()

    def test_identical_field_csv(self):
        config = QcaConfig(n_sites=4, rule=PI3_RULE)
        runs = []
        for _ in range(2):
            trace = run(config, 3, initial_state(config, {2: KET_PLUS}))
            field = distance_field(
                trace.snapshots[-1][1], pairs="all_pairs",
                boundary_labels=config.boundary_labels,
            )
            runs.append(exports.distance_field_csv(field))
        assert runs[0] == runs[1]


def _without_snapshots(trace: RunTrace) -> RunTrace:
    return RunTrace(config=trace.config, granularity=trace.granularity,
                    layers=trace.layers, snapshots=())


class TestStreamedTrace:
    """`save_trace` writes the bytes of `json_dumps(trace_to_json_obj(...))`."""

    @pytest.mark.parametrize("make", [
        lambda: pi3_experiment(8, 3),
        lambda: _without_snapshots(pi3_experiment(8, 3)),  # no "snapshots" key
        lambda: propagate_experiment(6, KET_PLUS)[0],  # ends in a phase layer
        lambda: ghz_experiment(10)[0],  # N mod 4 = 2: an extra B layer
    ], ids=["pi3", "pi3-no-snapshots", "propagate", "ghz10"])
    def test_bytes_equal_reference(self, tmp_path, make):
        trace = make()
        exports.save_trace(tmp_path / "t.json", trace)
        ref = exports.json_dumps(exports.trace_to_json_obj(trace))
        assert (tmp_path / "t.json").read_bytes() == ref.encode("ascii")

    def test_peak_memory_below_three_snapshots(self, tmp_path):
        trace = pi3_experiment(12, 6)
        b64_bytes = len(exports.trace_to_json_obj(trace)["snapshots"][0]["amplitudes_b64"])
        tracemalloc.start()
        try:
            exports.save_trace(tmp_path / "t.json", trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.snapshots) == 25
        assert peak < 3 * b64_bytes
