"""File formats: round-trips, sentinel handling, PGM mapping, determinism."""
from __future__ import annotations

import base64
import gc
import json
import math
import os
import re
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcageom import exports, tracereader
from qcageom.infogeo import DistanceField, distance_field, werner_sweep
from qcageom.qca import (
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
KET_PLUS = np.array([math.sqrt(0.5), math.sqrt(0.5)], dtype=complex)


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

    def test_json_writes_the_csv_digits(self):
        third = 1 / 3 + 4e-16  # differs from 1/3 only beyond 12 digits
        vals = np.array([[0.0, third], [third, 0.0]])
        obj = exports.distance_field_json_obj(DistanceField(0, (1, 2), vals))
        assert obj["values"][0][1] == float(exports.fmt12(1 / 3)) == 0.333333333333


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
        # gate records that no run writes
        lambda o: o["layers"][0]["gates"][1].__setitem__("controls", [2, 2]),
        lambda o: o["layers"][0]["gates"][1].update(kind="phase", controls=[]),
        lambda o: o["layers"][0].__setitem__("species", "phase"),
        lambda o: o["layers"][0].update(species="phase", gates=[
            {"target": 3, "controls": [2], "kind": "phase"}]),
        lambda o: o["layers"][0].__setitem__("species", "Z"),
        lambda o: o.__setitem__("granularity", "whatever"),
        lambda o: o["snapshots"][1].__setitem__("layer", 99),
        lambda o: o["snapshots"][1].__setitem__("layer", 0),
        lambda o: o["snapshots"][2].__setitem__("layer", 1),
        lambda o: o["config"].__setitem__("n_sites", 6.0),
        lambda o: o.__setitem__("labels", list(range(8))),
        lambda o: o.__setitem__("format", "qcageom-trace-v1"),
        lambda o: o["config"]["rule"].__setitem__("name", [1, {"a": None}]),
        lambda o: o["config"]["rule"].__setitem__("name", 3),
        # layers and snapshots that no run writes, most with every field in range
        lambda o: o["layers"][0]["gates"][1].update(target=4, controls=[3, 5]),
        lambda o: o["layers"][0]["gates"].reverse(),
        lambda o: o["layers"][0]["gates"].pop(),
        lambda o: o["layers"][0]["gates"].append(dict(o["layers"][0]["gates"][2])),
        lambda o: o["layers"][0]["gates"][1].__setitem__("controls", [2]),
        lambda o: o["layers"][0]["gates"][0].__setitem__("target", True),
        lambda o: o["layers"][0]["gates"][0].__setitem__("target", 1.0),
        lambda o: [l.__setitem__("species", s) for l, s in zip(o["layers"], "AB")],
        lambda o: o["layers"][1].__setitem__("species", "B"),
        lambda o: o["layers"][0].update(species="phase", gates=[
            {"target": 1, "controls": [], "kind": "phase"}]),
        lambda o: o["layers"].extend({"index": i, "species": "phase", "gates": [
            {"target": 6, "controls": [], "kind": "phase"}]} for i in (3, 4)),
        lambda o: o["snapshots"].pop(1),
        lambda o: o.__setitem__("granularity", "per_global_step"),
        lambda o: (o["layers"].append({"index": 3, "species": "phase", "gates": [
            {"target": 7, "controls": [], "kind": "phase"}]}),
            o["snapshots"].append(dict(o["snapshots"][2], layer=3))),
        lambda o: o.__setitem__("snapshots", []),
        lambda o: o.__setitem__("snapshots", {}),
    ])
    def test_malformed_fields_raise_value_error(self, mangle):
        config = QcaConfig(n_sites=6, rule=PI3_RULE)
        obj = json.loads(exports.json_dumps(exports.trace_to_json_obj(run(config, 1))))
        mangle(obj)
        with pytest.raises(ValueError):
            exports.trace_from_json_obj(obj)

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
        # a rule compares by value, so the loaded config equals the run's
        assert back.config == trace.config and hash(back.config) == hash(trace.config)

    def test_slices_read_each_entry(self, tmp_path):
        trace = pi3_experiment(6, 3)
        obj = exports.trace_to_json_obj(trace)
        snap = obj["snapshots"][2]
        amps = np.frombuffer(base64.b64decode(snap["amplitudes_b64"]), dtype="<c16") * 2.0
        snap["amplitudes_b64"] = base64.b64encode(amps.astype("<c16").tobytes()).decode()
        (tmp_path / "t.json").write_text(json.dumps(obj))
        back = exports.load_trace(tmp_path / "t.json").snapshots
        for sl in (slice(3, 6), slice(None, None, -3), slice(5, 100), slice(4, 1), slice(-2, None)):
            got, want = back[sl], trace.snapshots[sl]
            assert type(got) is tuple and [l for l, _ in got] == [l for l, _ in want]
            assert all(np.array_equal(a.amplitudes, b.amplitudes)
                       for (_, a), (_, b) in zip(got, want))
        with pytest.raises(ValueError, match="norm"):  # each entry is checked as it is read
            back[1:3]

    @pytest.mark.parametrize("mangle", [
        # after three base64 strings
        lambda t: t.replace(b'",\n      "layer": 2', b'"\n      "layer": 2'),
        lambda t: t.replace(b'"layer": 3\n    }', b'"layer": 3\n    ]'),
        lambda t: t[:-3],
        lambda t: t.replace(b'"granularity"', b"'granularity'"),  # before the snapshots
        lambda t: t.replace(b'"gates"', b'"gates\x01"', 1).replace(b"\n", b"\r\n"),
    ])
    def test_syntax_error_names_its_file_position(self, tmp_path, mangle):
        exports.save_trace(tmp_path / "t.json", pi3_experiment(6, 3))
        path = tmp_path / "t.json"
        path.write_bytes(mangle(path.read_bytes()))
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(path.read_text(encoding="utf-8"))
        with pytest.raises(ValueError) as got:
            exports.load_trace(path)
        assert str(got.value) == str(want.value)


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
    def test_mutated_trace_loads_or_raises_value_error(self, data):
        config = QcaConfig(n_sites=3, rule=PI3_RULE)
        obj = json.loads(exports.json_dumps(exports.trace_to_json_obj(
            run(config, 1, initial_state(config, {2: KET_PLUS})))))
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


def _oracle_load(path: Path) -> RunTrace:
    """The reader's reference: `json` parses the whole text, then the object is checked."""
    return exports.trace_from_json_obj(json.loads(path.read_text(encoding="utf-8")))


def _outcome(load, path: Path):
    """The message of `load(path)`'s ValueError, or the trace with each snapshot read."""
    try:
        trace = load(path)
    except ValueError as exc:
        return str(exc)
    snapshots = []
    for i in range(len(trace.snapshots)):
        try:
            layer, state = trace.snapshots[i]
            snapshots.append((layer, state.amplitudes.tobytes()))
        except ValueError as exc:  # InvariantError included
            snapshots.append(str(exc))
    cfg = trace.config
    return (cfg.n_sites, cfg.b_parity, cfg.rule.name, cfg.rule.unitaries, trace.granularity,
            trace.layers, snapshots)


def _reversed_keys(node):
    if isinstance(node, dict):
        return {k: _reversed_keys(node[k]) for k in reversed(list(node))}
    if isinstance(node, list):
        return [_reversed_keys(v) for v in node]
    return node


def _layout(draw, obj) -> bytes:
    """The trace text as written, compact, re-indented, or with every key order reversed."""
    how = draw(st.sampled_from(["written", "compact", "indented", "reversed"]))
    if how == "written":
        return exports.json_dumps(obj).encode()
    if how == "compact":
        return json.dumps(obj, separators=(",", ":")).encode()
    if how == "indented":
        return json.dumps(obj, indent=draw(st.sampled_from([0, 1, 5, "\t"]))).encode()
    return json.dumps(_reversed_keys(obj), indent=1).encode()


def _alter_bytes(draw, data: bytes) -> bytes:
    """One change to the text: inside a base64 string, to its keys, or to the whole file."""
    strings = [m.span(1) for m in re.finditer(rb'"amplitudes_b64":\s*"([^"]*)"', data)]
    how = draw(st.sampled_from(["escape", "bad escape", "control", "non-ASCII", "truncate",
                                "two snapshots keys", "escaped key", "BOM", "CRLF",
                                "replace byte", "insert byte", "delete byte", "trailing bytes"]))
    if how in ("replace byte", "insert byte", "delete byte") and data:
        # anywhere, or around a base64 string, where every byte is the writer's layout
        lo, hi = draw(st.sampled_from([(0, len(data))] + [(a - 40, b + 30) for a, b in strings]))
        i = draw(st.integers(max(lo, 0), min(hi, len(data)) - 1))
        byte = bytes([draw(st.one_of(st.sampled_from(b' \n"A/0,:]}'), st.integers(0, 255)))])
        new = {"replace byte": byte, "insert byte": byte + data[i:i + 1], "delete byte": b""}[how]
        return data[:i] + new + data[i + 1:]
    if how == "trailing bytes":  # whitespace, which json skips, or extra data
        return data + draw(st.sampled_from([b" ", b"\n", b"\r\n", b"\t \n", b"0", b"{}"]))
    if how in ("escape", "bad escape", "control", "non-ASCII") and strings:
        start, end = draw(st.sampled_from(strings))
        if start == end:
            return data
        i = draw(st.integers(start, end - 1))
        char = data[i:i + 1]
        new = {"escape": b"\\/" if char == b"/" else b"\\u%04x" % data[i],
               "bad escape": draw(st.sampled_from([b"\\q", b"\\u00", b"\\"])),
               "control": bytes([draw(st.integers(0, 31))]),
               "non-ASCII": draw(st.sampled_from([b"\xc3\xa9", b"\xe9", b"\xf0\x9f\x98\x80"])),
               }[how]
        return data[:i] + new + data[i + 1:]
    if how == "truncate":
        return data[:draw(st.integers(0, len(data)))]
    if how == "two snapshots keys":
        i = data.rfind(b"}")
        snaps = draw(st.sampled_from([[], [{"layer": 0, "amplitudes_b64": "A" * 172}]]))
        return data[:i] + b',"snapshots":' + json.dumps(snaps).encode() + data[i:]
    if how == "escaped key":
        return data.replace(b'"amplitudes_b64"', b'"amplitudes\\u005fb64"', draw(st.integers(1, 3)))
    if how == "BOM":
        return b"\xef\xbb\xbf" + data
    return data.replace(b"\n", b"\r\n")


class TestReaderEquivalence:
    """`load_trace` gives what `json.loads` of the whole text and `trace_from_json_obj` give."""

    @settings(deadline=None)
    @given(st.data())
    def test_same_trace_or_same_error(self, tmp_path_factory, data):
        config = QcaConfig(n_sites=3, rule=PI3_RULE)
        obj = json.loads(exports.json_dumps(exports.trace_to_json_obj(
            run(config, 1, initial_state(config, {2: KET_PLUS})))))
        text = obj["snapshots"][0]["amplitudes_b64"]
        for _ in range(data.draw(st.integers(0, 1), label="base64 mutations")):
            _alter_b64(data.draw, obj)
        for _ in range(data.draw(st.integers(0, 1), label="field mutations")):
            _alter_field(data.draw, obj)
        if data.draw(st.booleans(), label="base64 key outside the snapshots"):
            obj[data.draw(st.sampled_from(["labels", "granularity", "extra"]))] = {
                "amplitudes_b64": text}
        file = _layout(data.draw, obj)
        for _ in range(data.draw(st.integers(0, 2), label="text changes")):
            file = _alter_bytes(data.draw, file)
        path = tmp_path_factory.mktemp("trace") / "t.json"
        path.write_bytes(file)
        scan_bytes = data.draw(st.sampled_from([1, 2, 3, 7, 64, tracereader._SCAN_BYTES]))
        with mock.patch.object(tracereader, "_SCAN_BYTES", scan_bytes):  # pieces end anywhere
            got = _outcome(exports.load_trace, path)
        assert got == _outcome(_oracle_load, path)

    @pytest.mark.parametrize("old, new, loads", [
        (b"A", b"\\u0041", True),
        (b"/", b"\\/", True),
        (b"A", b"\xc3\xa9", True),  # loads; its read fails, as the oracle's does
        (b"A", b"\x01", False),
        (b"A", b"\\q", False),
        (b"A", b"\xe9", False),
    ], ids=["u-escape", "solidus", "non-ASCII", "control", "bad escape", "not UTF-8"])
    def test_unread_snapshot_string_checked_at_load(self, tmp_path, old, new, loads):
        path = tmp_path / "t.json"
        exports.save_trace(path, pi3_experiment(6, 3))
        text = path.read_bytes()
        at = text.rindex(b'"amplitudes_b64"')  # the last snapshot, which no command reads here
        at = text.index(old, text.index(b'"', at + 17) + 1)
        path.write_bytes(text[:at] + new + text[at + 1:])
        got = _outcome(exports.load_trace, path)
        assert got == _outcome(_oracle_load, path)
        assert isinstance(got, tuple) == loads

    @pytest.mark.parametrize("make", [
        lambda: pi3_experiment(8, 3),
        lambda: _without_snapshots(pi3_experiment(8, 3)),
        lambda: propagate_experiment(6, KET_PLUS)[0],
        lambda: ghz_experiment(10)[0],
    ], ids=["pi3", "pi3-no-snapshots", "propagate", "ghz10"])
    def test_resave_is_byte_identical(self, tmp_path, make):
        exports.save_trace(tmp_path / "t.json", make())
        exports.save_trace(tmp_path / "u.json", exports.load_trace(tmp_path / "t.json"))
        assert (tmp_path / "u.json").read_bytes() == (tmp_path / "t.json").read_bytes()


class TestTraceFile:
    """What a loaded trace reads: the loaded bytes, through an open file that it closes."""

    def test_peak_memory_follows_the_snapshot_read(self, tmp_path):
        path = tmp_path / "t.json"
        exports.save_trace(path, pi3_experiment(12, 6))
        b64_bytes = 4 * -(-(16 << 12) // 3)
        tracemalloc.start()
        try:
            trace = exports.load_trace(path)
            load_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            trace.snapshots[24]
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 25 * b64_bytes
        assert load_peak < 3 * b64_bytes and read_peak < 4 * b64_bytes

    def test_replaced_file_reads_the_loaded_bytes(self, tmp_path):
        path = tmp_path / "t.json"
        trace = pi3_experiment(6, 3)
        exports.save_trace(path, trace)
        back = exports.load_trace(path)
        exports.save_trace(tmp_path / "other.json", pi3_experiment(6, 2))
        os.replace(tmp_path / "other.json", path)
        assert np.array_equal(back.snapshots[5][1].amplitudes, trace.snapshots[5][1].amplitudes)

    def test_truncated_file_raises_value_error(self, tmp_path):
        path = tmp_path / "t.json"
        exports.save_trace(path, pi3_experiment(6, 3))
        back = exports.load_trace(path)
        os.truncate(path, path.stat().st_size // 2)
        back.snapshots[0]
        with pytest.raises(ValueError, match="shorter than when it was loaded"):
            back.snapshots[6]

    def test_pipe(self, tmp_path):
        path = tmp_path / "t.json"
        exports.save_trace(path, pi3_experiment(6, 3))
        read, write = os.pipe()
        writer = threading.Thread(target=lambda: (os.write(write, path.read_bytes()),
                                                  os.close(write)))
        writer.start()
        try:
            got = _outcome(exports.load_trace, Path(f"/dev/fd/{read}"))
        finally:
            writer.join()
            os.close(read)
        assert got == _outcome(exports.load_trace, path)

    def test_file_closed_with_its_snapshots(self, tmp_path):
        path = tmp_path / "t.json"
        exports.save_trace(path, pi3_experiment(6, 3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for make in (lambda: pi3_experiment(6, 3), lambda: run(QcaConfig(6, PI3_RULE), 1,
                                                                   snapshots=False)):
                exports.save_trace(path, make())
                trace = exports.load_trace(path)
                del trace
                gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


#: Every kind of trace that `qca` writes: `run` with either granularity,
#: with and without snapshots, and the two experiments with a phase layer.
_WRITTEN_TRACES = st.one_of(
    st.builds(lambda n, steps, parity, record, snapshots: run(
        QcaConfig(n_sites=n, rule=PI3_RULE, b_parity=parity), steps, record=record,
        snapshots=snapshots),
        st.integers(2, 12), st.integers(0, 4), st.sampled_from(["odd", "even"]),
        st.sampled_from(["per_species_layer", "per_global_step"]), st.booleans()),
    st.builds(lambda n: propagate_experiment(n, KET_PLUS)[0],
              st.integers(1, 6).map(lambda k: 2 * k)),
    st.builds(lambda n: ghz_experiment(n)[0], st.integers(2, 6).map(lambda k: 2 * k)),
)


class TestWrittenTracesLoad:
    @settings(deadline=None)
    @given(_WRITTEN_TRACES)
    def test_loads_with_the_written_layers(self, trace):
        back = exports.trace_from_json_obj(
            json.loads(exports.json_dumps(exports.trace_to_json_obj(trace))))
        assert back.layers == trace.layers
        assert back.granularity == trace.granularity
        assert [l for l, _ in back.snapshots] == [l for l, _ in trace.snapshots]

    @settings(deadline=None)
    @given(_WRITTEN_TRACES)
    def test_written_file_keeps_its_snapshots_in_the_file(self, tmp_path_factory, trace):
        """The reader's memory contract, per file: no written snapshot is read at load."""
        path = tmp_path_factory.mktemp("trace") / "t.json"
        exports.save_trace(path, trace)
        back = exports.load_trace(path)
        if trace.snapshots:
            assert not any(isinstance(t, str) for t in back.snapshots._texts)
        exports.save_trace(path.with_name("u.json"), back)
        assert path.with_name("u.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("new, cut", [(b"", 1), (b"7", 1), (b"x", 1), (b" ", 0), (b"0", 0)],
                             ids=["delete", "digit", "letter", "insert space", "insert digit"])
    def test_each_layout_byte_is_checked(self, tmp_path, new, cut):
        """One byte of the snapshots' layout changed: the file loads as `json` loads it."""
        exports.save_trace(tmp_path / "t.json", pi3_experiment(2, 1, 1))
        text, path = (tmp_path / "t.json").read_bytes(), tmp_path / "u.json"
        b64 = {i for m in re.finditer(rb'"amplitudes_b64": "([^"]*)"', text)
               for i in range(*m.span(1))}
        for i in range(text.index(b'"snapshots"') - 4, len(text) + 1):
            if i not in b64:
                path.write_bytes(text[:i] + new + text[i + cut:])
                assert _outcome(exports.load_trace, path) == _outcome(_oracle_load, path), i

    def test_other_layout_loads_through_json(self, tmp_path):
        exports.save_trace(tmp_path / "t.json", pi3_experiment(6, 3))
        text = (tmp_path / "t.json").read_bytes()
        (tmp_path / "u.json").write_bytes(text.replace(b'"layer": 3', b'"layer":3'))
        back = exports.load_trace(tmp_path / "u.json")
        assert all(type(t) is str for t in back.snapshots._texts)
        assert _outcome(exports.load_trace, tmp_path / "u.json") == \
            _outcome(exports.load_trace, tmp_path / "t.json")


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
