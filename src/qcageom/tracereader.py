"""The trace reader: `qcageom-trace-v2` files back into `RunTrace`s.

Reading a trace checks the format, the config, its rule matrices and the
labels.  The layers follow from the config: `qca`'s schedule builders
make them, `(B A)* [B] [phase]`, from the layer count, whether the last
is a phase layer, and its target, and each layer read must be exactly
the JSON that the writer makes of its record.  A "snapshots" key must
hold snapshots where `qca` records them, each with `amplitudes_b64` a
string of exactly the base64 length of its amplitudes.  A snapshot's
amplitudes are decoded only when the snapshot is read, and each read
decodes it again: the base64 itself, finiteness and the norm are checked
then.  So `topology --trace` reads no amplitudes, and `distance-matrix`
reads one snapshot.

`load_trace` reads a file in one of two ways.  A file laid out as
`exports.save_trace` writes it is checked against that layout: its head,
everything before the snapshots, is parsed with `json`, and that fixes
every later byte but the base64 texts, which must hold only base64
bytes.  Those texts stay in the open file as spans, so memory follows
the snapshots read, not the file.  Any other file is parsed whole by
`json`, so a valid trace laid out otherwise loads the same, and every
error, with its position, is `json`'s.

Only the snapshot decoding loads numpy, so a trace is loaded, and its
gate records read, without it.  `exports.load_trace` and
`exports.trace_from_json_obj` import this module when called.
"""
from __future__ import annotations

import base64
import json
import os
import shutil
import stat
import tempfile
import weakref
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from .exports import _SNAPSHOTS_OPEN, TRACE_FORMAT, _layer_json, _snapshot_frame
from .qca import (IDENTITY_2, MAX_QUBITS, Matrix2, QcaConfig, RunTrace, UpdateRule,
                  _layer_records, _phase_layer, _snapshot_layers, _species_layers)

if TYPE_CHECKING:
    from .statealg import StateVector


def _matrix_from_pairs(pairs: Sequence[Sequence[float]]) -> Matrix2:
    """A 2x2 matrix from its four `[re, im]` pairs, each part a JSON number."""
    if len(pairs) != 4:
        raise ValueError(f"malformed trace: a rule matrix has {len(pairs)} entries, not 4")
    flat = []
    for re, im in pairs:
        for part in (re, im):
            if type(part) not in (int, float):  # JSON true is not a number here
                raise ValueError(f"malformed trace: rule entry {part!r} is not a number")
        try:
            flat.append(complex(re, im))
        except OverflowError:
            raise ValueError("malformed trace: a rule entry is an integer beyond the "
                             "float range") from None
    return ((flat[0], flat[1]), (flat[2], flat[3]))


def _snapshot_from_b64(text: str | bytes, config: QcaConfig) -> StateVector:
    """A snapshot's register state."""
    import numpy as np

    from .statealg import StateVector

    amps = np.frombuffer(base64.b64decode(text), dtype="<c16")  # StateVector copies it
    return StateVector(amps, config.register_sites)


class _Span:
    """An `amplitudes_b64` string left in the trace file: its byte offset and length."""

    __slots__ = ("offset", "size")

    def __init__(self, offset: int, size: int):
        self.offset, self.size = offset, size


class _TraceFile:
    """An open trace file, from which the spans of its snapshots are read.

    The file stays open until its snapshots are gone, so a file replaced
    after the load still reads the loaded bytes.  A stream that cannot be
    read at an offset, such as a pipe, is copied to a temporary file first.
    """

    def __init__(self, path):
        self.name = str(path)
        fh = open(path, "rb", buffering=0)
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            with fh:
                copy = tempfile.TemporaryFile()
                try:
                    shutil.copyfileobj(fh, copy)
                    copy.seek(0)
                except BaseException:
                    copy.close()
                    raise
            fh = copy
        self.fh = fh

    def read(self, span: _Span) -> bytes:
        data = os.pread(self.fh.fileno(), span.size, span.offset)
        if len(data) != span.size:
            raise ValueError(f"cannot read trace {self.name!r}: the file is shorter "
                             "than when it was loaded")
        return data


class _EncodedSnapshots(Sequence):
    """The snapshots of a loaded trace, each decoded from its base64 text when read.

    Each text is a string, or a `_Span` read from the trace file.  Nothing
    is cached: every read decodes and checks the entry again.
    """

    def __init__(self, entries: list[tuple[int, str | _Span]], config: QcaConfig,
                 source: _TraceFile | None):
        self.layers = tuple(layer for layer, _ in entries)
        self._texts = tuple(text for _, text in entries)
        self._config = config
        self._source = source
        if source is not None:
            weakref.finalize(self, source.fh.close)

    def __len__(self) -> int:
        return len(self._texts)

    def __iter__(self):
        # not Sequence's own, which would end quietly at an IndexError from a decode
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(len(self))[i])
        text = self._texts[i]
        if isinstance(text, _Span):
            text = self._source.read(text)
        return self.layers[i], _snapshot_from_b64(text, self._config)


def trace_from_json_obj(obj: dict) -> RunTrace:
    """Rebuild a trace; any malformed input raises ValueError."""
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt != TRACE_FORMAT:
        found = f"format {fmt!r:.40}" if isinstance(fmt, str) else "no format string"
        raise ValueError(f"not a qcageom trace file: {found}, expected {TRACE_FORMAT!r}")
    try:
        return _trace_from_fields(obj)
    except KeyError as exc:
        raise ValueError(f"malformed trace: missing key {exc}") from None
    except (TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"malformed trace: {exc}") from None


def _int(value, what: str, lo: int, hi: int) -> int:
    if type(value) is not int:  # JSON true and 1.0 are not indices
        raise ValueError(f"malformed trace: {what} {value!r} is not an integer")
    if not lo <= value <= hi:
        raise ValueError(f"malformed trace: {what} {value} outside {lo}..{hi}")
    return value


def _b64_len(n_sites: int) -> int:
    """The length of a snapshot's base64 text: 2^N complex128."""
    return 4 * -(-(16 << n_sites) // 3)


def _same_json(found, want) -> bool:
    """Whether parsed JSON `found` is `want`, with `true` and `1.0` not `1` as `==` has them;
    `==` goes first as it stops at `want`'s shallow depth, so no deep junk is dumped."""
    return found == want and json.dumps(found, sort_keys=True) == json.dumps(want, sort_keys=True)


def _trace_from_fields(obj: dict) -> RunTrace:
    rcfg = obj["config"]
    unitaries = [_matrix_from_pairs(p) for p in rcfg["rule"]["unitaries"]]
    rule = UpdateRule(*unitaries, name=rcfg["rule"]["name"])
    n = _int(rcfg["n_sites"], "n_sites", 2, MAX_QUBITS)
    config = QcaConfig(n_sites=n, rule=rule, b_parity=rcfg["b_parity"])
    labels = list(config.register_sites)
    if obj["labels"] != labels:
        raise ValueError(f"malformed trace: labels {obj['labels']!r}, expected {labels}")
    species = [l["species"] for l in obj["layers"]]
    n_rule = len(species) - (species[-1:] == ["phase"])
    schedule = _species_layers(config, ("BA" * n_rule)[:n_rule])  # (B A)* [B]
    if n_rule < len(species):
        target = _int(obj["layers"][-1]["gates"][0]["target"], "phase target", 1, n)
        schedule.append(_phase_layer(target, IDENTITY_2))  # a record holds no rule
    layers = _layer_records(schedule)
    for index, (found, want) in enumerate(zip(obj["layers"], layers), start=1):
        _int(found["index"], "layer index", index, index)  # named here; the compare checks it too
        if not _same_json(found, _layer_json(want)):
            raise ValueError(f"malformed trace: layer {index} is not the {want.species} layer "
                             "that qca writes for this config")
    granularity, allowed = obj["granularity"], ("per_species_layer", "per_global_step")
    if granularity not in allowed:
        raise ValueError(f"malformed trace: granularity {granularity!r} is not one of {allowed}")
    snaps = obj.get("snapshots", [])
    at, kept = [s["layer"] for s in snaps], _snapshot_layers(layers, granularity)
    if "snapshots" in obj and not _same_json(at, kept):  # written only when there are some
        raise ValueError(f"malformed trace: a {granularity} trace has its snapshots "
                         f'at layers {kept}, or no "snapshots" key')
    b64_len = _b64_len(n)
    entries = [(layer, s["amplitudes_b64"]) for layer, s in zip(kept, snaps)]
    for layer, text in entries:
        if not isinstance(text, str) or len(text) != b64_len:
            raise ValueError(f"malformed trace: amplitudes of the snapshot at layer {layer} "
                             f"are not {b64_len} characters of base64")
    snapshots = _EncodedSnapshots(entries, config, None) if entries else ()
    return RunTrace(config=config, granularity=granularity, layers=layers, snapshots=snapshots)


#: The base64 alphabet.  A base64 text of only these bytes holds no
#: quote, escape, control or non-ASCII byte: its characters are its bytes.
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="
_SCAN_BYTES = 1 << 16


def _written_trace(source: _TraceFile) -> RunTrace | None:
    """The trace of a file laid out as `save_trace` writes it, its base64 left in the file.

    The head, everything before the first `exports._SNAPSHOTS_OPEN`, is
    closed and parsed and checked as a trace.  That fixes N and the
    snapshot layers, and so every byte after it but the base64 texts,
    which must hold only base64 bytes.  So the file's JSON value is the
    head's with those snapshots, as `json` parses it (a "snapshots" key
    in the head is overridden, as `json` keeps the last).  None if the
    file is laid out otherwise.
    """
    fd, head, start = source.fh.fileno(), bytearray(), 0
    while (at := head.find(_SNAPSHOTS_OPEN, start)) < 0:
        size, start = len(head), max(len(head) - len(_SNAPSHOTS_OPEN) + 1, 0)
        head += os.pread(fd, _SCAN_BYTES, size)
        if len(head) == size:
            return None
    del head[at:]
    try:
        text = head.decode("utf-8") + "\n}\n"
        del head  # not held while `json` parses
        trace = trace_from_json_obj(json.loads(text))
    except (ValueError, RecursionError):
        return None
    layers = _snapshot_layers(trace.layers, trace.granularity)
    frames = [_snapshot_frame(k, len(layers), layer) for k, layer in enumerate(layers)]
    b64_len = _b64_len(trace.config.n_sites)
    if os.fstat(fd).st_size != at + sum(len(a) + b64_len + len(b) for a, b in frames):
        return None
    entries = []
    for layer, (lead, tail) in zip(layers, frames):
        if os.pread(fd, len(lead), at) != lead:
            return None
        at += len(lead)
        for off in range(at, at + b64_len, _SCAN_BYTES):
            if os.pread(fd, min(_SCAN_BYTES, at + b64_len - off), off).translate(None, _BASE64):
                return None
        entries.append((layer, _Span(at, b64_len)))
        at += b64_len
        if os.pread(fd, len(tail), at) != tail:
            return None
        at += len(tail)
    return trace.replace(snapshots=_EncodedSnapshots(entries, trace.config, source))


def load_trace(path: Path) -> RunTrace:
    """Read a trace file; an unreadable or malformed file raises ValueError.

    A file laid out as `save_trace` writes it leaves its snapshots' base64
    in the file, to be read when a snapshot is read, so memory follows the
    snapshots read, not the file.  Any other file is parsed whole by
    `json`, as `read_text` decodes it, so every error is `json`'s.
    """
    try:
        source = _TraceFile(path)
    except OSError as exc:
        raise ValueError(f"cannot read trace {str(path)!r}: {exc.strerror}") from None
    try:
        trace = _written_trace(source)
    except BaseException:
        source.fh.close()
        raise
    if trace is not None:
        return trace  # its snapshots close the file when they are gone
    with source.fh:
        text = source.fh.read().decode("utf-8")
    try:
        obj = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except RecursionError:
        raise ValueError("malformed trace: JSON nested too deeply to parse") from None
    return trace_from_json_obj(obj)
