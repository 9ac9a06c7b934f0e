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

`load_trace` is the one reader.  It scans the file once, in bounded
pieces, and parses everything but the snapshots' base64 with `json`; a
base64 string of only base64 bytes stays in the open file as a span, so
memory follows the snapshots read, not the file.  Each byte of such a
string is still checked at load, and the file's values and errors,
positions included, are those of `json.loads` on the whole text.

Only the snapshot decoding loads numpy, so a trace is loaded, and its
gate records read, without it.  `exports.load_trace` and
`exports.trace_from_json_obj` import this module when called.
"""
from __future__ import annotations

import base64
import bisect
import json
import os
import shutil
import stat
import tempfile
import weakref
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from .exports import TRACE_FORMAT, _layer_json
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

    def __len__(self) -> int:  # its characters are its bytes
        return self.size


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
    return _trace_from_obj(obj, None)


def _trace_from_obj(obj, source: _TraceFile | None) -> RunTrace:
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt != TRACE_FORMAT:
        found = f"format {fmt!r:.40}" if isinstance(fmt, str) else "no format string"
        raise ValueError(f"not a qcageom trace file: {found}, expected {TRACE_FORMAT!r}")
    try:
        return _trace_from_fields(obj, source)
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


def _same_json(found, want) -> bool:
    """Whether parsed JSON `found` is `want`, with `true` and `1.0` not `1` as `==` has them;
    `==` goes first as it stops at `want`'s shallow depth, so no deep junk is dumped."""
    return found == want and json.dumps(found, sort_keys=True) == json.dumps(want, sort_keys=True)


def _trace_from_fields(obj: dict, source: _TraceFile | None) -> RunTrace:
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
    b64_len = 4 * -(-(16 << n) // 3)  # 2^N complex128
    entries = [(layer, s["amplitudes_b64"]) for layer, s in zip(kept, snaps)]
    for layer, text in entries:
        if not isinstance(text, (str, _Span)) or len(text) != b64_len:
            raise ValueError(f"malformed trace: amplitudes of the snapshot at layer {layer} "
                             f"are not {b64_len} characters of base64")
    snapshots = _EncodedSnapshots(entries, config, source) if entries else ()
    return RunTrace(config=config, granularity=granularity, layers=layers, snapshots=snapshots)


#: The base64 alphabet.  An `amplitudes_b64` string of only these bytes
#: holds no escape, control or non-ASCII byte: its characters are its bytes.
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="
_WHITESPACE = b" \t\n\r"  # JSON's
_AMP_KEY = "amplitudes_b64"
_AMP_KEY_BYTES = _AMP_KEY.encode()
_KEY_BYTES = 6 * len(_AMP_KEY)  # the key with every character a \uXXXX escape
_SCAN_BYTES = 1 << 16


class _Skeleton:
    """The text of a trace file with some strings replaced, and the map back to the file.

    Bytes are kept until a replacement, then decoded as text mode decodes a
    file (UTF-8, universal newlines).  `file_position` maps a position in
    the text back to the file's text, outside the replacements.
    """

    def __init__(self):
        self.parts, self.chars = [], 0
        self.kept, self.kept_at = bytearray(), 0  # undecoded bytes and their offset
        self.breaks, self.shifts = [0], [0]  # from text position breaks[k], add shifts[k]

    def flush(self) -> None:
        try:
            text = self.kept.decode("utf-8")
        except UnicodeDecodeError as exc:  # the message of a whole-file decode
            at, bad = self.kept_at + exc.start, exc.object[exc.start:exc.end]
            where = (f"byte 0x{bad[0]:02x} in position {at}" if len(bad) == 1
                     else f"bytes in position {at}-{at + len(bad) - 1}")
            raise ValueError(f"'utf-8' codec can't decode {where}: {exc.reason}") from None
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        self.parts.append(text)
        self.chars += len(text)
        self.kept_at += len(self.kept)
        self.kept.clear()

    def replace(self, text: str, file_chars: int, resume_at: int) -> None:
        """Write `text` for `file_chars` characters of the file; keep bytes from `resume_at`."""
        self.flush()
        self.parts.append(text)
        self.chars += len(text)
        self.breaks.append(self.chars)
        self.shifts.append(self.shifts[-1] + file_chars - len(text))
        self.kept_at = resume_at

    def file_position(self, pos: int) -> int:
        return pos + self.shifts[bisect.bisect_right(self.breaks, pos) - 1]


def _is_amp_key(raw: bytearray) -> bool:
    """Whether the bytes of a string, escapes read, are the key of a snapshot's base64."""
    if raw == _AMP_KEY_BYTES:
        return True
    try:
        return b"\\" in raw and json.loads(b'"' + raw + b'"') == _AMP_KEY
    except ValueError:
        return False


def _skeleton(source: _TraceFile) -> tuple[_Skeleton, list[_Span]]:
    """One pass over the file, in `_SCAN_BYTES` pieces, that finds every string.

    An `amplitudes_b64` string value of only base64 bytes is cut: its index
    in the returned spans stands in its place.  Any other such string is
    kept, marked with a leading \\u0000.  Every other byte is kept as it is.
    """
    sk, spans, fd = _Skeleton(), [], source.fh.fileno()
    in_string = escape = amp_key = False
    cut_at = None  # the offset of a cut string's content, while in one
    key = None  # the bytes of a kept string, while it could be the key
    gap, off = b"", 0  # the first 2 non-whitespace bytes after the last string
    while data := source.fh.read(_SCAN_BYTES):
        i, n = 0, len(data)
        while i < n:
            if not (in_string or amp_key):
                # Before the next backslash or key text, each quote opens or
                # closes a string that is not the key: keep them in one piece.
                stop = min(j for j in (data.find(b"\\", i), data.find(_AMP_KEY_BYTES, i), n)
                           if j >= 0)
                if stop > i:
                    sk.kept += data[i:stop]
                    if data.count(b'"', i, stop) % 2:  # a string is open at `stop`
                        q = data.rfind(b'"', i, stop)
                        in_string, gap = True, b""
                        key = bytearray(data[q + 1:stop]) if stop - q - 1 <= _KEY_BYTES else None
                    i = stop
                    continue
            if not in_string:
                q = data.find(b'"', i)
                end = n if q < 0 else q
                sk.kept += data[i:end + 1]
                gap = (gap + data[i:end].translate(None, _WHITESPACE))[:2]
                i = end + 1
                if q >= 0:
                    in_string = True
                    if amp_key and gap == b":":
                        cut_at, key = off + i, None
                    else:
                        key = bytearray()
                    gap, amp_key = b"", False
            elif cut_at is not None:
                q = data.find(b'"', i)
                end = n if q < 0 else q
                if data[i:end].translate(None, _BASE64):
                    sk.replace("\\u0000", 0, cut_at)  # kept, and marked
                    sk.kept += os.pread(fd, off + i - cut_at, cut_at)
                    cut_at = None
                    continue
                i = end
                if q >= 0:
                    spans.append(_Span(cut_at, off + q - cut_at))
                    sk.replace(str(len(spans) - 1), off + q - cut_at, off + q)
                    sk.kept += b'"'
                    i, in_string, cut_at = q + 1, False, None
            elif escape:
                sk.kept += data[i:i + 1]
                if key is not None:
                    key += data[i:i + 1]
                i, escape = i + 1, False
            else:
                q = data.find(b'"', i)
                b = data.find(b"\\", i, n if q < 0 else q)
                end = b + 1 if b >= 0 else n if q < 0 else q
                sk.kept += data[i:end]
                if key is not None:
                    key = key + data[i:end] if len(key) + end - i <= _KEY_BYTES else None
                i = end
                if b >= 0:
                    escape = True
                elif q >= 0:
                    sk.kept += b'"'
                    i, in_string = q + 1, False
                    amp_key = key is not None and _is_amp_key(key)
        off += n
    sk.flush()
    return sk, spans


def _parse(source: _TraceFile):
    """The JSON value of a trace file, each snapshot's base64 a `_Span` of the file.

    Errors are those of `json.loads(path.read_text(encoding="utf-8"))`.
    """
    sk, spans = _skeleton(source)
    found = []

    def hook(pairs):
        obj = dict(pairs)
        text = obj.get(_AMP_KEY)
        if type(text) is str:  # a cut string's index, or a kept string marked
            obj[_AMP_KEY] = text[1:] if text.startswith("\0") else spans[int(text)]
            found.append(obj)
        return obj

    try:
        obj = json.loads("".join(sk.parts), object_pairs_hook=hook)
    except json.JSONDecodeError as exc:
        at, nl = sk.file_position(exc.pos), exc.doc.rfind("\n", 0, exc.pos)
        column = at - (sk.file_position(nl) if nl >= 0 else -1)
        raise ValueError(f"{exc.msg}: line {exc.lineno} column {column} (char {at})") from None
    except RecursionError:
        raise ValueError("malformed trace: JSON nested too deeply to parse") from None
    snaps = obj.get("snapshots") if type(obj) is dict else None
    entries = {id(s) for s in snaps} if type(snaps) is list else set()
    for d in found:  # a span outside the snapshots is read, as any other string
        if id(d) not in entries and type(d[_AMP_KEY]) is _Span:
            d[_AMP_KEY] = source.read(d[_AMP_KEY]).decode("ascii")
    return obj


def load_trace(path: Path) -> RunTrace:
    """Read a trace file; an unreadable or malformed file raises ValueError.

    Only the snapshots' base64 is left in the file, to be read when a
    snapshot is read, so memory follows the snapshots read, not the file.
    """
    try:
        source = _TraceFile(path)
    except OSError as exc:
        raise ValueError(f"cannot read trace {str(path)!r}: {exc.strerror}") from None
    try:
        trace = _trace_from_obj(_parse(source), source)
    except BaseException:
        source.fh.close()
        raise
    if not trace.snapshots:  # else the snapshots close it when they are gone
        source.fh.close()
    return trace
