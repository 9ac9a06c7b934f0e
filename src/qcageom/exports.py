"""File formats: CSV at 12 significant digits, JSON, PGM heatmaps, traces.

Every writer is deterministic (no timestamps, sorted keys, fixed float
formatting), so identical inputs produce byte-identical files.  The
string "nan" in CSV and null in JSON mark pairs that were not computed;
zero is a meaningful distance and never doubles as a marker.  Traces
are written as v2 (register-only snapshots) and read as v2 or as v1
(snapshots with the boundary ancillae).

Reading a trace checks every field at load: the format, the config and
its rule matrices, the labels, each layer and gate, each snapshot's layer
index, and that each snapshot's `amplitudes_b64` is a string of exactly
the base64 length of its amplitudes.  A v2 snapshot's amplitudes are
decoded only when the snapshot is read, and each read decodes it again:
the base64 itself, finiteness and the norm are checked then.  So
`topology --trace` reads no amplitudes, and `distance-matrix` reads one
snapshot.  A v1 trace is decoded whole at load, because each of its
snapshots must show its boundary ancillae in |0>.

Everything but the snapshot encoding, the snapshot decoding and
`write_pgm` runs without numpy, so a trace without snapshots is written
and read without loading it.
"""
from __future__ import annotations

import base64
import dataclasses
import json
import math
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from .qca import MAX_QUBITS, GateRecord, LayerRecord, Matrix2, QcaConfig, RunTrace, UpdateRule

if TYPE_CHECKING:
    import numpy as np

    from .infogeo import DistanceField, SweepCurve
    from .statealg import StateVector

TRACE_FORMAT, TRACE_FORMAT_V1 = "qcageom-trace-v2", "qcageom-trace-v1"
ANCILLA_TOL = 1e-10  # largest |1> population of a v1 ancilla that reads as |0>


def fmt12(v: float) -> str:
    """12 significant digits; NaN -> "nan"; negative zero normalized."""
    if math.isnan(v):
        return "nan"
    if v == 0.0:
        v = 0.0
    return f"{v:.12g}"


def json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: Path, obj) -> None:
    """Stream the bytes of `json_dumps(obj)` into `path`, never holding them whole."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def matrix_csv(col_labels: Sequence, row_labels: Iterable, values: Iterable[Iterable],
               corner: str = "label") -> str:
    """The one CSV table layout: a header row, then a label and its values per row."""
    lines = [",".join([corner, *map(str, col_labels)])]
    for lab, row in zip(row_labels, values):
        lines.append(",".join([str(lab), *(fmt12(float(v)) for v in row)]))
    return "\n".join(lines) + "\n"


def parse_matrix_csv(text: str) -> tuple[list[str], list[str], list[list[float]]]:
    """The column labels, row labels and value rows of a `matrix_csv` table."""
    lines = [ln for ln in text.splitlines() if ln]
    cols = lines[0].split(",")[1:]
    rows, data = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append(parts[0])
        data.append([float(p) for p in parts[1:]])
    return cols, rows, data


def distance_field_csv(field: DistanceField) -> str:
    return matrix_csv(field.labels, field.labels, field.values)


def distance_field_json_obj(field: DistanceField) -> dict:
    values = [[None if math.isnan(v) else float(v) for v in row] for row in field.values]
    return {"time_step": field.time_step, "labels": list(field.labels), "values": values}


def sweep_csv(curve: SweepCurve) -> str:
    return matrix_csv(["delta"], map(fmt12, curve.grid), ([v] for v in curve.values), corner="z")


def write_pgm(path: Path, matrix: Sequence[Sequence[float]]) -> dict:
    """8-bit binary PGM of a 2-D array of floats, with linear min->0, max->255 mapping.

    NaN entries render as 0.  Returns the scale record that callers
    should persist alongside the image.
    """
    import numpy as np

    m = np.asarray(matrix, dtype=float)
    finite = m[np.isfinite(m)]
    if finite.size == 0:
        lo, hi = 0.0, 0.0
    else:
        lo, hi = float(np.min(finite)), float(np.max(finite))
    if hi > lo:
        scaled = (m - lo) / (hi - lo) * 255.0
    else:
        scaled = np.zeros_like(m)
    pixels = np.where(np.isfinite(m), np.rint(scaled), 0.0).astype(np.uint8)
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())
    return {
        "min": lo,
        "max": hi,
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "mapping": "linear min->0, max->255; nan -> 0",
    }


def _complex_pairs(m: Matrix2) -> list[list[float]]:
    return [[z.real, z.imag] for row in m for z in row]


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


def _amplitudes_b64(state: StateVector) -> bytes:
    """Base64 of the little-endian amplitudes, encoded from the array's own buffer."""
    import numpy as np

    return base64.b64encode(np.ascontiguousarray(state.amplitudes, dtype="<c16"))


def _snapshot_from_b64(text: str, config: QcaConfig, v1: bool, layer: int) -> StateVector:
    """A snapshot's register state; the ancillae of a v1 snapshot must be in |0>."""
    import numpy as np

    from .statealg import StateVector, norm2

    amps = np.frombuffer(base64.b64decode(text), dtype="<c16")  # StateVector copies it
    if v1:
        psi = amps.reshape(2, -1, 2)
        pop = max(norm2(off) for off in (psi[1], psi[:, :, 1]))
        if not pop <= ANCILLA_TOL:  # NaN fails too
            raise ValueError(f"boundary qubit at layer {layer} has |1> population {pop:.3g}")
        amps = psi[0, :, 0]
    return StateVector(amps, config.register_sites)


class _EncodedSnapshots(Sequence):
    """The snapshots of a loaded trace, each decoded from its base64 text when read.

    Nothing is cached: every read decodes and checks the entry again.
    """

    def __init__(self, entries: list[tuple[int, str]], config: QcaConfig, v1: bool):
        self.layers = tuple(layer for layer, _ in entries)
        self._texts = tuple(text for _, text in entries)
        self._config, self._v1 = config, v1

    def __len__(self) -> int:
        return len(self._texts)

    def __iter__(self):
        # not Sequence's own, which would end quietly at an IndexError from a decode
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        layer = self.layers[i]
        return layer, _snapshot_from_b64(self._texts[i], self._config, self._v1, layer)


def trace_to_json_obj(trace: RunTrace) -> dict:
    """The trace as JSON; "snapshots" is there exactly when the trace holds some."""
    cfg = trace.config
    obj = {
        "format": TRACE_FORMAT,
        "config": {
            "n_sites": cfg.n_sites,
            "b_parity": cfg.b_parity,
            "rule": {
                "name": cfg.rule.name,
                "unitaries": [_complex_pairs(u) for u in cfg.rule.unitaries],
            },
        },
        "granularity": trace.granularity,
        "labels": list(cfg.register_sites),
        "layers": [
            {
                "index": layer.index,
                "species": layer.species,
                "gates": [
                    {"target": g.target, "controls": list(g.controls), "kind": g.kind}
                    for g in layer.gates
                ],
            }
            for layer in trace.layers
        ],
    }
    if trace.snapshots:
        obj["snapshots"] = [
            {"layer": idx, "amplitudes_b64": _amplitudes_b64(state).decode("ascii")}
            for idx, state in trace.snapshots
        ]
    return obj


def trace_from_json_obj(obj: dict) -> RunTrace:
    """Rebuild a trace; any malformed input raises ValueError."""
    if not isinstance(obj, dict) or obj.get("format") not in (TRACE_FORMAT, TRACE_FORMAT_V1):
        raise ValueError("not a qcageom trace file")
    try:
        return _trace_from_fields(obj, v1=obj["format"] == TRACE_FORMAT_V1)
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


def _choice(value, what: str, allowed: tuple[str, ...]) -> str:
    if value not in allowed:
        raise ValueError(f"malformed trace: {what} {value!r} is not one of {allowed}")
    return value


def _gate_from_fields(g: dict, n_sites: int) -> GateRecord:
    target = _int(g["target"], "gate target", 1, n_sites)
    controls = tuple(_int(c, "gate control", 1, n_sites) for c in g["controls"])
    if not set(controls) <= {target - 1, target + 1}:
        raise ValueError(f"malformed trace: controls {list(controls)} of site {target} "
                         "are not its neighbours")
    return GateRecord(target=target, controls=controls,
                      kind=_choice(g["kind"], "gate kind", ("rule", "phase")))


def _trace_from_fields(obj: dict, v1: bool) -> RunTrace:
    rcfg = obj["config"]
    unitaries = [_matrix_from_pairs(p) for p in rcfg["rule"]["unitaries"]]
    rule = UpdateRule(*unitaries, name=rcfg["rule"]["name"])
    n = _int(rcfg["n_sites"], "n_sites", 2, MAX_QUBITS)
    config = QcaConfig(n_sites=n, rule=rule, b_parity=rcfg["b_parity"])
    labels = list(config.labels if v1 else config.register_sites)
    if obj["labels"] != labels:
        raise ValueError(f"malformed trace: labels {obj['labels']!r}, expected {labels}")
    layers = tuple(
        LayerRecord(
            index=_int(l["index"], "layer index", i, i),
            species=_choice(l["species"], "species", ("A", "B", "phase")),
            gates=tuple(_gate_from_fields(g, n) for g in l["gates"]),
        )
        for i, l in enumerate(obj["layers"], start=1)
    )
    b64_len = 4 * -(-(16 << (n + 2 * v1)) // 3)  # 2^N complex128, with the v1 ancillae
    entries: list[tuple[int, str]] = []
    for s in obj.get("snapshots", []):
        first = entries[-1][0] + 1 if entries else 0
        layer = _int(s["layer"], "snapshot layer", first, len(layers))
        text = s["amplitudes_b64"]
        if not isinstance(text, str) or len(text) != b64_len:
            raise ValueError(f"malformed trace: amplitudes of the snapshot at layer {layer} "
                             f"are not {b64_len} characters of base64")
        entries.append((layer, text))
    granularity = _choice(obj["granularity"], "granularity",
                          ("per_species_layer", "per_global_step"))
    snapshots = _EncodedSnapshots(entries, config, v1) if entries else ()
    return RunTrace(config=config, granularity=granularity, layers=layers,
                    snapshots=tuple(snapshots) if v1 else snapshots)


def save_trace(path: Path, trace: RunTrace) -> None:
    """Write `json_dumps(trace_to_json_obj(trace))` to `path`.

    The snapshots are written one at a time, each base64 string straight
    to the file, so at most one snapshot's encoding is held at once.
    "snapshots" sorts after every other key, so the rest of the object is
    dumped first, with its closing brace left off.
    """
    head = json_dumps(trace_to_json_obj(dataclasses.replace(trace, snapshots=())))
    with open(path, "wb") as fh:
        if not trace.snapshots:
            fh.write(head.encode("ascii"))
            return
        fh.write(head[:-3].encode("ascii"))  # drop "\n}\n"
        fh.write(b',\n  "snapshots": [')
        sep = b"\n"
        for idx, state in trace.snapshots:
            fh.write(sep + b'    {\n      "amplitudes_b64": "')
            fh.write(_amplitudes_b64(state))
            fh.write(b'",\n      "layer": %d\n    }' % idx)
            sep = b",\n"
        fh.write(b"\n  ]\n}\n")


def load_trace(path: Path) -> RunTrace:
    """Read a trace file; an unreadable or malformed file raises ValueError."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read trace {str(path)!r}: {exc.strerror}") from None
    return trace_from_json_obj(obj)
