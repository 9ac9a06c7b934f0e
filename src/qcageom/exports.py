"""File formats: CSV at 12 significant digits, JSON, PGM heatmaps, traces.

Every writer is deterministic (no timestamps, sorted keys, fixed float
formatting), so identical inputs produce byte-identical files.  The
string "nan" in CSV and null in JSON mark pairs that were not computed;
zero is a meaningful distance and never doubles as a marker.  Traces
are written as `qcageom-trace-v2` (register-only snapshots).

Traces are read by `tracereader`.  Its two entry points, `load_trace` and
`trace_from_json_obj`, are also defined here, and import it when called,
so a command that reads no trace does not load the reader.

Everything but the snapshot encoding and `write_pgm` runs without numpy,
so a trace without snapshots is written without loading it.
"""
from __future__ import annotations

import base64
import json
import math
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from .qca import LayerRecord, Matrix2, RunTrace

if TYPE_CHECKING:
    import numpy as np

    from .infogeo import DistanceField, SweepCurve
    from .statealg import StateVector

TRACE_FORMAT = "qcageom-trace-v2"


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
    """The field with each computed value at the CSV's 12 digits, and null where NaN."""
    values = [[None if math.isnan(v) else float(fmt12(v)) for v in row] for row in field.values]
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


def _amplitudes_b64(state: StateVector) -> bytes:
    """Base64 of the little-endian amplitudes, encoded from the array's own buffer."""
    import numpy as np

    return base64.b64encode(np.ascontiguousarray(state.amplitudes, dtype="<c16"))


def _layer_json(layer: LayerRecord) -> dict:
    """A layer as a trace holds it: written so, and loaded only if it is so."""
    return {"index": layer.index, "species": layer.species,
            "gates": [{"target": g.target, "controls": list(g.controls), "kind": g.kind}
                      for g in layer.gates]}


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
        "layers": [_layer_json(layer) for layer in trace.layers],
    }
    if trace.snapshots:
        obj["snapshots"] = [
            {"layer": idx, "amplitudes_b64": _amplitudes_b64(state).decode("ascii")}
            for idx, state in trace.snapshots
        ]
    return obj


# Functions of this module, not names that a module `__getattr__` finds:
# perfbench's tracer wraps only the functions a module binds, and times
# `exports.load_trace`.
def load_trace(path: Path) -> RunTrace:
    """Read a trace file; an unreadable or malformed file raises ValueError.

    See `tracereader.load_trace`.
    """
    from . import tracereader

    return tracereader.load_trace(path)


def trace_from_json_obj(obj: dict) -> RunTrace:
    """Rebuild a trace from its JSON value; any malformed input raises ValueError."""
    from . import tracereader

    return tracereader.trace_from_json_obj(obj)


#: What `save_trace` writes after the rest of the object, whose closing
#: "\n}\n" it leaves off: "snapshots" sorts after every other key.
_SNAPSHOTS_OPEN = b',\n  "snapshots": ['


def _snapshot_frame(k: int, n: int, layer: int) -> tuple[bytes, bytes]:
    """The bytes `save_trace` writes before and after the base64 text of snapshot k of n."""
    lead = (_SNAPSHOTS_OPEN + b"\n" if k == 0 else b",\n") + b'    {\n      "amplitudes_b64": "'
    tail = b'",\n      "layer": %d\n    }' % layer + (b"\n  ]\n}\n" if k == n - 1 else b"")
    return lead, tail


def save_trace(path: Path, trace: RunTrace) -> None:
    """Write `json_dumps(trace_to_json_obj(trace))` to `path`.

    The snapshots are written one at a time, each base64 string straight
    to the file, so at most one snapshot's encoding is held at once.  The
    rest of the object is dumped first, and `_snapshot_frame` lays out the
    snapshots; `tracereader` reads a file so laid out without parsing them.
    """
    head = json_dumps(trace_to_json_obj(trace.replace(snapshots=())))
    with open(path, "wb") as fh:
        if not trace.snapshots:
            fh.write(head.encode("ascii"))
            return
        fh.write(head[:-3].encode("ascii"))  # drop "\n}\n"
        n = len(trace.snapshots)
        for k, (idx, state) in enumerate(trace.snapshots):
            lead, tail = _snapshot_frame(k, n, idx)
            fh.write(lead)
            fh.write(_amplitudes_b64(state))
            fh.write(tail)
