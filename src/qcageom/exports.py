"""File formats: CSV at 12 significant digits, JSON, PGM heatmaps, traces.

Every writer is deterministic (no timestamps, sorted keys, fixed float
formatting), so identical inputs produce byte-identical files.  The
string "nan" in CSV and null in JSON mark pairs that were not computed;
zero is a meaningful distance and never doubles as a marker.  Traces
are written as v2 (register-only snapshots) and read as v2 or as v1
(snapshots with the boundary ancillae).
"""
from __future__ import annotations

import base64
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .infogeo import DistanceField, SweepCurve
from .qca import GateRecord, LayerRecord, QcaConfig, RunTrace, StateVector, UpdateRule
from .statealg import MAX_QUBITS

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


def matrix_csv(col_labels: Sequence, row_labels: Sequence, values: np.ndarray,
               corner: str = "label") -> str:
    lines = [",".join([corner, *map(str, col_labels)])]
    for lab, row in zip(row_labels, values):
        lines.append(",".join([str(lab), *(fmt12(float(v)) for v in row)]))
    return "\n".join(lines) + "\n"


def parse_matrix_csv(text: str) -> tuple[list[str], list[str], np.ndarray]:
    lines = [ln for ln in text.splitlines() if ln]
    cols = lines[0].split(",")[1:]
    rows, data = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append(parts[0])
        data.append([float(p) for p in parts[1:]])
    return cols, rows, np.array(data)


def distance_field_csv(field: DistanceField) -> str:
    return matrix_csv(field.labels, field.labels, field.values)


def distance_field_json_obj(field: DistanceField) -> dict:
    values = [[None if math.isnan(v) else float(v) for v in row] for row in field.values]
    return {"time_step": field.time_step, "labels": list(field.labels), "values": values}


def sweep_csv(curve: SweepCurve) -> str:
    lines = ["z,delta"]
    for z, v in zip(curve.grid, curve.values):
        lines.append(f"{fmt12(z)},{fmt12(v)}")
    return "\n".join(lines) + "\n"


def series_csv(col_labels: Sequence, rows: Iterable[tuple[int, Sequence[float]]],
               corner: str = "step") -> str:
    """Time series of per-site values, one row per recorded step."""
    lines = [",".join([corner, *map(str, col_labels)])]
    for step, vals in rows:
        lines.append(",".join([str(step), *(fmt12(float(v)) for v in vals)]))
    return "\n".join(lines) + "\n"


def write_pgm(path: Path, matrix: np.ndarray) -> dict:
    """8-bit binary PGM with linear min->0, max->255 mapping.

    NaN entries render as 0.  Returns the scale record that callers
    should persist alongside the image.
    """
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


def _complex_pairs(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def _matrix_from_pairs(pairs: Sequence[Sequence[float]], dim: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    return flat.reshape(dim, dim)


def _amplitudes_b64(state: StateVector) -> str:
    return base64.b64encode(state.amplitudes.astype("<c16").tobytes()).decode("ascii")


def _snapshot_from_b64(text: str, config: QcaConfig, v1: bool, layer: int) -> StateVector:
    """A snapshot's register state; the ancillae of a v1 snapshot must be in |0>."""
    amps = np.frombuffer(base64.b64decode(text), dtype="<c16").astype(complex)
    if v1:
        psi = amps.reshape(2, -1, 2)
        pop = max(np.vdot(off, off).real for off in (psi[1], psi[:, :, 1]))
        if not pop <= ANCILLA_TOL:  # NaN fails too
            raise ValueError(f"boundary qubit at layer {layer} has |1> population {pop:.3g}")
        amps = psi[0, :, 0]
    return StateVector(amps, config.register_sites)


def trace_to_json_obj(trace: RunTrace, include_snapshots: bool = True) -> dict:
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
    if include_snapshots:
        obj["snapshots"] = [
            {"layer": idx, "amplitudes_b64": _amplitudes_b64(state)}
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
    unitaries = [_matrix_from_pairs(p, 2) for p in rcfg["rule"]["unitaries"]]
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
    snapshots: list[tuple[int, StateVector]] = []
    for s in obj.get("snapshots", []):
        first = snapshots[-1][0] + 1 if snapshots else 0
        layer = _int(s["layer"], "snapshot layer", first, len(layers))
        snapshots.append((layer, _snapshot_from_b64(s["amplitudes_b64"], config, v1, layer)))
    granularity = _choice(obj["granularity"], "granularity",
                          ("per_species_layer", "per_global_step"))
    return RunTrace(config=config, granularity=granularity,
                    layers=layers, snapshots=tuple(snapshots))


def save_trace(path: Path, trace: RunTrace, include_snapshots: bool = True) -> None:
    write_json(path, trace_to_json_obj(trace, include_snapshots))


def load_trace(path: Path) -> RunTrace:
    """Read a trace file; an unreadable or malformed file raises ValueError."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read trace {str(path)!r}: {exc.strerror}") from None
    return trace_from_json_obj(obj)
