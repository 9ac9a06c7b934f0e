"""Per-layer metrics of qcageom, derived from spans and hook counters.

Layers are the package modules.  Byte counts marked "computed" are array
sizes, not measured memory traffic.
"""
from __future__ import annotations

import os

LAYERS = ("cli", "qca", "statealg", "infogeo", "causal", "topo", "exports")

#: Functions whose inclusive time is reported, by metric name.
TIMED = {
    "statealg.partial_trace_s": ("statealg.partial_trace",),
    "statealg.entropy_s": ("statealg.von_neumann_entropy",),
    "statealg.apply_unitary_s": ("statealg.apply_unitary",),
    "infogeo.distance_field_s": ("infogeo.distance_field",),
    "infogeo.site_entropies_s": ("infogeo.site_entropies",),
    "infogeo.block_report_s": ("infogeo.block_structure_report",),
    "infogeo.sweep_s": ("infogeo.werner_sweep", "infogeo.pure_family_sweep",
                        "infogeo.werner_null_crossing"),
    "topo.stable_complex_s": ("topo.stable_complex",),
    "topo.complex_build_s": ("topo.unitary_shadow_complex", "topo.shadow_complex"),
    "topo.betti_s": ("topo.betti",),
    "qca.evolve_s": ("qca.run",),
    "causal.build_poset_s": ("causal.build_poset",),
    "causal.poset_json_s": ("causal.poset_json",),
    "exports.load_trace_s": ("exports.load_trace",),
}

#: Call counts, by metric name.
CALLS = {
    "statealg.entropy_calls": "statealg.von_neumann_entropy",
    "statealg.apply_unitary_calls": "statealg.apply_unitary",
    "infogeo.distance_field_calls": "infogeo.distance_field",
}

#: exports functions that read; every other exports function counts as writing.
EXPORT_READERS = ("exports.load_trace", "exports.trace_from_json_obj",
                  "exports.parse_matrix_csv")

def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _partial_trace(counts, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    if hasattr(state, "amplitudes"):
        _add(counts, "statealg.partial_trace_state_calls", 1)
        in_bytes = state.amplitudes.nbytes
    else:
        _add(counts, "statealg.partial_trace_dm_calls", 1)
        in_bytes = state.matrix.nbytes
    _add(counts, "statealg.partial_trace_bytes", in_bytes + result.matrix.nbytes)


def _apply_unitary(counts, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    _add(counts, "statealg.apply_unitary_bytes",
         state.amplitudes.nbytes + result.amplitudes.nbytes)


def _distance_field(counts, args, kwargs, result):
    values = result.values
    n = values.shape[0]
    not_computed = int((values != values).sum())  # NaN marks a pair not computed
    _add(counts, "infogeo.pairs", (n * n - n - not_computed) // 2)


def _sweep(counts, args, kwargs, result):
    _add(counts, "infogeo.sweep_points", len(result.grid))


def _run(counts, args, kwargs, result):
    _add(counts, "qca.gates", sum(len(layer.gates) for layer in result.layers))
    _add(counts, "qca.snapshots", len(result.snapshots))
    _add(counts, "qca.snapshot_bytes",
         sum(state.amplitudes.nbytes for _, state in result.snapshots))


def _build_poset(counts, args, kwargs, result):
    _add(counts, "causal.nodes", len(result.nodes))
    _add(counts, "causal.covers", sum(1 for _ in result.covers()))


def _maximal_count(faces) -> int:
    """Faces that are not a facet of another face (closure is assumed)."""
    covered = set()
    for f in faces:
        if len(f) > 1:
            covered.update(f - {v} for v in f)
    return sum(1 for f in faces if f not in covered)


def _betti(counts, args, kwargs, result):
    complex_ = args[0] if args else kwargs["complex_"]
    faces = complex_.simplices
    _add(counts, "topo.faces", len(faces))
    _add(counts, "topo.maximal_simplices", _maximal_count(faces))


def _load_trace(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    _add(counts, "exports.load_bytes", os.path.getsize(path))


HOOKS = {
    "statealg.partial_trace": _partial_trace,
    "statealg.apply_unitary": _apply_unitary,
    "infogeo.distance_field": _distance_field,
    "infogeo.werner_sweep": _sweep,
    "infogeo.pure_family_sweep": _sweep,
    "qca.run": _run,
    "causal.build_poset": _build_poset,
    "topo.betti": _betti,
    "exports.load_trace": _load_trace,
}

#: Every qualified name a metric relies on.  Names missing from the
#: program are reported as absent and their metrics read 0.
EXPECTED = sorted({n for names in TIMED.values() for n in names}
                  | set(CALLS.values()) | set(HOOKS) | set(EXPORT_READERS) | {"cli.main"})

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "statealg.partial_trace_state_calls": "count",
    "statealg.partial_trace_dm_calls": "count",
    "statealg.partial_trace_s": "s",
    "statealg.partial_trace_bytes": "B",
    "statealg.entropy_calls": "count",
    "statealg.entropy_s": "s",
    "statealg.apply_unitary_calls": "count",
    "statealg.apply_unitary_s": "s",
    "statealg.apply_unitary_bytes": "B",
    "statealg.self_s": "s",
    "infogeo.distance_field_calls": "count",
    "infogeo.distance_field_s": "s",
    "infogeo.self_s": "s",
    "infogeo.pairs": "count",
    "infogeo.pairs_per_s": "1/s",
    "infogeo.entropy_per_pair": "ratio",
    "infogeo.site_entropies_s": "s",
    "infogeo.block_report_s": "s",
    "infogeo.sweep_s": "s",
    "infogeo.sweep_points": "count",
    "infogeo.maxrss_rise_mb": "MB",
    "topo.stable_complex_s": "s",
    "topo.complex_build_s": "s",
    "topo.betti_s": "s",
    "topo.faces": "count",
    "topo.maximal_simplices": "count",
    "topo.maximal_per_face": "ratio",
    "topo.self_s": "s",
    "topo.maxrss_rise_mb": "MB",
    "qca.evolve_s": "s",
    "qca.gates": "count",
    "qca.snapshots": "count",
    "qca.snapshot_bytes": "B",
    "qca.self_s": "s",
    "qca.maxrss_rise_mb": "MB",
    "exports.write_s": "s",
    "exports.trace_bytes": "B",
    "exports.load_trace_s": "s",
    "exports.load_bytes": "B",
    "exports.load_mb_per_s": "MB/s",
    "exports.self_s": "s",
    "exports.maxrss_rise_mb": "MB",
    "cli.import_s": "s",
    "cli.commands": "count",
    "cli.self_s": "s",
    "causal.build_poset_s": "s",
    "causal.nodes": "count",
    "causal.covers": "count",
    "causal.poset_json_s": "s",
    "causal.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def command_metrics(summary, counts: dict) -> dict:
    """Per-layer metrics of one traced command, ratios left out."""
    out = {name: 0 for name in PER_LAYER}
    for name, fns in TIMED.items():
        out[name] = sum(summary.inclusive_s.get(fn, 0.0) for fn in fns)
    for name, fn in CALLS.items():
        out[name] = summary.calls.get(fn, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = summary.layer_self_s.get(layer, 0.0)
        if f"{layer}.maxrss_rise_mb" in PER_LAYER:
            out[f"{layer}.maxrss_rise_mb"] = summary.layer_rss_rise_kb.get(layer, 0) / 1024
    out["exports.write_s"] = sum(
        t for fn, t in summary.entry_s.items()
        if fn.startswith("exports.") and fn not in EXPORT_READERS
    )
    out["trace.spans"] = sum(summary.calls.values())
    out.update(counts)
    return out


RATIOS = {
    "infogeo.pairs_per_s": ("infogeo.pairs", "infogeo.distance_field_s", 1.0),
    "infogeo.entropy_per_pair": ("statealg.entropy_calls", "infogeo.pairs", 1.0),
    "topo.maximal_per_face": ("topo.maximal_simplices", "topo.faces", 1.0),
    "exports.load_mb_per_s": ("exports.load_bytes", "exports.load_trace_s", 1e-6),
}


def workload_metrics(per_command: list[dict]) -> dict:
    """Sum the commands of one workload run, then take the ratios (0 when the base is 0)."""
    total = {name: sum(m.get(name, 0) for m in per_command) for name in PER_LAYER}
    total["cli.commands"] = len(per_command)
    for name, (num, den, scale) in RATIOS.items():
        total[name] = total[num] * scale / total[den] if total[den] else 0.0
    return total
