"""Command-line experiment runner and exporter.

Subcommands: run, sweep, distance-matrix, topology.  Every `run`
experiment needs --n-sites, and a `run` option that the experiment does
not read is an error.  The propagate, ghz and pi3 experiments share one
flow: evolve, write the distance fields and the per-site series (p1, or
for pi3 the entropies), both read off the reduced states that each
field's pass builds, add the GHZ block reports, save the trace, and only
then check the fidelity, so a failed check discards every written file.

`block_report.json` reports on different fields for the two commands
that write it.  `run ghz` reports on register-only all-pairs fields,
built in a second pass when --pairs or --include-boundary makes the
written fields differ.  `distance-matrix` reports on the field it
writes, so with --include-boundary the virtual labels 0 and N+1 fall
into the regions: on the N=8 GHZ trace at step 2 they are
[[2,3,4,5,6],[0,1,7,8,9]], against [[2,3,4,5,6],[1,7,8]] without.

Exit codes: 0 on success; 2 on a bad experiment spec (a non-finite or
zero --psi, or an option the experiment does not read, among them), an
--out that cannot be created or written, or running out of memory; 3
when a numerical invariant fails mid-run.  Each file is written under a
temporary name, and all are renamed into place once the command has
succeeded; on any failure, an interrupt included, the temporaries and
the directories the command created are removed.

`infogeo`, `causal` and `topo` are imported by the commands that use
them, the trace reader only by `distance-matrix` and `topology`, through
`exports.load_trace`, and numpy only by the functions that build or read
a state, so `run --experiment topology`, `topology --trace` and `sweep`
without --pgm load no numpy.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import os
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from . import exports, qca
from .qca import InvariantError

if TYPE_CHECKING:
    import numpy as np

    from . import infogeo

FIDELITY_TOL = 1e-9
#: The most `sweep --samples`: a grid step of 1e-5.  The grid and both
#: curves are held in memory, so a larger count is refused before any is built.
MAX_SAMPLES = 100_001
#: The most global steps of `run` pi3 or topology, 16 times the N=16
#: default.  pi3 holds every snapshot, about 2 MB a step at N=16, so a
#: larger count is refused before any schedule is built.
MAX_STEPS = 256


class _Outputs:
    """Writes the files of one command so that a failed command leaves nothing behind.

    Each file is written under a temporary name in the out dir. `commit`
    renames them all into place once the command has succeeded, so a final
    name never holds a partial file, and a file already there is replaced
    only by a command that succeeded. `discard` removes the temporaries and
    the directories that `__init__` created, never one that already existed.
    """

    def __init__(self, out_dir: Path):
        self.dir = Path(out_dir)
        self.pending: list[tuple[Path, Path]] = []  # (temporary, final name)
        self.created = list(itertools.takewhile(lambda p: not p.exists(),
                                                (self.dir, *self.dir.parents)))
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            self.discard()
            raise

    def write(self, name: str, writer, *args):
        """Call `writer(temporary path, *args)` and return its result; `commit` names the file."""
        path = self.dir / name
        _check_not_a_directory(path)
        tmp = path.with_name(f".{name}.tmp")
        self.pending.append((tmp, path))  # recorded before it is opened
        return writer(tmp, *args)

    def write_text(self, name: str, text: str) -> None:
        self.write(name, Path.write_text, text)

    def write_json(self, name: str, obj) -> None:
        self.write(name, exports.write_json, obj)

    def write_pgm(self, name: str, matrix: Sequence[Sequence[float]]) -> None:
        scale = self.write(name, exports.write_pgm, matrix)
        self.write_json(name.replace(".pgm", ".scale.json"), scale)

    def commit(self) -> None:
        """Rename every file into place, after checking that no final name is a directory."""
        for _, path in self.pending:
            _check_not_a_directory(path)
        for tmp, path in self.pending:
            os.replace(tmp, path)
        self.pending.clear()

    def discard(self) -> None:
        for tmp, _ in self.pending:
            with contextlib.suppress(OSError):
                tmp.unlink()
        for directory in self.created:  # deepest first; a non-empty one stays
            with contextlib.suppress(OSError):
                directory.rmdir()


def _check_not_a_directory(path: Path) -> None:
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def parse_qubit_literal(text: str) -> np.ndarray:
    """Two comma-separated complex literals in "re+imi" form, normalized."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("qubit state needs two comma-separated amplitudes")
    amps = []
    for p in parts:
        p = p.strip() or "0"
        try:
            # only a final i is the imaginary unit: "inf" and "nan" hold an i too
            amps.append(complex(p[:-1] + "j" if p.endswith("i") else p))
        except ValueError:
            raise ValueError(f"bad complex literal {p!r}") from None
    return qca.unit_qubit(amps)


def _pair_columns(labels):
    return [f"{a}-{b}" for a, b in zip(labels, labels[1:])]


def _snapshot_field(trace: qca.RunTrace, idx: int, state, pairs: str,
                    include_boundary: bool) -> infogeo.DistanceField:
    from . import infogeo

    return infogeo.distance_field(
        state, pairs=pairs, include_boundary=include_boundary,
        boundary_labels=trace.config.boundary_labels, time_step=idx,
    )


def _write_distance_outputs(out: _Outputs, trace: qca.RunTrace, pairs: str,
                            include_boundary: bool, pgm: bool) -> list[infogeo.DistanceField]:
    """Write one distance CSV per snapshot; return the fields."""
    fields = []
    for idx, state in trace.snapshots:
        field = _snapshot_field(trace, idx, state, pairs, include_boundary)
        fields.append(field)
        out.write_text(f"distance_step_{idx:04d}.csv", exports.distance_field_csv(field))
    if fields and pairs == "nearest_neighbor":
        _write_site_series(out, "nn_distance", _pair_columns(fields[0].labels),
                           [f.time_step for f in fields],
                           [f.values.diagonal(1) for f in fields], pgm)
    return fields


def _write_site_series(out: _Outputs, name: str, columns, layers, rows, pgm: bool) -> None:
    """`name`.csv: one row (snapshot layer, a value per column) per snapshot."""
    out.write_text(f"{name}.csv", exports.matrix_csv(columns, layers, rows, corner="layer"))
    if pgm:
        out.write_pgm(f"{name}.pgm", rows)


def _block_report_obj(field: infogeo.DistanceField, seed_site: int | None) -> dict:
    from . import infogeo

    rep = infogeo.block_structure_report(field, seed_site=seed_site)
    return {
        "layer": field.time_step,
        "regions": [list(r) for r in rep.regions],
        "pattern_holds": rep.pattern_holds,
        "cross_min": rep.cross_min,
        "note": rep.note,
    }


def _maybe_save_trace(out: _Outputs, trace: qca.RunTrace, args) -> None:
    if args.save_trace:
        if args.no_snapshots:
            trace = trace.replace(snapshots=())
        out.write("trace.json", exports.save_trace, trace)


_STATE_EXPERIMENTS = ("propagate", "ghz", "pi3")
#: The `run` options that only some experiments read: those experiments,
#: and the value the option takes when it is not given.
_RUN_OPTIONS = {
    "psi": (("propagate",), "1,0"),
    "seed_site": (("pi3",), None),
    "steps": (("pi3", "topology"), None),
    "thickness": (("topology",), 4),
    "controlled_simplification": (("topology",), True),
    "pairs": (_STATE_EXPERIMENTS, "nearest_neighbor"),
    "include_boundary": (_STATE_EXPERIMENTS, False),
    "pgm": (_STATE_EXPERIMENTS, False),
    "no_snapshots": (_STATE_EXPERIMENTS, False),
}


def _check_run_options(args) -> None:
    """Fill in the options not given; a given one the experiment does not read is an error."""
    for dest, (readers, default) in _RUN_OPTIONS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.experiment not in readers:
            raise ValueError(f"--{dest.replace('_', '-')} is not read by the "
                             f"{args.experiment} experiment")
    if args.no_snapshots and not args.save_trace:
        raise ValueError(f"--no-snapshots is not read by the {args.experiment} "
                         "experiment with --no-save-trace")


def _cmd_run(args, out: _Outputs) -> int:
    _check_run_options(args)
    if args.experiment == "topology" and args.steps is None:
        args.steps = max(args.thickness, 4)
    if args.steps is not None and args.steps > MAX_STEPS:
        raise ValueError(f"more than {MAX_STEPS} global steps")
    if args.experiment == "topology":
        # The poset needs only the layers: every snapshot would be the same
        # all-|0> fixed point, and `topology --trace` reads none.
        trace = qca.run(qca.QcaConfig(n_sites=args.n_sites, rule=qca.PULSE_RULE), args.steps,
                        snapshots=False)
        _maybe_save_trace(out, trace, args)
        return _emit_topology(out, trace, slice_layer=0, i_max=args.thickness,
                              simplify=args.controlled_simplification)
    fid = None
    if args.experiment == "propagate":
        trace, fid = qca.propagate_experiment(args.n_sites, parse_qubit_literal(args.psi))
    elif args.experiment == "ghz":
        trace, fid = qca.ghz_experiment(args.n_sites)
    else:
        if args.seed_site is None:
            raise ValueError("pi3 needs --seed-site")
        trace = qca.pi3_experiment(args.n_sites, args.seed_site, args.steps)
    fields = _write_distance_outputs(out, trace, args.pairs, args.include_boundary, args.pgm)
    # S(q) for pi3, p(1) otherwise, both from the reduced-state pass that built each field
    pi3 = args.experiment == "pi3"
    sites = trace.config.register_sites
    rows = [[(f.site_entropies if pi3 else f.site_p1)[s] for s in sites] for f in fields]
    _write_site_series(out, "entropy" if pi3 else "p1", sites, [f.time_step for f in fields],
                       rows, args.pgm)
    if args.experiment == "ghz":
        if args.pairs != "all_pairs" or args.include_boundary:
            # The block reports need register-only all-pairs fields.
            fields = [_snapshot_field(trace, idx, state, "all_pairs", False)
                      for idx, state in trace.snapshots]
        seed = qca.ghz_seed_site(args.n_sites)
        out.write_json("block_report.json", [_block_report_obj(f, seed) for f in fields])
    _maybe_save_trace(out, trace, args)
    if fid is not None:
        if fid < 1.0 - FIDELITY_TOL:
            raise InvariantError(f"{args.experiment} fidelity {fid!r} below 1 - 1e-9")
        print(f"fidelity={fid:.9f}")
    return 0


def _cmd_sweep(args, out: _Outputs) -> int:
    from . import infogeo

    if args.samples < 2:
        raise ValueError("need at least 2 samples")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"more than {MAX_SAMPLES} samples")
    grid = [i / (args.samples - 1) for i in range(args.samples)]
    if args.family == "werner":
        curve = infogeo.werner_sweep(grid)
        out.write_text("werner.csv", exports.sweep_csv(curve))
        tol = infogeo.NULL_CROSSING_TOL
        z_star = infogeo.werner_null_crossing(tol)
        out.write_json("werner_crossing.json", {
            "z_star": z_star,
            "bisection_tol": tol,
            "sign_changes_on_grid": len(curve.sign_changes()),
        })
        print(f"z_star={z_star:.8f}")
    else:
        curve = infogeo.pure_family_sweep(grid)
        out.write_text("pure_family.csv", exports.sweep_csv(curve))
    if args.pgm:
        out.write_pgm(f"{args.family}.pgm", [list(curve.values)])
    return 0


def _emit_topology(out: _Outputs, trace: qca.RunTrace, slice_layer: int,
                   i_max: int, simplify: bool) -> int:
    from . import causal, topo

    poset = causal.build_poset(trace)
    base = causal.slice_antichain(poset, slice_layer)
    result = topo.stable_complex(poset, base, i_max, controlled_simplification=simplify)
    width = max((len(b) for _, b in result.filtration), default=1)
    out.write_text("betti_filtration.csv", exports.matrix_csv(
        [f"b{k}" for k in range(width)], [t for t, _ in result.filtration],
        [(*b, *[0] * (width - len(b))) for _, b in result.filtration], corner="thickness"))
    out.write_json("stable.json", {
        "t_star": result.t_star,
        "note": result.note,
        "controlled_simplification": simplify,
        "filtration": [{"thickness": t, "betti": list(b)} for t, b in result.filtration],
    })
    out.write_json("poset.json", causal.poset_json(poset))
    if result.complex is not None:
        out.write_json("complex.json", result.complex.to_json_obj())
        print(f"t_star={result.t_star}")
    else:
        print(f"t_star=none ({result.note})")
    return 0


def _cmd_distance_matrix(args, out: _Outputs) -> int:
    trace = exports.load_trace(args.trace)
    if not trace.snapshots:
        raise ValueError("trace has no snapshots")
    if not 0 <= args.step < len(trace.snapshots):
        raise ValueError(
            f"step {args.step} out of range (trace has {len(trace.snapshots)} snapshots)")
    idx, state = trace.snapshots[args.step]
    field = _snapshot_field(trace, idx, state, "all_pairs", args.include_boundary)
    out.write_text("distance_matrix.csv", exports.distance_field_csv(field))
    out.write_json("distance_matrix.json", exports.distance_field_json_obj(field))
    report = _block_report_obj(field, args.seed_site)
    out.write_json("block_report.json", report)
    print(report["note"])
    return 0


def _cmd_topology(args, out: _Outputs) -> int:
    trace = exports.load_trace(args.trace)
    return _emit_topology(out, trace, args.slice, args.i_max,
                          simplify=args.controlled_simplification)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcageom",
        description="Block-partitioned QCA experiments, distance geometry, and slice topology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named experiment and export its data files")
    run.add_argument("--experiment", required=True,
                     choices=["propagate", "ghz", "pi3", "topology"])
    run.add_argument("--out", required=True, type=Path)
    run.add_argument("--n-sites", type=int, required=True)
    # Defaults of the options below are set by _check_run_options.
    run.add_argument("--steps", type=int, help="global steps (pi3, topology)")
    run.add_argument("--psi", help='seed qubit "re+imi,re+imi" (propagate; default 1,0)')
    run.add_argument("--seed-site", type=int, help="seed site (pi3)")
    run.add_argument("--thickness", type=int, help="max thickness (topology; default 4)")
    run.add_argument("--pairs", choices=["nearest_neighbor", "all_pairs"],
                     help="pairs of the distance fields (default nearest_neighbor)")
    run.add_argument("--include-boundary", action="store_true", default=None)
    run.add_argument("--controlled-simplification", action=argparse.BooleanOptionalAction,
                     help="(topology; default on)")
    run.add_argument("--pgm", action="store_true", default=None,
                     help="also write PGM heatmaps")
    run.add_argument("--save-trace", action=argparse.BooleanOptionalAction, default=True)
    run.add_argument("--no-snapshots", action="store_true", default=None,
                     help="omit state snapshots from trace.json")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="parameter sweeps of the two-qubit families")
    sweep.add_argument("--family", required=True, choices=["werner", "pure_family"])
    sweep.add_argument("--samples", type=int, default=101)
    sweep.add_argument("--out", required=True, type=Path)
    sweep.add_argument("--pgm", action="store_true")
    sweep.set_defaults(func=_cmd_sweep)

    dm = sub.add_parser("distance-matrix", help="all-pairs distances at one trace snapshot")
    dm.add_argument("--trace", required=True, type=Path)
    dm.add_argument("--step", required=True, type=int, help="snapshot index (0 = initial)")
    dm.add_argument("--out", required=True, type=Path)
    dm.add_argument("--include-boundary", action="store_true")
    dm.add_argument("--seed-site", type=int)
    dm.set_defaults(func=_cmd_distance_matrix)

    tp = sub.add_parser("topology", help="stable slice topology from a saved trace")
    tp.add_argument("--trace", required=True, type=Path)
    tp.add_argument("--slice", type=int, default=0)
    tp.add_argument("--i-max", type=int, default=4)
    tp.add_argument("--out", required=True, type=Path)
    tp.add_argument("--controlled-simplification", action=argparse.BooleanOptionalAction,
                    default=True)
    tp.set_defaults(func=_cmd_topology)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except InvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def _run(args) -> int:
    """Run the command into its out dir; on any exception, discard the outputs and re-raise."""
    out = _Outputs(args.out)  # on failure it has removed what it made
    try:
        code = args.func(args, out)
        out.commit()
    except BaseException:
        out.discard()
        raise
    return code


if __name__ == "__main__":
    raise SystemExit(main())
