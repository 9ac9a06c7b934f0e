"""Output digests: every file and stdout of a fixed command set, pinned by sha256.

The commands run in process through `cli.main`.  The manifest,
`tests/data/outputs.sha256`, holds one `<sha256>  <out dir>/<file>` line
per output, `<out dir>/stdout` for the printed text, and a first line
naming the Python and numpy versions it was made with.  A change that
alters outputs on purpose rewrites it with

    PYTHONPATH=src python -m tests.regen_outputs

and lists in CHANGES.md every file whose digest changed, and why.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import platform
import tempfile
from pathlib import Path

import numpy as np

from qcageom import cli

MANIFEST = Path(__file__).parent / "data" / "outputs.sha256"

#: (out dir, arguments before --out); "{root}" is the directory that holds the out dirs.
COMMANDS = (
    ("ghz", ["run", "--experiment", "ghz", "--n-sites", "10", "--pairs", "all_pairs", "--pgm"]),
    ("propagate", ["run", "--experiment", "propagate", "--n-sites", "10",
                   "--psi", "0.6+0.2i,0.3-0.7i", "--pairs", "all_pairs"]),
    ("pi3", ["run", "--experiment", "pi3", "--n-sites", "10", "--seed-site", "5",
             "--pairs", "all_pairs"]),
    ("topology", ["run", "--experiment", "topology", "--n-sites", "10", "--thickness", "4"]),
    ("werner", ["sweep", "--family", "werner", "--samples", "101", "--pgm"]),
    ("pure_family", ["sweep", "--family", "pure_family", "--samples", "101", "--pgm"]),
    ("distance_matrix", ["distance-matrix", "--trace", "{root}/pi3/trace.json", "--step", "4",
                         "--seed-site", "5"]),
    ("trace_topology", ["topology", "--trace", "{root}/pi3/trace.json", "--i-max", "4"]),
    ("topology_deep", ["run", "--experiment", "topology", "--n-sites", "12",
                       "--thickness", "16"]),
    ("trace_topology_odd", ["topology", "--trace", "{root}/pi3/trace.json", "--slice", "1",
                            "--i-max", "6", "--no-controlled-simplification"]),
    ("ghz_nn", ["run", "--experiment", "ghz", "--n-sites", "10"]),
    ("propagate_boundary", ["run", "--experiment", "propagate", "--n-sites", "10",
                            "--psi", "0.6+0.2i,0.3-0.7i", "--include-boundary"]),
    ("distance_matrix_boundary", ["distance-matrix", "--trace", "{root}/ghz/trace.json",
                                  "--step", "2", "--seed-site", "6", "--include-boundary"]),
    # the benchmark's N, where every pi3 snapshot takes the gathered field builder
    ("pi3_14", ["run", "--experiment", "pi3", "--n-sites", "14", "--seed-site", "9",
                "--steps", "14"]),
)


def versions() -> str:
    return f"python {platform.python_version()}, numpy {np.__version__}"


def output_digests(root: Path) -> dict[str, str]:
    """Run every command into `root`; the sha256 of each output, by `<out dir>/<file>`."""
    digests = {}
    for name, args in COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([a.format(root=root) for a in args] + ["--out", str(root / name)])
        assert code == 0, f"{name} exited with {code}"
        digests[f"{name}/stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        for path in (root / name).iterdir():
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def read_manifest() -> tuple[str, dict[str, str]]:
    """The versions the manifest was made with, and its digests."""
    first, *lines = MANIFEST.read_text().splitlines()
    return first.removeprefix("# "), {name: digest for digest, name in
                                      (ln.split("  ", 1) for ln in lines)}


def write_manifest() -> None:
    with tempfile.TemporaryDirectory() as root:
        digests = output_digests(Path(root))
    MANIFEST.write_text("".join([f"# {versions()}\n"] +
                                [f"{digests[k]}  {k}\n" for k in sorted(digests)]))


def test_outputs_match_the_manifest(tmp_path):
    made_with, expected = read_manifest()
    got = output_digests(tmp_path)
    problems = [f"{kind}: {', '.join(names)}" for kind, names in (
        ("changed", sorted(k for k in expected.keys() & got.keys() if expected[k] != got[k])),
        ("missing", sorted(expected.keys() - got.keys())),
        ("new", sorted(got.keys() - expected.keys())),
    ) if names]
    if problems and made_with != versions():
        problems.append(f"the manifest was made with {made_with}, this run uses {versions()}")
    assert not problems, f"outputs differ from {MANIFEST.name}: " + "; ".join(problems)
