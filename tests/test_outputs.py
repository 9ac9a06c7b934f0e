"""Output digests: every file and stdout of a fixed command set, pinned by sha256.

The commands run in process through `cli.main`, and again in a child
process under each OpenBLAS kernel core in `OTHER_CORES` (x86-64 only).
The manifest, `tests/data/outputs.sha256`, holds one
`<sha256>  <out dir>/<file>` line per output, `<out dir>/stdout` for the
printed text, and a first line naming the Python and numpy versions it
was made with, and the kernel core of numpy's OpenBLAS: the written
floats depend on it.  A change that alters outputs on purpose rewrites
it with

    PYTHONPATH=src python -m tests.regen_outputs

and lists in CHANGES.md every file whose digest changed, and why.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

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
    ("ghz_boundary", ["run", "--experiment", "ghz", "--n-sites", "10", "--include-boundary"]),
    ("propagate_boundary", ["run", "--experiment", "propagate", "--n-sites", "10",
                            "--psi", "0.6+0.2i,0.3-0.7i", "--include-boundary"]),
    ("distance_matrix_boundary", ["distance-matrix", "--trace", "{root}/ghz/trace.json",
                                  "--step", "2", "--seed-site", "6", "--include-boundary"]),
    # the benchmark's N
    ("pi3_14", ["run", "--experiment", "pi3", "--n-sites", "14", "--seed-site", "9",
                "--steps", "14"]),
)


def openblas_core() -> str:
    """The kernel core of numpy's bundled OpenBLAS, such as SkylakeX, or "unknown"."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("libscipy_openblas64_*.so")):
        try:  # the library numpy has loaded, so the core it picked
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def versions() -> str:
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"openblas {openblas_core()}")


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


def test_openblas_core_is_unknown_without_the_library(tmp_path, monkeypatch):
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert openblas_core() == "unknown"


def check_against_manifest(got: dict[str, str], run_with: str) -> None:
    """Fail with each changed, missing and new output of a run made with `run_with`."""
    made_with, expected = read_manifest()
    problems = [f"{kind}: {', '.join(names)}" for kind, names in (
        ("changed", sorted(k for k in expected.keys() & got.keys() if expected[k] != got[k])),
        ("missing", sorted(expected.keys() - got.keys())),
        ("new", sorted(got.keys() - expected.keys())),
    ) if names]
    if problems and made_with != run_with:
        problems.append(f"the manifest was made with {made_with}, this run uses {run_with}")
    assert not problems, f"outputs differ from {MANIFEST.name}: " + "; ".join(problems)


def test_outputs_match_the_manifest(tmp_path):
    check_against_manifest(output_digests(tmp_path), versions())


#: Prints the versions and the output digests of a run into the directory argv[1].
CHILD = """import json, sys
from pathlib import Path
from tests.test_outputs import output_digests, versions
digests = output_digests(Path(sys.argv[1]))
print(json.dumps({"versions": versions(), "digests": digests}))
"""


#: Kernel cores besides the manifest's under which the digests must hold.  Under
#: Sandybridge two pi3 N=14 CSV cells still move, by one unit in the 12th digit.
OTHER_CORES = ("Haswell", "Prescott")


@pytest.mark.parametrize("core", OTHER_CORES)
def test_outputs_under_another_kernel_match_the_manifest(tmp_path, core):
    """The written bytes hold when OpenBLAS takes another CPU's kernels.

    `OPENBLAS_CORETYPE` forces the kernel core of the process it starts
    in, so the commands run in a child process.
    """
    if platform.machine() not in ("x86_64", "AMD64") or openblas_core() == "unknown":
        pytest.skip("OPENBLAS_CORETYPE names x86-64 cores of numpy's bundled OpenBLAS")
    repo = Path(__file__).resolve().parents[1]
    package_dir = Path(cli.__file__).resolve().parents[1]  # the package under test
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join([str(package_dir), str(repo)])}
    child = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], cwd=repo, env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    run = json.loads(child.stdout)
    check_against_manifest(run["digests"], run["versions"])
