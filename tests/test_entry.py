"""The lazy package namespace and the CLI's BLAS thread setting."""
from __future__ import annotations

import ast
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcageom

ROOT = Path(__file__).resolve().parents[1]
#: The directory that holds the package under test, put first on every child's path.
PACKAGE_DIR = Path(qcageom.__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The names the package exports, by defining module.
EXPORTS = {
    "statealg": ["DensityMatrix", "InvariantError", "StateVector", "apply_unitary",
                 "basis_state", "partial_trace", "ppt_separable_2q",
                 "product_state", "von_neumann_entropy"],
    "infogeo": ["DistanceField", "SweepCurve", "block_structure_report", "distance_field",
                "info_distance", "pure_family_sweep", "site_entropies",
                "werner_null_crossing", "werner_state", "werner_sweep"],
    "qca": ["PI3_RULE", "PULSE_RULE", "QcaConfig", "RunTrace", "UpdateRule",
            "ghz_experiment", "initial_state", "pi3_experiment", "propagate_experiment", "run",
            "x_pulse_rule"],
    "causal": ["AntiChain", "CausalPoset", "Gate", "ThickenedAntiChain", "Wire",
               "build_poset", "slice_antichain", "thicken"],
    "topo": ["SimplicialComplex", "betti", "boundary_rank", "shadow_complex",
             "stable_complex", "unitary_shadow_complex"],
}


def child_env(**overrides: str | None) -> dict[str, str]:
    """This environment with the tested package first on the path; a `None` override unsets."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE_DIR), os.environ.get("PYTHONPATH")])))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def python(code: str, **overrides: str | None) -> str:
    """Run `code` in a fresh interpreter under `child_env(**overrides)`; return stdout."""
    return subprocess.run([sys.executable, "-c", code], env=child_env(**overrides), cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout


class TestLazyPackage:
    def test_import_loads_no_numpy(self):
        # topo, and with it causal and qca, loads none; statealg does
        out = python("import sys, qcageom; print(qcageom.__version__, 'numpy' in sys.modules); "
                     "print(qcageom.topo.__name__, 'numpy' in sys.modules); "
                     "print(qcageom.statealg.__name__, 'numpy' in sys.modules)")
        assert out == "0.1.0 False\nqcageom.topo False\nqcageom.statealg True\n"

    def test_seeds_load_no_numpy(self):
        out = python("import sys; from qcageom import qca; "
                     "print(qca.KET0, qca.KET1, qca.KET_PLUS, 'numpy' in sys.modules)")
        assert out == f"(1, 0) (0, 1) {(math.sqrt(0.5), math.sqrt(0.5))} False\n"

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_resolve_to_their_modules(self, module):
        mod = importlib.import_module(f"qcageom.{module}")
        assert getattr(qcageom, module) is mod
        for name in EXPORTS[module]:
            assert getattr(qcageom, name) is getattr(mod, name), name

    def test_dir_star_import_and_unknown_name(self):
        exported = {name for names in EXPORTS.values() for name in names}
        listed = set(dir(qcageom))
        assert exported <= listed
        assert "__version__" in listed
        assert set(qcageom.__all__) == exported  # what `from qcageom import *` binds
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            qcageom.no_such_name  # noqa: B018

    def test_readme_library_example(self, capsys):
        text = (ROOT / "README.md").read_text()
        block = text.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1]
        block = block.split("```", 1)[0]
        assert "from qcageom import (" in block
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out


class TestTopologyLoadsNoNumpy:
    """The topology commands read gate records, never an amplitude, so they load no numpy."""

    @staticmethod
    def main_loads_numpy(*argv) -> str:
        """Run `cli.main(argv)` in a fresh interpreter; return its last stdout line."""
        out = python("import sys; from qcageom.cli import main; "
                     f"code = main({[str(a) for a in argv]!r}); "
                     "print(code, 'numpy' in sys.modules)")
        return out.splitlines()[-1]

    def test_import_of_the_causal_modules(self):
        out = python("import sys, qcageom.qca, qcageom.causal, qcageom.topo, qcageom.exports, "
                     "qcageom.infogeo; print('numpy' in sys.modules)")
        assert out == "False\n"

    def test_run_topology(self, tmp_path):
        assert self.main_loads_numpy("run", "--experiment", "topology", "--n-sites", 8,
                                     "--thickness", 3, "--out", tmp_path / "t") == "0 False"
        assert (tmp_path / "t" / "trace.json").is_file()

    def test_topology_from_a_trace_with_snapshots(self, tmp_path):
        from qcageom.cli import main

        argv = ["run", "--experiment", "pi3", "--n-sites", "6", "--seed-site", "3",
                "--steps", "3", "--out", str(tmp_path / "pi3")]
        assert main(argv) == 0
        trace = tmp_path / "pi3" / "trace.json"
        assert '"snapshots"' in trace.read_text()
        assert self.main_loads_numpy("topology", "--trace", trace, "--i-max", 3,
                                     "--out", tmp_path / "t") == "0 False"


class TestSweepLoadsNoNumpy:
    """The sweeps take delta from closed-form spectra; only the PGM heatmap loads numpy."""

    @pytest.mark.parametrize("family", ["werner", "pure_family"])
    def test_sweep(self, tmp_path, family):
        assert TestTopologyLoadsNoNumpy.main_loads_numpy(
            "sweep", "--family", family, "--samples", 11, "--out", tmp_path / "s") == "0 False"
        assert len((tmp_path / "s" / f"{family}.csv").read_text().splitlines()) == 12

    def test_sweep_pgm(self, tmp_path):
        assert TestTopologyLoadsNoNumpy.main_loads_numpy(
            "sweep", "--family", "werner", "--samples", 11, "--pgm",
            "--out", tmp_path / "s") == "0 True"
        pgm = (tmp_path / "s" / "werner.pgm").read_bytes()
        header = b"P5\n11 1\n255\n"
        assert pgm.startswith(header) and len(pgm) == len(header) + 11


class TestStartLoadsWhatItRuns:
    """No start loads `dataclasses`; `inspect` only with numpy; the reader only to read a trace."""

    WATCHED = ("dataclasses", "inspect", "numpy", "qcageom.tracereader")

    @classmethod
    def loaded(cls, *argv) -> list[str]:
        """The exit code of `cli.main(argv)` in a fresh interpreter (None: only the import),
        then the watched modules it loaded."""
        call = f"main({[str(a) for a in argv]!r})" if argv else "None"
        out = python(f"import sys; from qcageom.cli import main; code = {call}; "
                     f"print(code, *(m for m in {cls.WATCHED!r} if m in sys.modules))")
        return out.splitlines()[-1].split()

    @pytest.fixture(scope="class")
    def pi3_trace(self, tmp_path_factory) -> Path:
        from qcageom.cli import main

        out = tmp_path_factory.mktemp("pi3")
        assert main(["run", "--experiment", "pi3", "--n-sites", "6", "--seed-site", "3",
                     "--steps", "2", "--out", str(out)]) == 0
        return out / "trace.json"

    def test_import_of_the_cli(self):
        assert self.loaded() == ["None"]

    @pytest.mark.parametrize("argv", [
        ["run", "--experiment", "topology", "--n-sites", 8, "--thickness", 3],
        ["sweep", "--family", "werner", "--samples", 11],
        ["sweep", "--family", "pure_family", "--samples", 11],
    ], ids=["run-topology", "sweep-werner", "sweep-pure-family"])
    def test_commands_without_numpy_or_trace(self, tmp_path, argv):
        assert self.loaded(*argv, "--out", tmp_path / "o") == ["0"]

    def test_topology_from_a_trace(self, tmp_path, pi3_trace):
        assert self.loaded("topology", "--trace", pi3_trace, "--i-max", 1,
                           "--out", tmp_path / "t") == ["0", "qcageom.tracereader"]

    @pytest.mark.parametrize("argv", [
        ["run", "--experiment", "pi3", "--n-sites", 6, "--seed-site", 3, "--steps", 2],
        ["sweep", "--family", "werner", "--samples", 11, "--pgm"],
    ], ids=["run-pi3", "sweep-pgm"])
    def test_numpy_commands_read_no_trace(self, tmp_path, argv):
        # numpy imports inspect itself
        assert self.loaded(*argv, "--out", tmp_path / "o") == ["0", "inspect", "numpy"]

    def test_distance_matrix(self, tmp_path, pi3_trace):
        assert self.loaded("distance-matrix", "--trace", pi3_trace, "--step", 1,
                           "--out", tmp_path / "d") == ["0", "inspect", "numpy",
                                                        "qcageom.tracereader"]

    def test_no_module_imports_dataclasses(self):
        sources = sorted(Path(qcageom.__file__).parent.glob("*.py"))
        assert len(sources) >= 9
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module] if isinstance(node, ast.ImportFrom) else [])
                assert "dataclasses" not in names, path.name


needs_proc = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                reason="no /proc/self/task to count threads")
COUNT_TASKS = ("import os, numpy; "
               "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")


@needs_proc
class TestThreadSetting:
    unset = dict.fromkeys(BLAS_VARS)

    def test_entry_point_runs_one_thread(self):
        out = python(f"import qcageom.__main__; {COUNT_TASKS}", **self.unset)
        assert out == "1 1\n"

    def test_preset_variable_wins(self):
        preset = dict(self.unset, OPENBLAS_NUM_THREADS="2")
        baseline = python(COUNT_TASKS, **preset)
        if baseline == "1 2\n":
            pytest.skip("numpy starts no BLAS worker here at 2 threads")
        assert python(f"import qcageom.__main__; {COUNT_TASKS}", **preset) == baseline

    def test_library_import_leaves_environment(self):
        out = python("import os; before = dict(os.environ); import qcageom.cli; "
                     "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)",
                     **self.unset)
        assert out == "True False\n"


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """Out dirs and stdout are byte-identical on one BLAS thread and on two."""
    def start(threads: str, *argv) -> subprocess.Popen:
        return subprocess.Popen([sys.executable, "-m", "qcageom", *map(str, argv)],
                                env=child_env(OPENBLAS_NUM_THREADS=threads),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def run_both(name: str, *argv) -> None:
        procs = {t: start(t, *argv, "--out", tmp_path / t / name) for t in ("1", "2")}
        results = {t: (p.communicate(timeout=60), p.returncode) for t, p in procs.items()}
        assert results["1"] == results["2"], name
        assert results["1"][1] == 0, results["1"][0][1]

    run_both("pi3", "run", "--experiment", "pi3", "--n-sites", 10, "--seed-site", 4,
             "--pairs", "all_pairs")
    run_both("ghz", "run", "--experiment", "ghz", "--n-sites", 14)
    run_both("prop", "run", "--experiment", "propagate", "--n-sites", 12,
             "--psi", "0.6+0.2i,0.3-0.7i")
    run_both("dm", "distance-matrix", "--trace", tmp_path / "1" / "pi3" / "trace.json",
             "--step", 12)
    one = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*"))
    two = sorted(p.relative_to(tmp_path / "2") for p in (tmp_path / "2").rglob("*"))
    assert one == two and len(one) > 20
    for rel in one:
        if (tmp_path / "1" / rel).is_file():
            assert (tmp_path / "1" / rel).read_bytes() == (tmp_path / "2" / rel).read_bytes(), rel
