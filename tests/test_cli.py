"""End-to-end CLI runs: files, exit codes, determinism."""
from __future__ import annotations

import base64
import cmath
import contextlib
import io
import json
import math
import shlex
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcageom import cli, exports, infogeo, qca, tracereader
from qcageom.cli import _Outputs, main, parse_qubit_literal


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def read_matrix_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """The column labels, row labels and values of a CSV table the CLI wrote."""
    cols, rows, values = exports.parse_matrix_csv(path.read_text())
    return cols, rows, np.array(values)


class TestQubitLiteral:
    def test_basic_forms(self):
        v = parse_qubit_literal("1,0")
        assert np.allclose(v, [1, 0])
        v = parse_qubit_literal("0.6,0.8i")
        assert np.allclose(v, [0.6, 0.8j])
        v = parse_qubit_literal("1,1i")
        assert np.allclose(v, np.array([1, 1j]) / math.sqrt(2))
        v = parse_qubit_literal("3,4")  # normalized on input
        assert np.allclose(v, [0.6, 0.8])

    def test_bad_literals(self):
        with pytest.raises(ValueError):
            parse_qubit_literal("1")
        with pytest.raises(ValueError):
            parse_qubit_literal("x,y")
        with pytest.raises(ValueError):
            parse_qubit_literal("0,0")

    @pytest.mark.parametrize("text", ["nan,0", "1e309,0", "inf,1", "1,-infi", "0,nani"])
    def test_non_finite_literals(self, text):
        with pytest.raises(ValueError, match="must be finite"):
            parse_qubit_literal(text)

    @pytest.mark.parametrize("text, expect", [
        ("1e200,1e200", [math.sqrt(0.5), math.sqrt(0.5)]),
        ("0,1.3407807929942597e+154i", [0, 1j]),
        ("5e-324,0", [1, 0]),
    ])
    def test_extreme_magnitudes(self, text, expect):
        assert np.allclose(parse_qubit_literal(text), expect, rtol=0, atol=1e-15)

    @given(st.one_of(
        st.tuples(*[st.complex_numbers(allow_nan=True, allow_infinity=True)] * 2),
        st.text().map(lambda text: (text,)),
    ))
    def test_any_text_is_a_unit_vector_or_value_error(self, literal):
        if len(literal) == 1:
            text = literal[0]
        else:
            text = ",".join(f"{z.real!r}{z.imag:+}i" for z in literal)
        usable = len(literal) == 2 and all(map(cmath.isfinite, literal)) and any(literal)
        try:
            v = parse_qubit_literal(text)
        except ValueError:
            assert not usable, text
            return
        assert v.shape == (2,) and np.all(np.isfinite(v)), text
        assert abs(float(np.vdot(v, v).real) - 1.0) <= 1e-12, text


class TestRunPropagate:
    def test_outputs_and_fidelity_line(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "propagate", "--n-sites", 8,
                       "--psi", "0,1", "--out", tmp_path / "p")
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("fidelity=")
        assert abs(float(line.split("=")[1]) - 1.0) <= 1e-9
        out = tmp_path / "p"
        assert (out / "p1.csv").exists()
        assert (out / "nn_distance.csv").exists()
        assert (out / "trace.json").exists()
        assert (out / "distance_step_0000.csv").exists()

    def test_ridge_reaches_site_n(self, tmp_path):
        run_cli("run", "--experiment", "propagate", "--n-sites", 12,
                "--psi", "0,1", "--out", tmp_path / "p")
        cols, rows, vals = read_matrix_csv(tmp_path / "p" / "p1.csv")
        assert cols == [str(s) for s in range(1, 13)]
        # final row (after the phase layer) has p(1) = 1 at site 12 alone
        assert vals[-1][-1] == pytest.approx(1.0, abs=1e-9)
        assert np.sum(vals[-1][:-1]) <= 1e-9

    def test_odd_sites_exit_2(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "propagate", "--n-sites", 5,
                       "--out", tmp_path / "p")
        assert code == 2
        assert not list((tmp_path / "p").glob("*")) or not (tmp_path / "p").exists()

    def test_non_finite_psi_exit_2(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "propagate", "--n-sites", 4,
                       "--psi", "nan,0", "--out", tmp_path / "p")
        assert code == 2
        assert capsys.readouterr().err == "error: qubit amplitudes must be finite\n"
        assert not (tmp_path / "p").exists()

    def test_huge_psi_runs(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "propagate", "--n-sites", 4,
                       "--psi", "1e200,1e200", "--out", tmp_path / "p")
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "fidelity=1.000000000"


class TestRunGhz:
    def test_fidelity_line_format(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "ghz", "--n-sites", 12,
                       "--out", tmp_path / "g")
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line == "fidelity=1.000000000"

    def test_block_report_written(self, tmp_path):
        run_cli("run", "--experiment", "ghz", "--n-sites", 8, "--out", tmp_path / "g")
        reports = json.loads((tmp_path / "g" / "block_report.json").read_text())
        # mid-generation snapshot (after global 1 = layer 2) shows the pattern
        by_layer = {r["layer"]: r for r in reports}
        assert by_layer[2]["pattern_holds"]
        assert sorted(by_layer[2]["regions"][0]) == [2, 3, 4, 5, 6]

    def test_all_pairs_fields_built_once(self, tmp_path, monkeypatch):
        calls, real = [], infogeo.distance_field

        def counting(*args, **kwargs):
            calls.append(kwargs.get("time_step"))
            return real(*args, **kwargs)

        monkeypatch.setattr(infogeo, "distance_field", counting)
        run_cli("run", "--experiment", "ghz", "--n-sites", 8, "--pairs", "all_pairs",
                "--out", tmp_path / "all")
        trace = exports.load_trace(tmp_path / "all" / "trace.json")
        assert sorted(calls) == [idx for idx, _ in trace.snapshots]
        monkeypatch.undo()
        run_cli("run", "--experiment", "ghz", "--n-sites", 8, "--out", tmp_path / "nn")
        assert (tmp_path / "all" / "block_report.json").read_bytes() == \
            (tmp_path / "nn" / "block_report.json").read_bytes()

    def test_determinism_byte_identical(self, tmp_path):
        run_cli("run", "--experiment", "ghz", "--n-sites", 8, "--pgm",
                "--out", tmp_path / "a")
        run_cli("run", "--experiment", "ghz", "--n-sites", 8, "--pgm",
                "--out", tmp_path / "b")
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name


_STATE = {"propagate", "ghz", "pi3"}
#: Each option of `run` that only some experiments read, with those experiments.
_OPTION_READERS = [
    (["--psi", "0,1"], {"propagate"}),
    (["--seed-site", "2"], {"pi3"}),
    (["--steps", "2"], {"pi3", "topology"}),
    (["--thickness", "2"], {"topology"}),
    (["--controlled-simplification"], {"topology"}),
    (["--no-controlled-simplification"], {"topology"}),
    (["--pairs", "all_pairs"], _STATE),
    (["--include-boundary"], _STATE),
    (["--pgm"], _STATE),
    (["--no-snapshots"], _STATE),
]
#: The flag an error names, where it is not the option given.
_REPORTED_FLAG = {"--no-controlled-simplification": "--controlled-simplification"}


class TestRunOptions:
    @pytest.mark.parametrize("experiment", ["propagate", "ghz", "pi3", "topology"])
    @pytest.mark.parametrize("option, readers", _OPTION_READERS,
                             ids=[o[0] for o, _ in _OPTION_READERS])
    def test_unread_option_exit_2(self, tmp_path, capsys, experiment, option, readers):
        seed = ["--seed-site", "2"] if experiment == "pi3" else []
        code = run_cli("run", "--experiment", experiment, "--n-sites", 4, *seed, *option,
                       "--out", tmp_path / "o")
        err = capsys.readouterr().err
        if experiment in readers:
            assert code == 0, err
        else:
            assert code == 2
            flag = _REPORTED_FLAG.get(option[0], option[0])
            assert err == f"error: {flag} is not read by the {experiment} experiment\n"
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment", sorted(_STATE))
    def test_no_snapshots_without_trace_exit_2(self, tmp_path, capsys, experiment):
        seed = ["--seed-site", "2"] if experiment == "pi3" else []
        code = run_cli("run", "--experiment", experiment, "--n-sites", 4, *seed,
                       "--no-save-trace", "--no-snapshots", "--out", tmp_path / "o")
        assert code == 2
        assert capsys.readouterr().err == (f"error: --no-snapshots is not read by the "
                                           f"{experiment} experiment with --no-save-trace\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["--experiment", "pi3", "--seed-site", 2, "--steps"],
        ["--experiment", "topology", "--steps"],
        ["--experiment", "topology", "--thickness"],  # runs max(thickness, 4) steps
    ], ids=["pi3", "topology", "topology-thickness"])
    def test_steps_cap_is_inclusive(self, tmp_path, capsys, monkeypatch, argv):
        assert cli.MAX_STEPS >= qca.MAX_QUBITS  # pi3 runs N steps by default
        monkeypatch.setattr(cli, "MAX_STEPS", 5)
        assert run_cli("run", "--n-sites", 4, *argv, 5, "--out", tmp_path / "a") == 0
        capsys.readouterr()
        assert run_cli("run", "--n-sites", 4, *argv, 6, "--out", tmp_path / "b") == 2
        assert capsys.readouterr().err == "error: more than 5 global steps\n"
        assert not (tmp_path / "b").exists()

    def test_misspecified_ghz_exit_2(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "ghz", "--n-sites", 4, "--psi", "nan,0",
                       "--seed-site", 99, "--out", tmp_path / "o")
        assert code == 2
        assert "fidelity" not in capsys.readouterr().out

    @pytest.mark.parametrize("experiment, defaults", [
        ("propagate", ["--psi", "1,0", "--pairs", "nearest_neighbor"]),
        ("topology", ["--thickness", "4", "--controlled-simplification"]),
    ])
    def test_defaults_when_not_given(self, tmp_path, experiment, defaults):
        run_cli("run", "--experiment", experiment, "--n-sites", 6, "--out", tmp_path / "a")
        run_cli("run", "--experiment", experiment, "--n-sites", 6, *defaults,
                "--out", tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestRunFlow:
    @pytest.mark.parametrize("experiment", ["propagate", "ghz", "pi3", "topology"])
    def test_n_sites_required(self, tmp_path, capsys, experiment):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--experiment", experiment, "--seed-site", 1,
                    "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert "--n-sites" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment", ["propagate", "ghz"])
    def test_low_fidelity_exit_3(self, tmp_path, capsys, monkeypatch, experiment):
        name = f"{experiment}_experiment"
        real = getattr(qca, name)
        monkeypatch.setattr(qca, name, lambda *args: (real(*args)[0], 0.5))
        code = run_cli("run", "--experiment", experiment, "--n-sites", 4, "--pgm",
                       "--out", tmp_path / "o")
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == ("numerical invariant violated: "
                                f"{experiment} fidelity 0.5 below 1 - 1e-9\n")
        assert "fidelity=" not in captured.out
        assert not (tmp_path / "o").exists()

    def test_no_snapshots(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "pi3", "--n-sites", 6, "--seed-site", 3,
                       "--steps", 2, "--no-snapshots", "--out", tmp_path / "r")
        assert code == 0
        obj = json.loads((tmp_path / "r" / "trace.json").read_text())
        assert "snapshots" not in obj and len(obj["layers"]) == 4
        assert (tmp_path / "r" / "entropy.csv").exists()
        code = run_cli("distance-matrix", "--trace", tmp_path / "r" / "trace.json",
                       "--step", 0, "--out", tmp_path / "dm")
        assert code == 2
        assert capsys.readouterr().err == "error: trace has no snapshots\n"
        assert not (tmp_path / "dm").exists()


class TestRunPi3:
    def test_entropy_and_distance_files(self, tmp_path):
        code = run_cli("run", "--experiment", "pi3", "--n-sites", 6,
                       "--seed-site", 1, "--steps", 3, "--pgm",
                       "--out", tmp_path / "d")
        assert code == 0
        out = tmp_path / "d"
        assert (out / "entropy.csv").exists()
        assert (out / "entropy.pgm").exists()
        assert (out / "entropy.scale.json").exists()
        cols, rows, vals = read_matrix_csv(out / "entropy.csv")
        assert len(rows) == 7  # initial + 6 species layers
        assert np.all(vals >= -1e-12)

    @pytest.mark.parametrize("pairs", ["nearest_neighbor", "all_pairs"])
    def test_one_entropy_pass_per_snapshot(self, tmp_path, monkeypatch, pairs):
        calls, real = [], infogeo._reduced_entropies

        def counting(state, groups):
            calls.append(state)
            return real(state, groups)

        monkeypatch.setattr(infogeo, "_reduced_entropies", counting)
        code = run_cli("run", "--experiment", "pi3", "--n-sites", 7, "--seed-site", 3,
                       "--steps", 3, "--pairs", pairs, "--include-boundary",
                       "--out", tmp_path / "d")
        assert code == 0
        monkeypatch.undo()
        trace = exports.load_trace(tmp_path / "d" / "trace.json")
        assert len(calls) == len(trace.snapshots) == 7
        # entropy.csv holds S(q) of every register site, as site_entropies gives it
        expected = exports.matrix_csv(
            trace.config.register_sites, trace.snapshots.layers,
            [list(infogeo.site_entropies(state).values()) for _, state in trace.snapshots],
            corner="layer")
        assert (tmp_path / "d" / "entropy.csv").read_text() == expected

    def test_one_block_plan_per_run(self, tmp_path):
        infogeo._block_plan.cache_clear()
        code = run_cli("run", "--experiment", "pi3", "--n-sites", 8, "--seed-site", 4,
                       "--pairs", "all_pairs", "--out", tmp_path / "d")
        assert code == 0
        info = infogeo._block_plan.cache_info()
        assert (info.misses, info.hits) == (1, 16)  # 17 snapshots

    def test_all_pairs_cells_match_a_per_pair_oracle(self, tmp_path):
        n = 9
        code = run_cli("run", "--experiment", "pi3", "--n-sites", n, "--seed-site", 4,
                       "--steps", 9, "--pairs", "all_pairs", "--include-boundary",
                       "--out", tmp_path / "d")
        assert code == 0
        out = tmp_path / "d"
        snapshots = json.loads((out / "trace.json").read_text())["snapshots"]
        _, layers, entropy = read_matrix_csv(out / "entropy.csv")
        assert layers == [str(s["layer"]) for s in snapshots] and len(layers) == 19
        labels = [str(lab) for lab in range(n + 2)]  # with the boundary at 0 and n+1
        for snap, row in zip(snapshots, entropy):
            amps = np.frombuffer(base64.b64decode(snap["amplitudes_b64"]), dtype="<c16")
            psi = amps.reshape((2,) * n)
            s_site = [oracle_entropy(psi, [p]) for p in range(n)]
            assert all(csv_close(v, s) for v, s in zip(row, s_site))
            cols, rows, values = read_matrix_csv(out / f"distance_step_{snap['layer']:04d}.csv")
            assert cols == rows == labels
            s = [0.0, *s_site, 0.0]  # a boundary ancilla is |0>
            for a in range(n + 2):
                assert values[a, a] == 0.0
                for b in range(a + 1, n + 2):
                    if 0 < a and b <= n:
                        s_ab = oracle_entropy(psi, [a - 1, b - 1])
                    else:
                        s_ab = s[a] + s[b]
                    d = 2.0 * s_ab - s[a] - s[b]
                    assert csv_close(values[a, b], d) and values[b, a] == values[a, b]

    def test_runs_without_vdot(self, tmp_path, monkeypatch):
        # every norm check avoids BLAS zdotc, which OpenBLAS may run threaded
        def no_vdot(*args, **kwargs):
            raise AssertionError("np.vdot called")

        monkeypatch.setattr(np, "vdot", no_vdot)
        code = run_cli("run", "--experiment", "pi3", "--n-sites", 8, "--seed-site", 4,
                       "--pairs", "all_pairs", "--out", tmp_path / "d")
        assert code == 0
        code = run_cli("distance-matrix", "--trace", tmp_path / "d" / "trace.json", "--step", 5,
                       "--out", tmp_path / "dm")
        assert code == 0

    def test_missing_seed_site_exit_2(self, tmp_path):
        code = run_cli("run", "--experiment", "pi3", "--n-sites", 6,
                       "--out", tmp_path / "d")
        assert code == 2

    def test_site_cap(self, tmp_path):
        code = run_cli("run", "--experiment", "pi3", "--n-sites", 17, "--seed-site", 8,
                       "--out", tmp_path / "d17")
        assert code == 2
        assert not (tmp_path / "d17").exists()


def oracle_entropy(psi: np.ndarray, keep: list[int]) -> float:
    """S in bits of `psi` reduced to the axes `keep`: one transpose, one eigvalsh."""
    rest = [p for p in range(psi.ndim) if p not in keep]
    m = np.transpose(psi, keep + rest).reshape(1 << len(keep), -1)
    lam = np.linalg.eigvalsh(m @ m.conj().T)
    lam = lam[lam > 1e-12]
    return float(0.0 - np.sum(lam * np.log2(lam)))


def csv_close(cell: float, expect: float) -> bool:
    """A cell written at 12 significant digits is `expect` to 1e-12 past that rounding."""
    big = max(abs(cell), abs(expect))
    rounding = 0.5 * 10.0 ** (math.floor(math.log10(big)) - 11) if big else 0.0
    return abs(cell - expect) <= 1e-12 + rounding


class TestSweepCommands:
    def test_werner_endpoints_and_crossing(self, tmp_path, capsys):
        code = run_cli("sweep", "--family", "werner", "--samples", 101,
                       "--out", tmp_path / "w")
        assert code == 0
        text = (tmp_path / "w" / "werner.csv").read_text().splitlines()
        assert text[1] == "0,2"
        assert text[-1] == "1,-2"
        crossing = json.loads((tmp_path / "w" / "werner_crossing.json").read_text())
        assert 1 / 3 < crossing["z_star"] < 1
        assert crossing["sign_changes_on_grid"] == 1
        out_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert out_line.startswith("z_star=0.74")

    def test_pure_family(self, tmp_path):
        code = run_cli("sweep", "--family", "pure_family", "--samples", 51,
                       "--out", tmp_path / "f")
        assert code == 0
        lines = (tmp_path / "f" / "pure_family.csv").read_text().splitlines()
        assert lines[1] == "0,0"
        deltas = [float(l.split(",")[1]) for l in lines[2:]]
        assert all(d < -1e-6 for d in deltas)

    @pytest.mark.parametrize("samples", [1, -3, cli.MAX_SAMPLES + 1, 10**12])
    def test_samples_outside_the_range_exit_2(self, tmp_path, capsys, samples):
        code = run_cli("sweep", "--family", "pure_family", "--samples", samples,
                       "--out", tmp_path / "s")
        assert code == 2
        assert capsys.readouterr().err in ("error: need at least 2 samples\n",
                                           f"error: more than {cli.MAX_SAMPLES} samples\n")
        assert list(tmp_path.iterdir()) == []

    def test_samples_cap_is_inclusive(self, tmp_path, monkeypatch):
        assert cli.MAX_SAMPLES >= 5001  # the benchmark's count, and the README's 101
        monkeypatch.setattr(cli, "MAX_SAMPLES", 5)
        assert run_cli("sweep", "--family", "werner", "--samples", 5, "--out", tmp_path / "a") == 0
        assert run_cli("sweep", "--family", "werner", "--samples", 6, "--out", tmp_path / "b") == 2

    def test_run_has_no_sweep_experiments(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--experiment", "werner", "--out", tmp_path / "w2")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'werner'" in err and "Traceback" not in err
        assert not (tmp_path / "w2").exists()


class TestDistanceMatrixCommand:
    def test_ghz_mid_step_blocks(self, tmp_path, capsys):
        run_cli("run", "--experiment", "ghz", "--n-sites", 8, "--out", tmp_path / "g")
        code = run_cli("distance-matrix", "--trace", tmp_path / "g" / "trace.json",
                       "--step", 2, "--seed-site", 4, "--out", tmp_path / "dm")
        assert code == 0
        rep = json.loads((tmp_path / "dm" / "block_report.json").read_text())
        assert rep["pattern_holds"]
        assert rep["cross_min"] >= 1e-6
        assert sorted(rep["regions"][0]) == [2, 3, 4, 5, 6]
        assert (tmp_path / "dm" / "distance_matrix.csv").exists()

    def test_final_state_uniform(self, tmp_path):
        run_cli("run", "--experiment", "ghz", "--n-sites", 8, "--out", tmp_path / "g")
        trace = exports.load_trace(tmp_path / "g" / "trace.json")
        last = len(trace.snapshots) - 1
        code = run_cli("distance-matrix", "--trace", tmp_path / "g" / "trace.json",
                       "--step", last, "--out", tmp_path / "dm2")
        assert code == 0
        rep = json.loads((tmp_path / "dm2" / "block_report.json").read_text())
        assert not rep["pattern_holds"]
        assert len(rep["regions"]) == 1

    def test_step_zero_all_zero_matrix(self, tmp_path):
        run_cli("run", "--experiment", "ghz", "--n-sites", 6, "--out", tmp_path / "g")
        code = run_cli("distance-matrix", "--trace", tmp_path / "g" / "trace.json",
                       "--step", 0, "--out", tmp_path / "dm0")
        assert code == 0
        _, _, vals = read_matrix_csv(tmp_path / "dm0" / "distance_matrix.csv")
        assert np.max(np.abs(vals)) <= 1e-12

    @pytest.mark.parametrize("step", [99, -1])
    def test_bad_step_exit_2(self, tmp_path, step):
        run_cli("run", "--experiment", "ghz", "--n-sites", 4, "--out", tmp_path / "g")
        code = run_cli("distance-matrix", "--trace", tmp_path / "g" / "trace.json",
                       "--step", step, "--out", tmp_path / "dm3")
        assert code == 2
        assert not (tmp_path / "dm3").exists()

    def test_corrupt_snapshot_exit_3(self, tmp_path):
        run_cli("run", "--experiment", "ghz", "--n-sites", 4, "--out", tmp_path / "g")
        path = tmp_path / "g" / "trace.json"
        obj = json.loads(path.read_text())
        amps = np.frombuffer(
            __import__("base64").b64decode(obj["snapshots"][1]["amplitudes_b64"]),
            dtype="<c16").copy()
        amps *= 2.0  # break normalization
        obj["snapshots"][1]["amplitudes_b64"] = __import__("base64").b64encode(
            amps.tobytes()).decode()
        path.write_text(json.dumps(obj))
        code = run_cli("distance-matrix", "--trace", path, "--step", 1,
                       "--out", tmp_path / "dm4")
        assert code == 3


    @pytest.mark.parametrize("seed_site", [99, 0])
    def test_seed_site_outside_the_field_exit_2(self, tmp_path, capsys, seed_site):
        run_cli("run", "--experiment", "ghz", "--n-sites", 8, "--out", tmp_path / "g")
        code = run_cli("distance-matrix", "--trace", tmp_path / "g" / "trace.json",
                       "--step", 2, "--seed-site", seed_site, "--out", tmp_path / "dm")
        assert code == 2
        assert f"seed site {seed_site} is not one of the sites" in capsys.readouterr().err
        assert not (tmp_path / "dm").exists()


class TestTopologyCommands:
    def test_run_topology(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "topology", "--n-sites", 6,
                       "--thickness", 4, "--out", tmp_path / "t")
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "t_star=1"
        stable = json.loads((tmp_path / "t" / "stable.json").read_text())
        assert stable["t_star"] == 1
        assert [f["betti"][0] for f in stable["filtration"]] == [1, 1, 1, 1]
        cx = json.loads((tmp_path / "t" / "complex.json").read_text())
        assert len(cx["vertices"]) == 8
        filt = (tmp_path / "t" / "betti_filtration.csv").read_text().splitlines()
        assert filt[0].startswith("thickness,b0")
        assert (tmp_path / "t" / "poset.json").exists()

    def test_run_topology_trace_has_no_snapshots(self, tmp_path):
        run_cli("run", "--experiment", "topology", "--n-sites", 6,
                "--thickness", 4, "--out", tmp_path / "t")
        obj = json.loads((tmp_path / "t" / "trace.json").read_text())
        assert "snapshots" not in obj
        code = run_cli("topology", "--trace", tmp_path / "t" / "trace.json",
                       "--i-max", 4, "--out", tmp_path / "t2")
        assert code == 0
        for name in ("stable.json", "betti_filtration.csv"):
            assert (tmp_path / "t" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()

    def test_topology_from_trace(self, tmp_path):
        run_cli("run", "--experiment", "pi3", "--n-sites", 6, "--seed-site", 3,
                "--steps", 4, "--out", tmp_path / "r")
        code = run_cli("topology", "--trace", tmp_path / "r" / "trace.json",
                       "--slice", 0, "--i-max", 3, "--out", tmp_path / "t2")
        assert code == 0
        stable = json.loads((tmp_path / "t2" / "stable.json").read_text())
        assert stable["t_star"] == 1

    def test_unsimplified_flag(self, tmp_path):
        run_cli("run", "--experiment", "topology", "--n-sites", 4,
                "--thickness", 3, "--no-controlled-simplification",
                "--out", tmp_path / "t3")
        cx = json.loads((tmp_path / "t3" / "complex.json").read_text())
        assert [0, 1, 2] in cx["maximal_simplices"]

    def test_thickness7_filtration(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "topology", "--n-sites", 14,
                       "--thickness", 7, "--no-save-trace", "--out", tmp_path / "t7")
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "t_star=1"
        rows = (tmp_path / "t7" / "betti_filtration.csv").read_text().splitlines()
        assert rows[0] == ",".join(["thickness", *[f"b{k}" for k in range(15)]])
        assert rows[1:] == [",".join([str(t), "1", *["0"] * 14]) for t in range(1, 8)]


class TestReducedStatePasses:
    """How many reduced-state passes (`infogeo._reduced_entropies` calls) each command takes."""

    @staticmethod
    def count_passes(*argv) -> int:
        with mock.patch.object(infogeo, "_reduced_entropies",
                               wraps=infogeo._reduced_entropies) as spy:
            assert run_cli(*argv) == 0
        return spy.call_count

    @pytest.mark.parametrize("argv, passes", [
        (("pi3", "--seed-site", 4), 17),
        (("pi3", "--seed-site", 4, "--pairs", "all_pairs"), 17),
        (("propagate",), 10),
        (("ghz", "--pairs", "all_pairs"), 6),
        # one all-pairs pass per snapshot serves both the written field, masked to
        # neighbours or with the virtual labels, and the register-only block reports
        (("ghz",), 6),
        (("ghz", "--pairs", "all_pairs", "--include-boundary"), 6),
    ], ids=["pi3", "pi3-all-pairs", "propagate", "ghz-all-pairs", "ghz", "ghz-boundary"])
    def test_run_takes_one_pass_per_snapshot(self, tmp_path, argv, passes):
        experiment, *options = argv
        assert self.count_passes("run", "--experiment", experiment, "--n-sites", 8, *options,
                                 "--out", tmp_path / "o") == passes

    def test_distance_matrix_takes_one_pass(self, tmp_path, pi3_trace):
        assert self.count_passes("distance-matrix", "--trace", pi3_trace, "--step", 3,
                                 "--out", tmp_path / "d") == 1

    def test_topology_and_sweep_take_none(self, tmp_path, pi3_trace):
        assert self.count_passes("topology", "--trace", pi3_trace, "--out", tmp_path / "t") == 0
        assert self.count_passes("sweep", "--family", "werner", "--out", tmp_path / "s") == 0


class TestTraceInputErrors:
    def test_missing_trace_exit_2(self, tmp_path, capsys):
        code = run_cli("topology", "--trace", tmp_path / "missing.json",
                       "--out", tmp_path / "t")
        assert code == 2
        assert "cannot read trace" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_format_only_trace_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"format": "qcageom-trace-v2"}))
        code = run_cli("topology", "--trace", path, "--out", tmp_path / "t")
        assert code == 2
        assert "missing key 'config'" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_fractional_layer_index_exit_2(self, tmp_path, capsys):
        run_cli("run", "--experiment", "pi3", "--n-sites", 6, "--seed-site", 3,
                "--steps", 2, "--out", tmp_path / "r")
        path = tmp_path / "r" / "trace.json"
        obj = json.loads(path.read_text())
        obj["layers"][0]["index"] = 1.5
        path.write_text(json.dumps(obj))
        code = run_cli("topology", "--trace", path, "--out", tmp_path / "t")
        assert code == 2
        assert "layer index 1.5" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_moved_gate_exit_2(self, tmp_path, capsys):
        run_cli("run", "--experiment", "topology", "--n-sites", 14, "--thickness", 7,
                "--out", tmp_path / "r")
        path = tmp_path / "r" / "trace.json"
        obj = json.loads(path.read_text())
        gate = obj["layers"][0]["gates"][1]
        assert gate == {"target": 3, "controls": [2, 4], "kind": "rule"}
        gate.update(target=4, controls=[3, 5])  # every field in range, on an A site
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        code = run_cli("topology", "--trace", path, "--out", tmp_path / "t")
        assert code == 2
        assert capsys.readouterr().err == ("error: malformed trace: layer 1 is not the B layer "
                                           "that qca writes for this config\n")
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("entry", [math.inf, 1e308])
    def test_bad_rule_matrix_exit_2(self, tmp_path, capsys, entry):
        run_cli("run", "--experiment", "topology", "--n-sites", 4, "--thickness", 2,
                "--out", tmp_path / "t")
        path = tmp_path / "t" / "trace.json"
        obj = json.loads(path.read_text())
        obj["config"]["rule"]["unitaries"][1][0] = [entry, 0.0]
        path.write_text(json.dumps(obj))
        code = run_cli("topology", "--trace", path, "--out", tmp_path / "t2")
        assert code == 2
        assert capsys.readouterr().err == "error: u1 is not a 2x2 unitary within 1e-10\n"
        assert not (tmp_path / "t2").exists()

    @pytest.mark.parametrize("text", [
        "[]", "{", '{"format": "qcageom-trace-v1", "config": 3}',
        '{"format": "qcageom-trace-v2", "config": 3}',
    ])
    def test_malformed_trace_exit_2(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = run_cli("distance-matrix", "--trace", path, "--step", 0,
                       "--out", tmp_path / "dm")
        assert code == 2
        assert not (tmp_path / "dm").exists()

    @pytest.mark.parametrize("command", [("topology",), ("distance-matrix", "--step", 0)],
                             ids=["topology", "distance-matrix"])
    @pytest.mark.parametrize("text, message", [
        ("[" * 200_000, "malformed trace: JSON nested too deeply to parse"),
        # the older layout, which held the boundary ancillae: read by no command
        ('{"format": "qcageom-trace-v1", "labels": [0, 1, 2, 3]}',
         "not a qcageom trace file: format 'qcageom-trace-v1', expected 'qcageom-trace-v2'"),
    ], ids=["deeply-nested", "v1"])
    def test_unreadable_trace_exit_2(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = run_cli(*command, "--trace", path, "--out", tmp_path / "o")
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def pi3_trace(tmp_path_factory) -> Path:
    """A pi3 N=6 trace with 7 snapshots; tests write mangled copies of it."""
    out = tmp_path_factory.mktemp("pi3")
    assert run_cli("run", "--experiment", "pi3", "--n-sites", 6, "--seed-site", 3,
                   "--steps", 3, "--out", out) == 0
    return out / "trace.json"


def _mangled_copy(src: Path, dst: Path, snapshot: int, mangle) -> Path:
    obj = json.loads(src.read_text())
    snap = obj["snapshots"][snapshot]
    snap["amplitudes_b64"] = mangle(snap["amplitudes_b64"])
    dst.write_text(json.dumps(obj))
    return dst


def _doubled_norm(text: str) -> str:
    amps = np.frombuffer(base64.b64decode(text), dtype="<c16") * 2.0
    return base64.b64encode(amps.astype("<c16").tobytes()).decode()


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))}


class TestSnapshotReads:
    """Which snapshot checks run when the trace is loaded, and which when a snapshot is read."""

    @pytest.mark.parametrize("mangle", [lambda t: t[:-4], lambda t: None, lambda t: 12],
                             ids=["truncated", "null", "number"])
    @pytest.mark.parametrize("command", [
        ("topology", "--i-max", 3),
        ("distance-matrix", "--step", 0),
    ], ids=["topology", "distance-matrix"])
    def test_bad_text_exit_2_at_load(self, tmp_path, capsys, pi3_trace, mangle, command):
        bad = _mangled_copy(pi3_trace, tmp_path / "bad.json", 4, mangle)
        code = run_cli(*command, "--trace", bad, "--out", tmp_path / "o")
        assert code == 2
        assert "snapshot at layer 4" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_broken_norm_fails_only_where_read(self, tmp_path, capsys, pi3_trace):
        bad = _mangled_copy(pi3_trace, tmp_path / "bad.json", 4, _doubled_norm)
        code = run_cli("distance-matrix", "--trace", bad, "--step", 4, "--out", tmp_path / "d4")
        assert code == 3
        assert "norm^2" in capsys.readouterr().err
        assert not (tmp_path / "d4").exists()
        for trace, out in ((bad, "d3"), (pi3_trace, "c3")):
            assert run_cli("distance-matrix", "--trace", trace, "--step", 3,
                           "--out", tmp_path / out) == 0
        assert _tree_bytes(tmp_path / "d3") == _tree_bytes(tmp_path / "c3")
        for trace, out in ((bad, "t"), (pi3_trace, "ct")):
            assert run_cli("topology", "--trace", trace, "--i-max", 3,
                           "--out", tmp_path / out) == 0
        assert _tree_bytes(tmp_path / "t") == _tree_bytes(tmp_path / "ct")

    @pytest.fixture
    def decodes(self, monkeypatch) -> list:
        """The layer of each snapshot decoded, in order."""
        seen, reading = [], []
        getitem, decode = tracereader._EncodedSnapshots.__getitem__, tracereader._snapshot_from_b64

        def read(snapshots, i):  # texts may repeat, so the read names the layer
            reading[:] = [snapshots.layers[i]]
            return getitem(snapshots, i)

        def spy(text, config):
            seen.append(reading.pop())  # a decode outside a read fails here
            return decode(text, config)

        monkeypatch.setattr(tracereader._EncodedSnapshots, "__getitem__", read)
        monkeypatch.setattr(tracereader, "_snapshot_from_b64", spy)
        return seen

    def test_topology_decodes_no_snapshot(self, tmp_path, pi3_trace, decodes):
        assert run_cli("topology", "--trace", pi3_trace, "--out", tmp_path / "t") == 0
        assert decodes == []

    def test_distance_matrix_decodes_one_snapshot(self, tmp_path, pi3_trace, decodes):
        assert run_cli("distance-matrix", "--trace", pi3_trace, "--step", 5,
                       "--out", tmp_path / "d") == 0
        assert decodes == [5]

    def test_reads_decode_what_they_return(self, pi3_trace, decodes):
        trace = exports.load_trace(pi3_trace)
        assert decodes == []
        trace.snapshot_at_layer(4)
        assert decodes == [4]
        decodes.clear()
        assert [idx for idx, _ in trace.snapshots] == list(range(7))
        assert decodes == list(range(7))


#: The README's `run` option table: each option's values, in range and out of it
#: (None for a flag), and the experiments that read it.
_RUN_TABLE = {
    "--psi": (st.sampled_from(["1,0", "1,1i", "0.6,0.8i", "0,0", "nan,0", "1", "x,y"]),
              {"propagate"}),
    "--seed-site": (st.integers(-1, 10), {"pi3"}),
    "--steps": (st.integers(-1, 5), {"pi3", "topology"}),
    "--thickness": (st.integers(-1, 9), {"topology"}),
    "--controlled-simplification": (None, {"topology"}),
    "--no-controlled-simplification": (None, {"topology"}),
    "--pairs": (st.sampled_from(["nearest_neighbor", "all_pairs", "some_pairs"]), _STATE),
    "--include-boundary": (None, _STATE),
    "--pgm": (None, _STATE),
    "--no-snapshots": (None, _STATE),
    "--no-save-trace": (None, _STATE | {"topology"}),
}
#: The same for the two trace commands, which read every option they have.
_TRACE_TABLE = {
    "distance-matrix": {"--step": st.integers(-2, 8), "--seed-site": st.integers(-1, 8),
                        "--include-boundary": None},
    "topology": {"--slice": st.integers(-2, 9), "--i-max": st.integers(-2, 6),
                 "--controlled-simplification": None, "--no-controlled-simplification": None},
}


def _draw_options(draw, options: dict) -> list:
    """Each of `options` given or not, with a value drawn from its strategy."""
    argv = []
    for option, values in options.items():
        if draw(st.booleans(), label=option):
            argv += [option] if values is None else [option, draw(values, label=option)]
    return argv


@st.composite
def _run_argv(draw) -> list:
    experiment = draw(st.sampled_from(["propagate", "ghz", "pi3", "topology"]))
    n_sites = draw(st.sampled_from([*range(-1, 9), 17, "x"]))
    stray = draw(st.booleans(), label="options the experiment does not read")
    offered = {o: v for o, (v, readers) in _RUN_TABLE.items() if stray or experiment in readers}
    return ["run", "--experiment", experiment, "--n-sites", n_sites,
            *_draw_options(draw, offered)]


@st.composite
def _trace_argv(draw, trace: Path) -> list:
    command = draw(st.sampled_from(sorted(_TRACE_TABLE)))
    options = dict(_TRACE_TABLE[command])
    argv = [command, "--trace", trace]
    if command == "distance-matrix":  # its one required option
        argv += ["--step", draw(options.pop("--step"))]
    return argv + _draw_options(draw, options)


def _check_exit(argv: list) -> None:
    """Run the CLI with `--out` in a fresh directory: exit 0, 2 or 3, no traceback,
    and an out dir exactly when the command succeeded."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = Path(tmp) / "o", io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = run_cli(*argv, "--out", out)
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert out.exists() == (code == 0), (argv, code, err.getvalue())


class TestCliProperty:
    """Drawn argv: every command ends with a documented exit code and no traceback."""

    @settings(deadline=None, max_examples=40)
    @given(_run_argv())
    def test_run(self, argv):
        _check_exit(argv)

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_trace_commands(self, pi3_trace, data):
        _check_exit(data.draw(_trace_argv(pi3_trace)))


class TestOutputs:
    def test_partial_json_discarded(self, tmp_path):
        out = _Outputs(tmp_path / "o")
        with pytest.raises(TypeError):
            out.write_json("x.json", {"a": list(range(100)), "b": object()})
        # the partial file sits under a temporary name, never under the final one
        assert [p.name for p in (tmp_path / "o").iterdir()] == [".x.json.tmp"]
        out.discard()
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_out_is_a_file_exit_2(self, tmp_path, capsys, under):
        path = tmp_path / "file"
        path.write_text("kept")
        code = run_cli("sweep", "--family", "pure_family", "--samples", 3,
                       "--out", path / "sub" if under else path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno ")
        assert path.read_text() == "kept"

    def test_failing_writer_leaves_nothing(self, tmp_path):
        out = _Outputs(tmp_path / "o")
        out.write_text("kept.csv", "x\n")
        seen = []

        def writer(path):
            seen.append(path.name)
            assert not (tmp_path / "o" / "x.csv").exists()
            path.write_text("partial")
            raise OSError("disk full")

        with pytest.raises(OSError):
            out.write("x.csv", writer)
        assert seen == [".x.csv.tmp"]
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [".kept.csv.tmp", ".x.csv.tmp"]
        out.discard()
        assert not (tmp_path / "o").exists()

    def test_failed_trace_write_exit_2(self, tmp_path, capsys, monkeypatch):
        def half_written(path, trace):
            path.write_text('{"config": ')
            raise OSError("disk full")

        monkeypatch.setattr(exports, "save_trace", half_written)
        code = run_cli("run", "--experiment", "ghz", "--n-sites", 4, "--out", tmp_path / "g")
        assert code == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--experiment", "pi3", "--n-sites", 6, "--seed-site", 3, "--steps", 2],
        ["--experiment", "pi3", "--n-sites", 6, "--seed-site", 3, "--steps", 2,
         "--no-snapshots"],
        ["--experiment", "topology", "--n-sites", 6, "--thickness", 2],
        ["--experiment", "propagate", "--n-sites", 6, "--psi", "0.6+0.2i,0.3-0.7i"],
        ["--experiment", "ghz", "--n-sites", 6],
    ], ids=["pi3", "pi3-no-snapshots", "topology", "propagate", "ghz"])
    def test_saved_trace_resaves_byte_for_byte(self, tmp_path, argv):
        assert run_cli("run", *argv, "--out", tmp_path / "r") == 0
        original = tmp_path / "r" / "trace.json"
        exports.save_trace(tmp_path / "again.json", exports.load_trace(original))
        assert (tmp_path / "again.json").read_bytes() == original.read_bytes()

    def test_discard_removes_created_parents(self, tmp_path):
        code = run_cli("run", "--experiment", "propagate", "--n-sites", 4, "--psi", "nan,0",
                       "--out", tmp_path / "fd" / "a" / "b" / "c")
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_discard_keeps_existing_dirs(self, tmp_path):
        (tmp_path / "fd" / "a").mkdir(parents=True)
        for out in (tmp_path / "fd" / "a", tmp_path / "fd" / "a" / "b" / "c"):
            code = run_cli("run", "--experiment", "propagate", "--n-sites", 4,
                           "--psi", "nan,0", "--out", out)
            assert code == 2
            assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*")] == \
                [Path("fd"), Path("fd/a")]

    def test_unmakeable_out_leaves_no_parent(self, tmp_path, capsys):
        code = run_cli("sweep", "--family", "pure_family", "--samples", 3,
                       "--out", tmp_path / "new" / ("x" * 300))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_a_file_with_an_output_name(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "trace.json").mkdir(parents=True)
        (out / "distance_step_0000.csv").write_bytes(b"data\n")
        code = run_cli("run", "--experiment", "ghz", "--n-sites", 4, "--out", out)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno ")
        assert sorted(p.name for p in out.iterdir()) == ["distance_step_0000.csv", "trace.json"]
        assert (out / "distance_step_0000.csv").read_bytes() == b"data\n"
        assert list((out / "trace.json").iterdir()) == []

    @staticmethod
    def fail_at_third_csv(monkeypatch, exc: BaseException) -> None:
        calls = []
        write = exports.distance_field_csv

        def failing(field):
            calls.append(field)
            if len(calls) == 3:
                raise exc
            return write(field)

        monkeypatch.setattr(exports, "distance_field_csv", failing)

    def test_interrupt_leaves_no_out_dir(self, tmp_path, monkeypatch):
        self.fail_at_third_csv(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run_cli("run", "--experiment", "pi3", "--n-sites", 6, "--seed-site", 3,
                    "--out", tmp_path / "p")
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        self.fail_at_third_csv(monkeypatch, MemoryError())
        code = run_cli("run", "--experiment", "pi3", "--n-sites", 6, "--seed-site", 3,
                       "--out", tmp_path / "p")
        assert code == 2
        assert capsys.readouterr() == ("", "error: out of memory\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_exit_2(self, tmp_path, capsys):
        (tmp_path / "w" / "werner_crossing.json").mkdir(parents=True)
        code = run_cli("sweep", "--family", "werner", "--samples", 3, "--out", tmp_path / "w")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno ")
        assert [p.name for p in (tmp_path / "w").iterdir()] == ["werner_crossing.json"]


def readme_cli_commands() -> list[list[str]]:
    """Argument lists of the `qcageom ...` lines in README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qcageom ")]


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    commands = readme_cli_commands()
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)  # the examples write under out/
    for argv in commands:
        assert main(argv) == 0, " ".join(argv)
