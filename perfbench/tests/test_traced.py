"""Traced runs against untraced ones, and the output checks, at N=8.

The benchmark itself runs N=14; these tests use the same commands on a
smaller register so that they take seconds.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, run, traced_cli, workloads
from qcageom import cli, infogeo, qca, statealg

N_SITES = 8
SEED = 3


def digests(path: Path) -> dict[str, str]:
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def run_workload(workload, inp, trace, out, traced):
    """Run a workload's commands in this process; return stdouts and per-command metrics."""
    stdouts, metrics = [], []
    for args in workloads.commands(workload, inp, trace, out):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if traced:
                code, report = traced_cli.traced_main(args)
                assert report["absent"] == [] and report["broken_hooks"] == []
                metrics.append(report["metrics"])
            else:
                code = cli.main(args)
        assert code == 0
        stdouts.append(buf.getvalue())
    return stdouts, metrics


@pytest.fixture(scope="module")
def inp():
    return workloads.make_inputs(SEED, n_sites=N_SITES)


@pytest.fixture(scope="module")
def trace(inp, tmp_path_factory):
    out = tmp_path_factory.mktemp("setup")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(workloads.setup_command(inp, out)) == 0
    return out / "trace.json"


def test_inputs_follow_the_seed():
    assert workloads.make_inputs(5) == workloads.make_inputs(5)
    seeds = {workloads.make_inputs(s).seed_site for s in range(40)}
    assert seeds <= set(range(2, 14)) and len(seeds) > 5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_repeat_counts_and_write_identical_outputs(workload, inp, trace, tmp_path):
    plain_out = tmp_path / "plain"
    stdouts, _ = run_workload(workload, inp, trace, plain_out, traced=False)
    totals = []
    for k in range(2):
        out = tmp_path / f"traced{k}"
        traced_stdouts, per_command = run_workload(workload, inp, trace, out, traced=True)
        assert traced_stdouts == stdouts
        assert digests(out) == digests(plain_out)
        totals.append(layers.workload_metrics(per_command))
    for name in run.EXACT_COUNTS:
        assert totals[0][name] == totals[1][name], name
    # The originals are back once the traced run ends.
    assert infogeo.partial_trace is statealg.partial_trace
    assert not hasattr(qca.apply_unitary, "__wrapped_by_perfbench__")
    expected = {
        "diffusion": {"qca.gates": N_SITES * N_SITES, "infogeo.pairs": 28 * (2 * N_SITES + 1),
                      "topo.faces": 0, "cli.commands": 1},
        "topology": {"qca.gates": N_SITES * workloads.TOPOLOGY_THICKNESS,
                     "infogeo.pairs": 0, "cli.commands": 1},
        "analysis": {"qca.gates": 0, "infogeo.pairs": 2 * 28, "cli.commands": 4,
                     "infogeo.sweep_points": workloads.SWEEP_SAMPLES},
    }[workload]
    assert {k: totals[0][k] for k in expected} == expected
    if workload != "diffusion":
        assert totals[0]["topo.faces"] > totals[0]["topo.maximal_simplices"] > 0


def check(workload, inp, trace, out, stdouts):
    outs = [out / str(i) for i in range(len(stdouts))]
    if workload == "analysis":
        return workloads.check_analysis(inp, outs, stdouts, workloads.analysis_expect(inp, trace))
    return getattr(workloads, f"check_{workload}")(inp, outs, stdouts)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_on_real_outputs_and_catch_a_wrong_value(workload, inp, trace, tmp_path):
    stdouts, _ = run_workload(workload, inp, trace, tmp_path, traced=False)
    assert check(workload, inp, trace, tmp_path, stdouts) == []
    if workload == "topology":
        victim = tmp_path / "0" / "betti_filtration.csv"
        lines = victim.read_text().splitlines()
        lines[-1] = lines[-1][:-1] + "1"
        victim.write_text("\n".join(lines) + "\n")
    else:
        layer, a, b = inp.samples[0]
        name = f"0/distance_step_{layer:04d}.csv" if workload == "diffusion" else "2/distance_matrix.csv"
        victim = tmp_path / name
        cols, rows, values = workloads.read_matrix_csv(victim)
        values[a - 1, b - 1] += 1e-6
        values[b - 1, a - 1] += 1e-6
        lines = [",".join(["label", *cols])]
        lines += [",".join([r, *(repr(float(v)) for v in row)]) for r, row in zip(rows, values)]
        victim.write_text("\n".join(lines) + "\n")
    assert check(workload, inp, trace, tmp_path, stdouts) != []


def test_recomputation_matches_the_program(inp, trace):
    labels, snaps = workloads.load_snapshots(trace)
    state = statealg.StateVector(snaps[inp.later_step].copy(), tuple(labels))
    field = infogeo.distance_field(state, pairs="all_pairs", boundary_labels=(0, N_SITES + 1))
    mine = workloads.all_pairs_distances(snaps[inp.later_step], labels,
                                         list(range(1, N_SITES + 1)))
    assert np.abs(field.values - mine).max() < workloads.RECOMPUTE_TOL
    for z in (0.0, 0.3, workloads.Z_STAR, 1.0):
        rho = infogeo.werner_state(z)
        a, b = rho.labels
        assert workloads.werner_delta(z) == pytest.approx(
            infogeo.info_distance(rho, {a}, {b}), abs=1e-12)


def test_benchmark_json_names_every_metric_the_benchmark_prints():
    spec = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


def test_a_name_the_program_no_longer_has_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.setattr(layers, "EXPECTED", [*layers.EXPECTED, "topo.renamed_away"])
    with contextlib.redirect_stdout(io.StringIO()):
        code, report = traced_cli.traced_main(
            ["sweep", "--family", "werner", "--samples", "11", "--out", str(tmp_path)])
    assert code == 0
    assert report["absent"] == ["topo.renamed_away"]
    assert report["metrics"]["infogeo.sweep_points"] == 11
