"""The benchmark's workloads: the qcageom commands they run and the checks on their outputs.

Checks use invariants and independent recomputation with plain numpy from
the files the program wrote, never stored reference bytes, so a change that
reorders floating-point work still passes when its results are right.
"""
from __future__ import annotations

import base64
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Werner null crossing z* (the acceptance gate's value), and the tolerance
#: the CLI's bisection promises.
Z_STAR = 0.74761383
Z_STAR_TOL = 1e-7
#: Agreement required between a written value and its numpy recomputation.
RECOMPUTE_TOL = 1e-10
#: A written entropy or distance within this of 0 counts as zero.
ZERO_TOL = 1e-10
SWEEP_SAMPLES = 5001
#: Thickness 6 takes ~9 s a run, so a run of the benchmark holds only 2-4
#: samples, and its run-to-run spread ranged from 0.17 to 0.34 on a shared host.
#: Thickness 5 (~1.7 s, ~17 samples a run) halved that spread, measured
#: interleaved with it, while topo.betti still dominates.
TOPOLOGY_THICKNESS = 5
SAMPLED_PAIRS = 8


@dataclass(frozen=True)
class Inputs:
    """Everything a workload run depends on, derived from the seed."""

    seed: int
    n_sites: int
    seed_site: int   # pi3 seed site of the diffusion run, and of the analysis trace
    later_step: int  # analysis: snapshot for the second distance matrix
    samples: tuple[tuple[int, int, int], ...]  # diffusion: (layer, a, b) pairs to recompute

    @property
    def steps(self) -> int:
        return self.n_sites


def make_inputs(seed: int, n_sites: int = 14) -> Inputs:
    rng = random.Random(seed)
    seed_site = rng.randint(2, n_sites - 1)
    layers = 2 * n_sites  # one snapshot per species layer, plus layer 0
    later_step = rng.randint(1, layers)
    samples = []
    for _ in range(SAMPLED_PAIRS):
        a, b = sorted(rng.sample(range(1, n_sites + 1), 2))
        samples.append((rng.randint(1, layers), a, b))
    return Inputs(seed, n_sites, seed_site, later_step, tuple(samples))


def setup_command(inp: Inputs, out: Path) -> list[str]:
    """The analysis input: a pi3 trace with nearest-neighbour fields."""
    return ["run", "--experiment", "pi3", "--n-sites", str(inp.n_sites),
            "--seed-site", str(inp.seed_site), "--steps", str(inp.steps),
            "--out", str(out)]


def commands(workload: str, inp: Inputs, trace: Path, out: Path) -> list[list[str]]:
    """CLI argument lists of one workload run; command i writes under out/i."""
    if workload == "diffusion":
        return [["run", "--experiment", "pi3", "--n-sites", str(inp.n_sites),
                 "--seed-site", str(inp.seed_site), "--steps", str(inp.steps),
                 "--pairs", "all_pairs", "--out", str(out / "0")]]
    if workload == "topology":
        return [["run", "--experiment", "topology", "--n-sites", str(inp.n_sites),
                 "--thickness", str(TOPOLOGY_THICKNESS), "--out", str(out / "0")]]
    if workload == "analysis":
        return [
            ["sweep", "--family", "werner", "--samples", str(SWEEP_SAMPLES),
             "--out", str(out / "0")],
            ["distance-matrix", "--trace", str(trace), "--step", "0", "--out", str(out / "1")],
            ["distance-matrix", "--trace", str(trace), "--step", str(inp.later_step),
             "--out", str(out / "2")],
            ["topology", "--trace", str(trace), "--i-max", "4", "--out", str(out / "3")],
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("diffusion", "topology", "analysis")


# ---------------------------------------------------------------- recomputation

def load_snapshots(trace_json: Path) -> tuple[list[int], dict[int, np.ndarray]]:
    """Register labels and amplitude vectors of a saved trace, read without qcageom."""
    obj = json.loads(Path(trace_json).read_text())
    snaps = {
        s["layer"]: np.frombuffer(base64.b64decode(s["amplitudes_b64"]), dtype="<c16")
        for s in obj["snapshots"]
    }
    return list(obj["labels"]), snaps


def _entropy_bits(rho: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-12]
    return float(-(vals * np.log2(vals)).sum()) if vals.size else 0.0


def _rdm(psi: np.ndarray, labels: list[int], keep: list[int]) -> np.ndarray:
    n = len(labels)
    pos = [labels.index(k) for k in keep]
    rest = [i for i in range(n) if i not in pos]
    m = np.transpose(psi.reshape((2,) * n), pos + rest).reshape(1 << len(pos), -1)
    return m @ m.conj().T


def info_distance(psi: np.ndarray, labels: list[int], a: int, b: int) -> float:
    """2 S(ab) - S(a) - S(b) in bits."""
    return (2 * _entropy_bits(_rdm(psi, labels, [a, b]))
            - _entropy_bits(_rdm(psi, labels, [a])) - _entropy_bits(_rdm(psi, labels, [b])))


def all_pairs_distances(psi: np.ndarray, labels: list[int], sites: list[int]) -> np.ndarray:
    n = len(sites)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = info_distance(psi, labels, sites[i], sites[j])
    return out


def werner_delta(z: float) -> float:
    """Information distance of the Werner state z|Phi+><Phi+| + (1-z) I/4."""
    lams = [(1 + 3 * z) / 4] + [(1 - z) / 4] * 3
    s_ab = -sum(l * math.log2(l) for l in lams if l > 1e-12)
    return 2 * s_ab - 2.0


# ---------------------------------------------------------------- file readers

def read_matrix_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    lines = Path(path).read_text().splitlines()
    cols = lines[0].split(",")[1:]
    rows, data = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append(parts[0])
        data.append([float(p) for p in parts[1:]])
    return cols, rows, np.array(data, dtype=float)


def _stdout_value(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return line[len(key) + 1:].strip()
    return None


# ---------------------------------------------------------------- checks

def _check_field(name: str, values: np.ndarray, n: int) -> list[str]:
    problems = []
    if values.shape != (n, n):
        return [f"{name}: shape {values.shape}, want {(n, n)}"]
    if np.isnan(values).any():
        problems.append(f"{name}: nan entries")
    if np.abs(values - values.T).max() > 1e-12:
        problems.append(f"{name}: not symmetric")
    if np.any(np.diagonal(values) != 0.0):
        problems.append(f"{name}: nonzero diagonal")
    return problems


def check_diffusion(inp: Inputs, outs: list[Path], stdouts: list[str]) -> list[str]:
    out = outs[0]
    n, layers = inp.n_sites, 2 * inp.steps
    problems = []
    fields = {}
    for layer in range(layers + 1):
        _, _, values = read_matrix_csv(out / f"distance_step_{layer:04d}.csv")
        problems += _check_field(f"distance_step_{layer:04d}", values, n)
        fields[layer] = values
    if problems:
        return problems
    if np.abs(fields[0]).max() > ZERO_TOL:
        problems.append("step 0 distances are not all zero")
    cols, rows, ent = read_matrix_csv(out / "entropy.csv")
    sites = [int(c) for c in cols]
    for r, layer in enumerate(int(x) for x in rows):
        for c, s in enumerate(sites):
            if abs(s - inp.seed_site) > layer and abs(ent[r, c]) > ZERO_TOL:
                problems.append(f"entropy of site {s} at layer {layer} outside the light cone")
    labels, snaps = load_snapshots(out / "trace.json")
    for layer, a, b in inp.samples:
        got = fields[layer][a - 1, b - 1]
        want = info_distance(snaps[layer], labels, a, b)
        if abs(got - want) > RECOMPUTE_TOL:
            problems.append(f"d({a},{b}) at layer {layer}: {got!r} != {want!r}")
        s_a = _entropy_bits(_rdm(snaps[layer], labels, [a]))
        if abs(ent[layer, sites.index(a)] - s_a) > RECOMPUTE_TOL:
            problems.append(f"S({a}) at layer {layer} disagrees with recomputation")
    return problems


def _check_topology_outputs(out: Path, stdout: str, rows_expected: int) -> list[str]:
    problems = []
    if _stdout_value(stdout, "t_star") != "1":
        problems.append(f"t_star is {_stdout_value(stdout, 't_star')!r}, want 1")
    lines = (out / "betti_filtration.csv").read_text().splitlines()
    if len(lines) != rows_expected + 1:
        problems.append(f"{len(lines) - 1} filtration rows, want {rows_expected}")
    for ln in lines[1:]:
        betti = [int(x) for x in ln.split(",")[1:]]
        if betti[:1] != [1] or any(betti[1:]):
            problems.append(f"Betti row {ln!r} is not 1,0,...")
    return problems


def check_topology(inp: Inputs, outs: list[Path], stdouts: list[str]) -> list[str]:
    return _check_topology_outputs(outs[0], stdouts[0], TOPOLOGY_THICKNESS)


@dataclass(frozen=True)
class AnalysisExpect:
    """Distance matrices recomputed once per benchmark run from the set-up trace."""

    step0: np.ndarray
    later: np.ndarray


def analysis_expect(inp: Inputs, trace: Path) -> AnalysisExpect:
    labels, snaps = load_snapshots(trace)
    sites = list(range(1, inp.n_sites + 1))
    return AnalysisExpect(all_pairs_distances(snaps[0], labels, sites),
                          all_pairs_distances(snaps[inp.later_step], labels, sites))


def check_analysis(inp: Inputs, outs: list[Path], stdouts: list[str],
                   expect: AnalysisExpect) -> list[str]:
    problems = []
    z = _stdout_value(stdouts[0], "z_star")
    if z is None or abs(float(z) - Z_STAR) > Z_STAR_TOL:
        problems.append(f"printed z_star={z!r}, want {Z_STAR} within {Z_STAR_TOL}")
    crossing = json.loads((outs[0] / "werner_crossing.json").read_text())
    if abs(crossing["z_star"] - Z_STAR) > Z_STAR_TOL:
        problems.append(f"werner_crossing.json z_star={crossing['z_star']!r}")
    sweep = (outs[0] / "werner.csv").read_text().splitlines()[1:]
    if len(sweep) != SWEEP_SAMPLES:
        problems.append(f"werner.csv has {len(sweep)} rows, want {SWEEP_SAMPLES}")
    for line in sweep[::SWEEP_SAMPLES // 10]:
        z_s, d_s = line.split(",")
        if abs(float(d_s) - werner_delta(float(z_s))) > RECOMPUTE_TOL:
            problems.append(f"werner delta at z={z_s} disagrees with the closed form")
    for out, want in ((outs[1], expect.step0), (outs[2], expect.later)):
        _, _, got = read_matrix_csv(out / "distance_matrix.csv")
        problems += _check_field(f"{out.name}/distance_matrix.csv", got, inp.n_sites)
        if got.shape == want.shape and np.abs(got - want).max() > RECOMPUTE_TOL:
            problems.append(f"{out.name}/distance_matrix.csv disagrees with recomputation")
    problems += _check_topology_outputs(outs[3], stdouts[3], 4)
    return problems
