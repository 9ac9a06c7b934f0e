"""qcageom benchmark: run a workload as real CLI processes, check the outputs, print metrics.

    python3 perfbench/run.py --workload diffusion|topology|analysis \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The program is run from the
checkout's own ``src/`` (put first on ``PYTHONPATH``), without installing,
one command after another (a closed loop with one client), for about S
seconds after set-up.  The BLAS thread variables are passed through as
found and recorded, not set.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` each workload run is made twice, untraced and then
traced by ``perfbench.traced_cli``, and the per-layer metrics are
reported, with the traced-minus-untraced wall time as the overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric with its unit, the sample counts and the provenance.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, workloads  # noqa: E402

#: Set-up builds of the analysis trace per benchmark run; setup_s is their median.
SETUP_REPEATS = 3
#: Every benchmark run ends within this time; a command still running then is killed.
HARD_LIMIT_S = 165.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "out_bytes": "B",
    "ok_frac": "ratio",
}
TIMINGS = ("setup_s", "wall_s", "cpu_s")
#: Per-layer metrics that are exact counts and must repeat between traced runs.
EXACT_COUNTS = tuple(n for n, unit in layers.PER_LAYER.items() if unit in ("count", "B"))


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or set-up failed)."""


@dataclass
class Child:
    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str


@dataclass
class Iteration:
    children: list[Child]
    wall_s: float
    out_bytes: int
    problems: list[str]
    digests: dict[str, str] = field(default_factory=dict)
    layer_metrics: dict | None = None
    trace_report: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Starts CLI processes from the checkout and measures each with wait4."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        pythonpath = [str(root / "src")]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self._n = 0

    def run(self, argv: list[str]) -> Child:
        self._n += 1
        log = self.work / f"stdout_{self._n}.txt"
        start = time.perf_counter()
        with open(log, "w") as fh:
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL, env=self.env, cwd=self.root)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        stdout = log.read_text(errors="replace")
        log.unlink()
        return Child(argv, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss, stdout)

    def qcageom(self, cli_args: list[str]) -> Child:
        return self.run([sys.executable, "-m", "qcageom", *cli_args])

    def traced(self, cli_args: list[str], metrics_json: Path) -> Child:
        return self.run([sys.executable, "-m", "perfbench.traced_cli", str(metrics_json),
                         *cli_args])


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def tree_digests(path: Path) -> dict[str, str]:
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


class Bench:
    def __init__(self, workload: str, inp: workloads.Inputs, runner: Runner, work: Path):
        self.workload, self.inp, self.runner, self.work = workload, inp, runner, work
        self.trace = work / "setup" / "trace.json"
        self.expect = None
        self._n = 0

    def setup(self, repeats: int) -> list[float]:
        """Build the analysis input trace `repeats` times; keep the last one."""
        walls = []
        for _ in range(repeats):
            shutil.rmtree(self.work / "setup", ignore_errors=True)
            child = self.runner.qcageom(workloads.setup_command(self.inp, self.work / "setup"))
            if child.code != 0 or not self.trace.is_file():
                raise BenchError(f"set-up failed with exit code {child.code}:\n{child.stdout}")
            walls.append(child.wall_s)
        if self.workload == "analysis":
            self.expect = workloads.analysis_expect(self.inp, self.trace)
        return walls

    def iteration(self, traced: bool, keep_digests: bool = False) -> Iteration:
        self._n += 1
        out = self.work / f"run_{self._n}"
        cmds = workloads.commands(self.workload, self.inp, self.trace, out)
        children, reports = [], []
        start = time.perf_counter()
        for i, cli_args in enumerate(cmds):
            if traced:
                metrics_json = self.work / f"layers_{self._n}_{i}.json"
                child = self.runner.traced(cli_args, metrics_json)
                if child.code == 0:
                    reports.append(json.loads(metrics_json.read_text()))
                    metrics_json.unlink()
            else:
                child = self.runner.qcageom(cli_args)
            children.append(child)
            if child.code != 0:
                break
        wall = time.perf_counter() - start
        it = Iteration(children, wall, tree_bytes(out) if out.exists() else 0, [],
                       trace_report=reports)
        failed = [c for c in children if c.code != 0]
        if failed:
            it.problems.append(f"exit code {failed[0].code}: {' '.join(failed[0].argv)}\n"
                               f"{failed[0].stdout[-2000:]}")
        else:
            it.problems += self.check(out, len(cmds), [c.stdout for c in children])
        if traced and not failed:
            it.layer_metrics = layers.workload_metrics([r["metrics"] for r in reports])
            it.layer_metrics["exports.trace_bytes"] = sum(
                p.stat().st_size for p in out.rglob("trace*") if p.is_file())
        if keep_digests and out.exists():
            it.digests = tree_digests(out)
        shutil.rmtree(out, ignore_errors=True)
        return it

    def check(self, out: Path, n_cmds: int, stdouts: list[str]) -> list[str]:
        outs = [out / str(i) for i in range(n_cmds)]
        try:
            if self.workload == "diffusion":
                return workloads.check_diffusion(self.inp, outs, stdouts)
            if self.workload == "topology":
                return workloads.check_topology(self.inp, outs, stdouts)
            return workloads.check_analysis(self.inp, outs, stdouts, self.expect)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"output check could not read the outputs: {exc!r}"]


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(len(ordered) * p / 100)  # nearest-rank percentile
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def provenance(root: Path, seed: int) -> dict:
    import numpy as np

    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((root / "src" / "qcageom").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "loadavg_before": list(os.getloadavg()),
    }


def measure(bench: Bench, seconds: float, traced_pairs: bool, deadline: float) -> list[Iteration]:
    """Closed loop: start the next workload run when the previous one is checked.

    A run is not started when, at the mean duration so far, it would end
    after `seconds`, so a benchmark run takes about `seconds` plus set-up.
    """
    its: list[Iteration] = []
    durations: list[float] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        if traced_pairs:
            plain = bench.iteration(traced=False, keep_digests=True)
            traced = bench.iteration(traced=True, keep_digests=True)
            if plain.ok and traced.ok and plain.digests != traced.digests:
                traced.problems.append("traced outputs differ from untraced outputs")
            its += [plain, traced]
        else:
            its.append(bench.iteration(traced=False))
        now = time.monotonic()
        durations.append(now - t0)
        if (now - start + statistics.mean(durations) > seconds
                or now + max(durations) > deadline):
            return its


def end_to_end(setup_walls: list[float], its: list[Iteration]) -> tuple[dict, dict]:
    good = [it for it in its if it.ok] or its
    samples = {
        "setup_s": setup_walls,
        "wall_s": [it.wall_s for it in good],
        "cpu_s": [sum(c.cpu_s for c in it.children) for it in good],
    }
    values = {name: statistics.median(s) for name, s in samples.items()}
    values["peak_rss_mb"] = max(c.maxrss_kb for it in its for c in it.children) / 1024
    values["out_bytes"] = statistics.median(it.out_bytes for it in good)
    values["ok_frac"] = sum(it.ok for it in its) / len(its)
    return values, samples


def per_layer(its: list[Iteration]) -> tuple[dict, list[str]]:
    pairs = [(its[i], its[i + 1]) for i in range(0, len(its) - 1, 2)]
    traced = [t.layer_metrics for _, t in pairs if t.layer_metrics is not None]
    problems = []
    if not traced:
        return {name: 0 for name in layers.PER_LAYER}, ["no traced run succeeded"]
    for name in EXACT_COUNTS:
        seen = {m[name] for m in traced}
        if len(seen) > 1:
            problems.append(f"{name} did not repeat across traced runs: {sorted(seen)}")
    values = {name: traced[0][name] if name in EXACT_COUNTS
              else statistics.median(m[name] for m in traced) for name in layers.PER_LAYER}
    values["trace.overhead_s"] = statistics.median(
        t.wall_s - p.wall_s for p, t in pairs if t.layer_metrics is not None)
    return values, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qcageom" / "__init__.py").is_file():
        print(f"error: no qcageom sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prov = provenance(ROOT, args.seed)
        inp = workloads.make_inputs(args.seed)
        bench = Bench(args.workload, inp, Runner(ROOT, work, deadline), work)
        setup_walls = bench.setup(1 if args.trace else SETUP_REPEATS)
        its = measure(bench, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other benchmark run is using it
    prov["loadavg_after"] = list(os.getloadavg())

    failed = sum(not it.ok for it in its)
    problems = [p for it in its for p in it.problems]
    report: dict = {"workload": args.workload, "trace": args.trace, "provenance": prov,
                    "inputs": {"seed_site": inp.seed_site, "later_step": inp.later_step}}
    if args.trace:
        metrics, count_problems = per_layer(its)
        if count_problems:
            failed = max(failed, 1)
            problems += count_problems
        units = layers.PER_LAYER
        absent = sorted({n for it in its for r in it.trace_report for n in r["absent"]})
        broken = sorted({n for it in its for r in it.trace_report for n in r["broken_hooks"]})
        report.update(absent_names=absent, broken_hooks=broken)
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
    else:
        metrics, samples = end_to_end(setup_walls, its)
        units = END_TO_END
        for name, value in metrics.items():
            line = f"{name} = {value:.6g} {units[name]}"
            if name in TIMINGS:
                tail = tail_percentile(samples[name])
                tail_text = (f"p{tail[0]:g} {tail[1]:.6g}" if tail
                             else "no percentile has 10 samples beyond it")
                line += f" (median of {len(samples[name])}; {tail_text})"
                report.setdefault("samples", {})[name] = samples[name]
            print(line)
        print(f"failed_frac = {failed / len(its):.6g} ({failed} of {len(its)} runs)")
    report["problems"] = problems
    for problem in problems:
        print(f"FAILED: {problem}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(its),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
