"""Run one qcageom CLI command with spans around every layer's public functions.

    python3 -m perfbench.traced_cli METRICS_JSON qcageom-args...

The command runs exactly as ``python3 -m qcageom qcageom-args...`` would,
writes the same outputs and returns the same exit code.  Its per-layer
metrics are then written to METRICS_JSON.  ``qcageom`` must be importable
(the benchmark puts the checkout's ``src`` first on ``PYTHONPATH``).
"""
from __future__ import annotations

import importlib
import json
import sys
import time

from perfbench import layers, spans


def traced_main(cli_args: list[str]) -> tuple[int, dict]:
    """Run the CLI in this process under tracing; return its exit code and metrics."""
    t0 = time.perf_counter()
    modules = {layer: importlib.import_module(f"qcageom.{layer}") for layer in layers.LAYERS}
    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    installation = spans.install(tracer, modules, layers.EXPECTED, layers.HOOKS)
    try:
        code = modules["cli"].main(cli_args)
    finally:
        installation.restore()
    metrics = layers.command_metrics(spans.summarize(tracer.spans), tracer.counts)
    metrics["cli.import_s"] = import_s
    return code, {
        "metrics": metrics,
        "absent": installation.absent,
        "broken_hooks": sorted(tracer.broken_hooks),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    code, report = traced_main(argv[1:])
    with open(argv[0], "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
