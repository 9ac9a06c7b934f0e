"""Run the numpy-free commands of the digest manifest and check their outputs.

`tests/test_outputs.py` pins every output of its COMMANDS by sha256 in
`tests/data/outputs.sha256`.  Four of them need no numpy: `topology`,
`topology_deep`, `werner` and `pure_family`, the sweeps without --pgm.
This script runs those four through `python -m qcageom` with site-packages
switched off (`-S`), so a command that imported numpy would fail, and
compares each written file and each stdout with the manifest.  It uses
only the standard library, so it runs on any supported Python with no
packages installed.  Run from the repository root:

    python tests/numpy_free_outputs.py
"""
from __future__ import annotations

import ast
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "outputs.sha256"
NUMPY_FREE = ("topology", "topology_deep", "werner", "pure_family")


def manifest_commands() -> dict[str, list[str]]:
    """COMMANDS of tests/test_outputs.py, read from its source, which imports numpy."""
    tree = ast.parse((ROOT / "tests" / "test_outputs.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["COMMANDS"]:
            return dict(ast.literal_eval(node.value))
    raise LookupError("no COMMANDS in tests/test_outputs.py")


def main() -> int:
    first, *lines = MANIFEST.read_text().splitlines()
    expected = {name: digest for digest, name in (ln.split("  ", 1) for ln in lines)}
    commands = manifest_commands()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    problems, checked = [], 0
    with tempfile.TemporaryDirectory() as root:
        for name in NUMPY_FREE:
            args = [a for a in commands[name] if a != "--pgm"]
            done = subprocess.run([sys.executable, "-S", "-m", "qcageom", *args,
                                   "--out", str(Path(root) / name)],
                                  capture_output=True, env=env)
            if done.returncode != 0:
                problems.append(f"{name} exited with {done.returncode}: "
                                f"{done.stderr.decode(errors='replace').strip()}")
                continue
            got = {f"{name}/stdout": hashlib.sha256(done.stdout).hexdigest()}
            for path in (Path(root) / name).iterdir():
                got[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
            wanted = {k for k in expected if k.startswith(f"{name}/")
                      and not k.endswith((".pgm", ".scale.json"))}
            problems += [f"missing: {k}" for k in sorted(wanted - got.keys())]
            for key in sorted(got):
                if key not in expected:
                    problems.append(f"not in the manifest: {key}")
                elif got[key] != expected[key]:
                    problems.append(f"changed: {key}")
                else:
                    checked += 1
    print(f"{checked} digests match ({first.removeprefix('# ')}; "
          f"this run uses python {sys.version.split()[0]})")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
