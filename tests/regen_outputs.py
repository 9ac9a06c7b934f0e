"""Rewrite tests/data/outputs.sha256 from the outputs of the current tree.

Run from the repository root: `PYTHONPATH=src python -m tests.regen_outputs`.
"""
from tests.test_outputs import write_manifest

if __name__ == "__main__":
    write_manifest()
