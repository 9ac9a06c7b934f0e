"""Shared helpers for the trace-format tests."""
from __future__ import annotations

import base64

import numpy as np
import pytest

from qcageom.qca import KET0


def _as_v1(obj: dict, left=KET0, right=KET0) -> dict:
    """A v2 trace object in the v1 format: every snapshot as |left>, psi, |right>."""
    n = obj["config"]["n_sites"]
    out = dict(obj, format="qcageom-trace-v1", labels=list(range(n + 2)))
    out["snapshots"] = []
    for snap in obj["snapshots"]:
        amps = np.frombuffer(base64.b64decode(snap["amplitudes_b64"]), dtype="<c16")
        wide = np.kron(np.kron(left, amps), right).astype("<c16")
        out["snapshots"].append(
            {"layer": snap["layer"], "amplitudes_b64": base64.b64encode(wide.tobytes()).decode()})
    return out


@pytest.fixture(scope="session")  # a pure function: hypothesis tests may share it
def as_v1():
    return _as_v1
