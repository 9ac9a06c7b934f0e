"""Block-partitioned QCA simulation, causal posets, slice topology, and
information-distance geometry.

The names below are loaded on first use (PEP 562), so `import qcageom`
imports no numpy. That lets `python -m qcageom` set the BLAS thread count
in `__main__` before numpy is first imported.
"""
import importlib

__version__ = "0.1.0"

#: Each name the package exports, with the module that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "DensityMatrix",
        "InvariantError",
        "StateVector",
        "apply_unitary",
        "basis_state",
        "partial_trace",
        "ppt_separable_2q",
        "product_state",
        "von_neumann_entropy",
    ), "statealg"),
    **dict.fromkeys((
        "DistanceField",
        "SweepCurve",
        "block_structure_report",
        "distance_field",
        "info_distance",
        "pure_family_sweep",
        "site_entropies",
        "werner_null_crossing",
        "werner_state",
        "werner_sweep",
    ), "infogeo"),
    **dict.fromkeys((
        "PI3_RULE",
        "PULSE_RULE",
        "QcaConfig",
        "RunTrace",
        "UpdateRule",
        "ghz_experiment",
        "initial_state",
        "pi3_experiment",
        "propagate_experiment",
        "run",
        "x_pulse_rule",
    ), "qca"),
    **dict.fromkeys((
        "AntiChain",
        "CausalPoset",
        "Gate",
        "ThickenedAntiChain",
        "Wire",
        "build_poset",
        "slice_antichain",
        "thicken",
    ), "causal"),
    **dict.fromkeys((
        "SimplicialComplex",
        "betti",
        "boundary_rank",
        "shadow_complex",
        "stable_complex",
        "unitary_shadow_complex",
    ), "topo"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # The defining modules stay reachable as attributes, as when they were
    # imported eagerly; importing one sets it on the package.
    if name in _EXPORTS.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
