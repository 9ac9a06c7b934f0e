"""1D block-partitioned QCA engine with virtual boundary ancillae.

A register of N sites (labels 1..N) sits between two ancilla qubits at
positions 0 and N+1 that are pinned to |0> and never targeted.  Sites are
split into two species by parity; one global update applies the rule to
every B site, then to every A site.  Each site update is a
multiply-controlled unitary: the single-qubit operator u_c acts on the
site, with c = 2*(left neighbor bit) + (right neighbor bit).
The ancillae carry no information, so states hold only the register;
the boundary stays in `QcaConfig.labels`, the wires of the causal poset.
A gate record lists the target's register neighbors as its controls, and
one kernel applies every record: a neighbor that is not a control reads
as bit 0, so site 1 applies u0/u1 by its right bit and site N u0/u2 by
its left bit; a phase correction has no controls, so it applies u0.  One
builder, `_layers`, makes the layer records of every run, `(B A)* [B]
[phase]`, and the trace reader rebuilds them with it.  One loop,
`_evolve`, applies those records through the kernel, taking each layer's
rule from its species, so the causal poset is built from the gates that
were applied, and no gate calls BLAS.

Rules, configs, records, traces and `run(..., snapshots=False)` need no
numpy: numpy and `statealg` are imported by the functions that build,
evolve or measure a state, so the topology commands load neither.

`Record`, defined here with the tolerance and error that every module
shares, is the base of every record class of the package: the records
here, the states of `statealg`, the poset nodes of `causal`, the
complexes of `topo` and the fields of `infogeo`.  Each record class
gets one `__init__`, compiled when the class is made, whose parameters
are its fields.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .statealg import StateVector

# The register cap, the tolerance and error of every numerical invariant,
# and the entropy floor: defined here, where no numpy is loaded, and
# re-bound by `statealg`.
MAX_QUBITS = 16
ATOL = 1e-10
# Eigenvalues in [-ATOL, ENTROPY_FLOOR] are treated as exact zeros when
# evaluating entropies; anything below -ATOL is a genuine violation.
ENTROPY_FLOOR = 1e-12


class InvariantError(ValueError):
    """A state or operator violates one of its numerical invariants."""


class Record:
    """An immutable record whose fields are the annotations of its class body.

    `class Wire(Record)` with `site: int` and `layer: int` gets a compiled
    `__init__(self, site, layer)`, so Python binds its arguments; a value
    after a field's annotation is its default.  A field list that is not a
    parameter list is a TypeError when the class is made.  `__post_init__`,
    where the class body defines one, runs after the fields are set and may
    reset them with `object.__setattr__`; any other assignment or deletion
    is an AttributeError.  `repr` is `Wire(site=1, layer=0)`.

    Records of one class are equal when their fields are, and hash as the
    tuple of their fields, taken once, when the record is built; `class
    R(Record, eq=False)` keeps identity instead.  A class body that
    defines `__init__` is a TypeError when the class is made.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            raise TypeError(f"{cls.__qualname__}: a record's __init__ is made from its fields; "
                            "define __post_init__ instead")
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls.__init__ = _record_init(cls, eq)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with `changes` to some fields; `__post_init__` runs on it."""
        return self.__class__(**{f: getattr(self, f) for f in self._fields} | changes)


def _record_init(cls: type, eq: bool):
    """The `__init__` of a record class, compiled from its fields."""
    fields, name, post_init = cls._fields, cls.__qualname__, cls.__dict__.get("__post_init__")
    if not all(isinstance(f, str) and f.isidentifier() for f in fields):
        raise TypeError(f"{name}: the fields {fields} are not all identifiers")
    params = "".join(f", {f}=__defaults[{f!r}]" if f in cls.__dict__ else f", {f}" for f in fields)
    body = [f"__set(self, {f!r}, {f})" for f in fields]
    if post_init is not None:
        body.append("__post_init(self)")
    if eq:  # the fields as `__post_init__` left them
        read = "self." if post_init is not None else ""
        body.append(f"__set(self, '_values', ({''.join(f'{read}{f}, ' for f in fields)}))")
    source = f"def __init__(self{params}):\n    " + "\n    ".join(body or ["pass"])
    # no class-body annotation is named `__*` (it is mangled), so no field hides a helper
    namespace = {"__name__": cls.__module__, "__set": object.__setattr__,
                 "__defaults": cls.__dict__, "__post_init": post_init}
    try:  # a SyntaxError here is a keyword, or a field without a default after one with it
        exec(compile(source, f"<record {cls.__module__}.{name}>", "exec"), namespace)
    except SyntaxError as e:
        raise TypeError(f"{name}: the fields {fields} are not a parameter list ({e.msg})") from None
    namespace["__init__"].__qualname__ = f"{name}.__init__"
    return namespace["__init__"]


#: The amplitudes of the experiments' seed qubits; sqrt(0.5) is 1/sqrt(2)
#: correctly rounded, and seeds are used as given.
KET0 = (1, 0)
KET1 = (0, 1)
KET_PLUS = (math.sqrt(0.5), math.sqrt(0.5))


def __getattr__(name: str):
    if name == "apply_unitary":
        # no gate uses it; reachable because perfbench/tests/test_traced.py
        # checks that a traced run restores `qca.apply_unitary`
        from .statealg import apply_unitary
        return apply_unitary
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: A 2x2 matrix as rows of Python complex numbers.
Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]
IDENTITY_2: Matrix2 = ((1 + 0j, 0j), (0j, 1 + 0j))
# exp(-i*theta*sigma_x) at theta = pi/2 and pi, and exp(-i*theta/2*sigma_z) at
# theta = pi, the final Z rotation of the propagation experiment (its angle is
# calibrated by a fidelity scan, kept as a test).  Written exactly: from
# math.cos and math.sin they carry 1e-16 residues where the entry is 0.
_MINUS_I_X: Matrix2 = ((0j, -1j), (-1j, 0j))
_MINUS_I: Matrix2 = ((-1 + 0j, 0j), (0j, -1 + 0j))
_PROPAGATION_PHASE: Matrix2 = ((-1j, 0j), (0j, 1j))


def x_rotation(theta: float) -> Matrix2:
    """exp(-i*theta*sigma_x).

    Each entry is formed as numpy forms cos(theta)*I - 1j*sin(theta)*X, so
    the two agree bit for bit, signed zeros included.
    """
    c, js = math.cos(theta), 1j * math.sin(theta)
    return ((c * 1 - js * 0, c * 0 - js * 1), (c * 0 - js * 1, c * 1 - js * 0))


def _as_matrix2(u) -> Matrix2 | None:
    """`u` as rows of complex numbers, or None if it is not a 2x2 array of numbers."""
    try:
        rows = tuple(tuple(row) for row in u)
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            return None
        if not all(isinstance(z, numbers.Number) for row in rows for z in row):
            return None
        return tuple(tuple(complex(z) for z in row) for row in rows)
    except (TypeError, ValueError, OverflowError):  # not iterable, or no complex value
        return None


def _is_unitary(u: Matrix2) -> bool:
    """Whether every entry of u^dagger u - I has modulus <= ATOL, as `statealg.is_unitary` asks."""
    # A unitary's entries have modulus <= 1; checking that first keeps
    # huge or non-finite entries out of the product, where they overflow.
    if not all(abs(z) <= 1.0 + ATOL for row in u for z in row):
        return False
    return all(
        abs(u[0][i].conjugate() * u[0][j] + u[1][i].conjugate() * u[1][j]
            - (1.0 if i == j else 0.0)) <= ATOL
        for i in (0, 1) for j in (0, 1)
    )


class UpdateRule(Record):
    """The quadruple (u0, u1, u2, u3) of single-qubit unitaries.

    u_c is applied to a site when its (left, right) neighbors are in the
    computational state with index c = 2*left + right.  Each is given as
    any 2x2 array of numbers and held as rows of Python complex numbers, so
    a rule, and a trace that holds one, needs no numpy.
    """

    u0: Matrix2
    u1: Matrix2
    u2: Matrix2
    u3: Matrix2
    name: str = "rule"

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"rule name {self.name!r} is not a string")
        for i, u in enumerate(self.unitaries):
            u = _as_matrix2(u)
            if u is None or not _is_unitary(u):
                raise ValueError(f"u{i} is not a 2x2 unitary within 1e-10")
            object.__setattr__(self, f"u{i}", u)

    @property
    def unitaries(self) -> tuple[Matrix2, Matrix2, Matrix2, Matrix2]:
        return (self.u0, self.u1, self.u2, self.u3)


def x_pulse_rule(theta: float, name: str | None = None) -> UpdateRule:
    """(1, exp(-i*theta*sx), exp(-i*theta*sx), exp(-i*pi*sx) = -I, the last exactly)."""
    u = x_rotation(theta)
    return UpdateRule(IDENTITY_2, u, u, _MINUS_I, name=name or f"x_pulse(theta={theta:.6g})")


#: Rule used by the propagation and GHZ experiments: `x_pulse_rule(pi/2)`,
#: exactly, so each basis branch of a state stays one basis state.
PULSE_RULE = UpdateRule(IDENTITY_2, _MINUS_I_X, _MINUS_I_X, _MINUS_I, name="pulse")

#: Rule of the entanglement-diffusion experiment.
PI3_RULE = x_pulse_rule(math.pi / 3, name="pi3")


def _integer(value, what: str) -> int:
    """`value` as an int; ValueError unless it is an integer (numpy's are) other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


class QcaConfig(Record):
    """Register geometry, update rule, and species assignment.

    `b_parity` names the parity ("odd" or "even", 1-based sites) that
    forms species B, the one updated first in a global step.  The default
    puts odd sites in B; the propagation experiment needs the flipped
    assignment to shuttle an excitation cleanly off site 1.
    """

    n_sites: int
    rule: UpdateRule
    b_parity: str = "odd"

    def __post_init__(self):
        object.__setattr__(self, "n_sites", _integer(self.n_sites, "n_sites"))
        if self.n_sites < 2:
            raise ValueError("need at least 2 sites")
        if self.n_sites > MAX_QUBITS:
            raise ValueError(f"more than {MAX_QUBITS} sites")
        if self.b_parity not in ("odd", "even"):
            raise ValueError("b_parity must be 'odd' or 'even'")

    @property
    def labels(self) -> tuple[int, ...]:
        """Register sites with the boundary: the wires of the causal poset."""
        return tuple(range(self.n_sites + 2))

    @property
    def boundary_labels(self) -> tuple[int, int]:
        return (0, self.n_sites + 1)

    @property
    def register_sites(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_sites + 1))

    def species_sites(self, species: str) -> tuple[int, ...]:
        b_odd = self.b_parity == "odd"
        return tuple(s for s in self.register_sites
                     if ("B" if (s % 2 == 1) == b_odd else "A") == species)


class GateRecord(Record):
    """One applied gate: target site, causally relevant control sites."""

    target: int
    controls: tuple[int, ...]
    kind: str = "rule"  # "rule" or "phase"


class LayerRecord(Record):
    index: int
    species: str  # "A", "B", or "phase"
    gates: tuple[GateRecord, ...]


class RunTrace(Record, eq=False):
    """Gate records plus state snapshots from one QCA run."""

    config: QcaConfig
    granularity: str
    layers: tuple[LayerRecord, ...]
    #: (layer index, state after that layer), in layer order.  `run` builds
    #: a tuple.  A trace loaded by `tracereader` holds a read-only sequence
    #: that decodes and checks an entry each time it is indexed, sliced (a
    #: slice is a tuple) or iterated, and that names the layers it holds in
    #: its `layers` attribute.  For a file laid out as `save_trace` writes
    #: it, the base64 is read from the file, which stays open while the
    #: sequence lives; for any other layout it is held in memory.
    snapshots: Sequence[tuple[int, StateVector]]

    def snapshot_at_layer(self, layer: int) -> StateVector:
        """The snapshot recorded after `layer`; no other snapshot is decoded."""
        layers = getattr(self.snapshots, "layers", None)
        if layers is None:
            layers = [idx for idx, _ in self.snapshots]
        if layer not in layers:
            raise ValueError(f"no snapshot recorded at layer {layer}")
        return self.snapshots[layers.index(layer)][1]


def _controlled_update(psi: np.ndarray, coef: np.ndarray, gate: GateRecord,
                       out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Write u_{2l+r} applied to `gate.target` of the register amplitudes `psi` into `out`.

    l and r are the bits of the target's left and right neighbors, read
    only where the neighbor is one of `gate.controls`.  A neighbor that is
    not a control is the virtual |0> ancilla: a length-1 axis holding bit
    0.  `coef[s, l, o, r]` is u_{2l+r}[o, s].  `out` and `scratch` are
    2^N buffers that share no memory with `psi` or each other; every
    product is written into them, so a gate makes no temporary, and the
    sums are those of 0.0 + c0 v0 + c1 v1.  Returns `out`, or raises
    InvariantError when norm^2 drifts by more than ATOL or is NaN.
    """
    import numpy as np

    from .statealg import norm2

    t = gate.target
    left = 2 if t - 1 in gate.controls else 1
    right = 2 if t + 1 in gate.controls else 1
    v = psi.reshape(1 << (t - left), left, 2, right, -1)
    c = coef[:, :left, :, :right, None]
    shape = (v.shape[0], left, 2, right, v.shape[-1])
    o, s = out.reshape(shape), scratch.reshape(shape)
    np.multiply(c[0], v[:, :, :1], out=o)
    # + 0.0 turns a zero product's -0.0 into +0.0, as a matrix product writes it
    np.add(o, 0.0, out=o)
    np.add(o, np.multiply(c[1], v[:, :, 1:], out=s), out=o)
    norm = norm2(out)
    if not abs(norm - 1.0) <= ATOL:  # NaN fails too
        raise InvariantError(f"unitary application drifted norm^2 to {norm!r}")
    return out


def unit_qubit(amps) -> np.ndarray:
    """Two finite amplitudes, not both zero, scaled to unit norm.

    They are first scaled by a power of two, which is exact, so <v|v> can
    neither overflow nor underflow; on moderate input the result is
    bitwise v / sqrt(<v|v>).  Raises ValueError for any other input.
    """
    import numpy as np

    v = np.array(amps, dtype=complex).reshape(-1)
    if v.size != 2:
        raise ValueError("a qubit state needs exactly two amplitudes")
    if not np.all(np.isfinite(v)):
        raise ValueError("qubit amplitudes must be finite")
    scale = float(np.max(np.abs(v.view(float))))
    if scale == 0.0:
        raise ValueError("qubit state must be nonzero")
    v = np.ldexp(v.view(float), -math.frexp(scale)[1]).view(complex)
    return v / math.sqrt(float(np.vdot(v, v).real))


def initial_state(config: QcaConfig, seeds: dict[int, np.ndarray] | None = None) -> StateVector:
    """All-|0> register with optional single-site seeds, each a unit vector."""
    from .statealg import product_state

    seeds = {_integer(site, "seed site"): qubit for site, qubit in (seeds or {}).items()}
    for site in seeds:
        if site not in config.register_sites:
            raise ValueError(f"cannot seed non-register site {site}")
    qubits = [seeds.get(site, KET0) for site in config.register_sites]
    return product_state(qubits, config.register_sites)


def _layers(config: QcaConfig, n_rule: int,
            phase_site: int | None = None) -> tuple[LayerRecord, ...]:
    """The layers of a run: `n_rule` rule layers, B first, then a phase gate on `phase_site`.

    A rule layer's gates run in ascending site order, which the trace
    format pins.  Same-species gates commute (controls act diagonally, and
    no gate targets another's control), so that order does not change the
    state.  A rule gate's controls are its register neighbors; the phase
    gate has none, so the kernel applies its u0.
    """
    n = config.n_sites
    gates = {s: tuple(GateRecord(t, tuple(c for c in (t - 1, t + 1) if 1 <= c <= n))
                      for t in config.species_sites(s)) for s in "BA"}
    layers = [LayerRecord(index, s, gates[s])
              for index, s in enumerate(("BA" * n_rule)[:n_rule], start=1)]
    if phase_site is not None:
        layers.append(LayerRecord(n_rule + 1, "phase", (GateRecord(phase_site, (), "phase"),)))
    return tuple(layers)


def _snapshot_layers(layers: tuple[LayerRecord, ...], record: str) -> list[int]:
    """Where `_evolve` snapshots: at 0, then each layer, or each A layer if "per_global_step"."""
    return [0] + [l.index for l in layers if record == "per_species_layer" or l.species == "A"]


def _evolve(config: QcaConfig, state: StateVector, layers: tuple[LayerRecord, ...],
            record: str = "per_species_layer", phase=None) -> RunTrace:
    """Apply `layers` to `state`; record them, and snapshots.

    A layer's rule follows from its species: the config's rule for A and
    B, and for a phase layer the correction `phase`, a 2x2 unitary, which
    is checked here.  Gates write alternately into two buffers made once
    per run, by a count over the run: a layer may have an odd number of
    gates, and no gate may write the buffer it reads.  Only a recorded
    layer becomes a StateVector.
    """
    import numpy as np

    from .statealg import StateVector

    rules = {"A": config.rule, "B": config.rule}
    if phase is not None:
        rules["phase"] = UpdateRule(phase, phase, phase, phase, name="phase")
    coefs = {species: np.array(rule.unitaries).reshape(2, 2, 2, 2).transpose(3, 0, 2, 1)
             for species, rule in rules.items()}
    kept = set(_snapshot_layers(layers, record))
    snapshots: list[tuple[int, StateVector]] = [(0, state)]
    psi = state.amplitudes
    buffers = (np.empty_like(psi), np.empty_like(psi))
    scratch = np.empty_like(psi)
    applied = 0
    for layer in layers:
        coef = coefs[layer.species]
        for gate in layer.gates:
            psi = _controlled_update(psi, coef, gate, buffers[applied % 2], scratch)
            applied += 1
        if layer.index in kept:
            snapshots.append((layer.index, StateVector(psi, state.labels)))
    return RunTrace(config=config, granularity=record, layers=layers, snapshots=tuple(snapshots))


def run(
    config: QcaConfig,
    global_steps: int,
    initial: StateVector | None = None,
    record: str = "per_species_layer",
    snapshots: bool = True,
) -> RunTrace:
    """Evolve for `global_steps` B+A rounds, recording gates and snapshots.

    With `snapshots=False` no state is built or evolved: the trace holds the
    same layer records, all that its causal poset is built from, and no
    snapshots.  An `initial` state is then an error.
    """
    if _integer(global_steps, "global_steps") < 0:
        raise ValueError("global_steps must be >= 0")
    if record not in ("per_species_layer", "per_global_step"):
        raise ValueError(f"unknown record granularity {record!r}")
    layers = _layers(config, 2 * global_steps)
    if not snapshots:
        if initial is not None:
            raise ValueError("an initial state is evolved only with snapshots=True")
        return RunTrace(config=config, granularity=record, layers=layers, snapshots=())
    state = initial if initial is not None else initial_state(config)
    if state.labels != config.register_sites:
        raise ValueError("initial state labels do not match the register")
    return _evolve(config, state, layers, record)


def propagate_experiment(n_sites: int, psi: np.ndarray) -> tuple[RunTrace, float]:
    """Transport an unknown single-qubit state from site 1 to site N.

    Runs the pulse rule for N/2 global updates with even sites as species
    B, then applies the calibrated Z rotation to site N.  `psi` is
    normalized by `unit_qubit`.  Returns the trace and the fidelity of
    site N's reduced state with `psi`.
    """
    from .statealg import partial_trace

    if n_sites % 2 != 0:
        raise ValueError("propagation requires an even number of sites")
    config = QcaConfig(n_sites=n_sites, rule=PULSE_RULE, b_parity="even")
    psi = unit_qubit(psi)
    layers = _layers(config, n_sites, phase_site=n_sites)
    trace = _evolve(config, initial_state(config, {1: psi}), layers, phase=_PROPAGATION_PHASE)
    final = trace.snapshots[-1][1]
    rho_n = partial_trace(final, {n_sites}).matrix
    fid = float((psi.conj() @ rho_n @ psi).real)
    return trace, fid


def ghz_seed_site(n_sites: int) -> int:
    """The site `ghz_experiment` seeds with |+>: N/2 if N mod 4 = 0, else N/2 + 1."""
    return n_sites // 2 if n_sites % 4 == 0 else n_sites // 2 + 1


def ghz_experiment(n_sites: int) -> tuple[RunTrace, float]:
    """Grow an N-qubit GHZ state from one |+> seed.

    Seeds `ghz_seed_site(N)` and runs N/2 rule layers, B first: N/4 global
    updates when N mod 4 = 0, and (N-2)/4 plus one B layer when N mod 4 =
    2.  A single-qubit phase correction exp(s*i*pi/4*sigma_z) on the
    seeded site then lands on the GHZ state exactly; s = (-1)^b, where b =
    ceil(N/4) is the number of B layers, each of which flips the
    accumulated phase parity.
    """
    import numpy as np

    if n_sites % 2 != 0 or n_sites < 4:
        raise ValueError("GHZ generation requires even N >= 4")
    config = QcaConfig(n_sites=n_sites, rule=PULSE_RULE, b_parity="odd")
    seed_site = ghz_seed_site(n_sites)
    sign = (-1) ** ((n_sites // 2 + 1) // 2)
    correction = np.diag([np.exp(sign * 1j * math.pi / 4), np.exp(-sign * 1j * math.pi / 4)])
    layers = _layers(config, n_sites // 2, phase_site=seed_site)
    trace = _evolve(config, initial_state(config, {seed_site: KET_PLUS}), layers,
                    phase=correction)
    # the target holds 1/sqrt(2) at |0...0> and |1...1> only
    amps = trace.snapshots[-1][1].amplitudes
    return trace, float(abs(amps[0] + amps[-1]) ** 2 / 2)


def pi3_experiment(
    n_sites: int,
    seed_site: int,
    global_steps: int | None = None,
    record: str = "per_species_layer",
) -> RunTrace:
    """Entanglement diffusion: the pi/3 rule on a single |+> seed."""
    config = QcaConfig(n_sites=n_sites, rule=PI3_RULE, b_parity="odd")
    seed_site = _integer(seed_site, "seed site")
    if not 1 <= seed_site <= n_sites:
        raise ValueError(f"seed site {seed_site} out of range")
    steps = n_sites if global_steps is None else global_steps
    return run(config, steps, initial_state(config, {seed_site: KET_PLUS}), record)

