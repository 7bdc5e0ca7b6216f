"""Single-particle optical networks and the nested Mach-Zehnder preset.

A network is an ordered sequence of beam splitters, phase shifts, and
time-slice markers on a fixed set of modes (wires).  A beam splitter on
modes (a, b) with power transmissivity t applies

    [ sqrt(t)      i sqrt(1-t) ]
    [ i sqrt(1-t)  sqrt(t)     ]

(the reflected amplitude picks up a phase i; every derived number in the
test suite depends on this convention).  Slices label the occupied wires
with arm names at a given instant, which is where arm projectors, two-state
vectors, and pointer couplings live.

Weak traces follow the environment picture: every labeled arm carries a
weak coupling exp(-i g Pi_arm (x) G) to its own environment at its first
slice, the target arm using the caller's pointer model and the rest
minimal qubit environments.  The trace of an arm is the norm of the
post-selected component in which *that arm's* environment has been
disturbed, normalized by |<out|in>|.  Arms with a nonzero weak value are
disturbed at first order in g; arms whose forward or backward wave
vanishes can only be recorded through a second coupling, so where such a
chain exists their record appears at second order; arms with no amplitude
chain to the post-selection at all keep an exactly undisturbed
environment, and their trace is exactly 0.0.

The traces of every arm come from one forward and one backward pass.  An
environment couples once, at its arm's first slice (the arm's stop), and
is never touched again, so a non-target one is traced out at once: it
multiplies the coherences between its arm's mode and every other mode by
alpha(g) = <m|exp(-i g G)|m>, a dephasing of the n_modes x n_modes mode
density.  The forward pass carries the mode density rho from the source,
the backward pass the post-selection effect W = |out><out| from the
detector through the adjoint steps, each dephasing every arm at its stop
and keeping its state just before that.  Every target sees the same
dephasings before its stop and after it, and a dephasing keeps the
diagonal, so all targets are read together from those states: arm a's
disturbed weight is

    rho[a,a] * W[a,a] * ||(1 - |m><m|) exp(-i g G)|m>||^2,

the last factor being the sum over the ready state's spectral weights w_k
of |s_k - (alpha - 1)|^2, s_k = exp(-i g mu_k) - 1 taken as
-2 sin^2(g mu_k / 2) - i sin(g mu_k) (``qcore.phase_change``), which
involves no subtraction of nearly equal numbers.

The cost of a trace, in numpy calls: every slice is a stop, and each pass
takes five calls per stop after the first, on (g points) x n_modes x
n_modes arrays; the environments' phases, the dephasing factors, the
readout of all A requested arms and the detection probability take a
fixed number more, whatever A is; memory is O(S) such arrays for S
stops.  The facts of the network alone are built once per
``OpticalNetwork``: its slices and arm stops in the constructor's pass
over the steps, and when first read its segment unitaries (one row update
per step) and its undisturbed states at each slice (one product per
segment), which ``propagate``, ``back_propagate`` and
``network_overlap`` read too.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DarkDetectorError, FieldError
from .limits import classify_order, fit_trace_orders
from .pointer import GAUSSIAN_KIND, PointerModel, PointerSpectrum, pointer_spectrum, qubit_pointer
from .qcore import StateVector, finite_couplings, require_finite_phases
from .schedule import fit_schedule
from .tolerances import ORTHOGONAL_OVERLAP_TOL, PAIRING_TOL, TRACE_MIN_PHASE, ZERO_PROBABILITY_FLOOR


@dataclass(frozen=True)
class BeamSplitter:
    mode_a: int
    mode_b: int
    transmissivity: float

    def __post_init__(self):
        if self.mode_a == self.mode_b:
            raise FieldError("beam splitter needs two distinct modes", "mode_b")
        if not 0.0 < self.transmissivity < 1.0:
            raise FieldError(
                "transmissivity must lie strictly between 0 and 1", "transmissivity"
            )

    @property
    def amplitudes(self) -> tuple[float, complex]:
        """(transmitted, reflected) amplitude; the reflection carries the phase i."""
        return math.sqrt(self.transmissivity), 1j * math.sqrt(1.0 - self.transmissivity)


@dataclass(frozen=True)
class PhaseShift:
    mode: int
    phase: float

    def __post_init__(self):
        if not math.isfinite(self.phase):
            raise FieldError("phase must be finite", "phase")


@dataclass(frozen=True)
class TimeSlice:
    """Arm labels for the occupied wires at one instant, as (label, mode) pairs."""

    arms: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.arms]
        modes = [mode for _, mode in self.arms]
        if len(set(labels)) == len(labels) and len(set(modes)) == len(modes):
            return
        for index, (label, mode) in enumerate(self.arms):
            if label in labels[:index]:
                raise FieldError("arm labels must be unique within a slice", "arms", index)
            if mode in modes[:index]:
                raise FieldError("arm modes must be unique within a slice", "arms", index)

    @property
    def arm_map(self) -> dict[str, int]:
        return dict(self.arms)


NetworkStep = BeamSplitter | PhaseShift | TimeSlice


@dataclass(frozen=True)
class OpticalNetwork:
    """A checked network.  Its derived facts are computed once per object
    and shared by every caller, so they are read-only: the slices and the
    arm stops as it is built, the segment unitaries between slices and the
    undisturbed states at each slice when first read."""

    n_modes: int
    steps: tuple[NetworkStep, ...]
    source_mode: int
    detectors: tuple[tuple[str, int], ...]
    postselect_detector: str

    def __post_init__(self):
        if self.n_modes < 2:
            raise FieldError("networks need at least two modes", "n_modes")
        self._check_mode(self.source_mode, "source mode", "source_mode")
        labels = [label for label, _ in self.detectors]
        modes = [mode for _, mode in self.detectors]
        for index, (label, mode) in enumerate(self.detectors):
            if label in labels[:index] or mode in modes[:index]:
                raise FieldError(
                    "detector labels and modes must be unique", "detectors", index
                )
            self._check_mode(mode, "detector mode", "detectors", index)
        if self.postselect_detector not in labels:
            raise FieldError(
                f"post-selection detector {self.postselect_detector!r} is not declared",
                "postselect_detector",
            )
        # one pass over the steps checks their modes and finds the slices
        # and the arm stops; a step with a mode out of range is gone over
        # again, in field order, to report the first such mode
        n, slices, stops = self.n_modes, [], {}
        for index, step in enumerate(self.steps):
            if isinstance(step, BeamSplitter):
                in_range = 0 <= step.mode_a < n and 0 <= step.mode_b < n
            elif isinstance(step, PhaseShift):
                in_range = 0 <= step.mode < n
            elif isinstance(step, TimeSlice):
                in_range = True
                slices.append((index, step))
                for label, mode in step.arms:
                    in_range = in_range and 0 <= mode < n
                    stops.setdefault(label, (index, mode))
            else:
                raise FieldError(f"unknown network step {step!r}", "steps", index)
            if not in_range:
                self._check_step_modes(index, step)
        #: (step position, slice) pairs in time order
        object.__setattr__(self, "slices", tuple(slices))
        #: arm -> (step position, mode) of its first slice, its stop, in order of appearance
        object.__setattr__(self, "arm_stops", types.MappingProxyType(stops))

    def _check_mode(self, mode: int, role: str, *path) -> None:
        if not 0 <= mode < self.n_modes:
            raise FieldError(f"{role} {mode} out of range", *path)

    def _check_step_modes(self, index: int, step: NetworkStep) -> None:
        if isinstance(step, BeamSplitter):
            for field in ("mode_a", "mode_b"):
                self._check_mode(getattr(step, field), "beam splitter mode", "steps", index, field)
        elif isinstance(step, PhaseShift):
            self._check_mode(step.mode, "phase shift mode", "steps", index, "mode")
        else:
            for arm, (_, mode) in enumerate(step.arms):
                self._check_mode(mode, "slice arm mode", "steps", index, "arms", arm)

    @property
    def arm_labels(self) -> tuple[str, ...]:
        return tuple(self.arm_stops)

    @property
    def postselect_mode(self) -> int:
        return dict(self.detectors)[self.postselect_detector]

    @functools.cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray]:
        """(unitaries, adjoints), each (slices + 1, n, n): segment k is the
        product of the steps before slice k and after slice k - 1, the last
        one of those after the last slice.  One pass over the steps applies
        each as an update of the rows it acts on: a beam splitter mixes its
        two rows, a phase shift scales its one."""
        unitaries = np.empty((len(self.slices) + 1, self.n_modes, self.n_modes), np.complex128)
        unitaries[:] = np.eye(self.n_modes)
        segment = 0
        for step in self.steps:
            u = unitaries[segment]
            if isinstance(step, BeamSplitter):
                t, r = step.amplitudes
                # a 2 x 2 product over the rows in mode order sums as the n x n
                # product of step matrices would, roundoff included
                a, b = sorted((step.mode_a, step.mode_b))
                rows = u[a : b + 1 : b - a]
                rows[...] = np.array([[t, r], [r, t]]) @ rows
            elif isinstance(step, PhaseShift):
                u[step.mode] *= np.exp(1j * step.phase)
            else:
                segment += 1
        adjoints = unitaries.conj().transpose(0, 2, 1)
        for array in (unitaries, adjoints):
            array.setflags(write=False)
        return unitaries, adjoints

    @functools.cached_property
    def _states(self) -> np.ndarray:
        """(2, slices + 1, n): [0, k] the source state after segment k;
        [1, k] the post-selection effect before segment k + 1, the effect
        itself at the last k."""
        unitaries, adjoints = self._segments
        states = np.empty((2, len(unitaries), self.n_modes), dtype=np.complex128)
        vec = np.zeros(self.n_modes, dtype=np.complex128)
        vec[self.source_mode] = 1.0
        for k, u in enumerate(unitaries):
            states[0, k] = vec = u @ vec
        states[1, -1] = np.arange(self.n_modes) == self.postselect_mode
        vec = states[1, -1]
        for k in range(len(unitaries) - 1, 0, -1):
            states[1, k - 1] = vec = adjoints[k] @ vec
        states.setflags(write=False)
        return states


def _slice_index(net: OpticalNetwork, slice_index: int) -> int:
    if not 0 <= slice_index < len(net.slices):
        raise ValueError(f"slice index {slice_index} out of range (network has {len(net.slices)})")
    return slice_index


def propagate(net: OpticalNetwork, slice_index: int) -> StateVector:
    """Forward state: the source basis state evolved up to the slice."""
    return StateVector(net._states[0, _slice_index(net, slice_index)])


def back_propagate(net: OpticalNetwork, slice_index: int) -> StateVector:
    """Backward state: the post-selection detector propagated back to the slice."""
    return StateVector(net._states[1, _slice_index(net, slice_index)])


def network_overlap(net: OpticalNetwork) -> complex:
    """<out|in>: the post-selected amplitude of the undisturbed network."""
    return complex(net._states[0, -1, net.postselect_mode])


def detection_probabilities(net: OpticalNetwork) -> dict[str, float]:
    out = net._states[0, -1]
    return {label: float(abs(out[mode]) ** 2) for label, mode in net.detectors}


@dataclass(frozen=True)
class TwoStateVector:
    """Forward and backward amplitudes per arm at one slice."""

    slice_index: int
    forward: tuple[tuple[str, complex], ...]
    backward: tuple[tuple[str, complex], ...]

    def forward_amplitude(self, arm: str) -> complex:
        return dict(self.forward)[arm]

    def backward_amplitude(self, arm: str) -> complex:
        return dict(self.backward)[arm]

    @property
    def pairing(self) -> complex:
        """sum_arm conj(backward) * forward; slice-independent and equal to <out|in>."""
        back = dict(self.backward)
        return complex(
            sum(back[arm].conjugate() * amp for arm, amp in self.forward)
        )


def two_state_vector(net: OpticalNetwork, slice_index: int) -> TwoStateVector:
    ts = net.slices[_slice_index(net, slice_index)][1]
    forward = propagate(net, slice_index).amps
    backward = back_propagate(net, slice_index).amps
    tsv = TwoStateVector(
        slice_index,
        tuple((label, complex(forward[mode])) for label, mode in ts.arms),
        tuple((label, complex(backward[mode])) for label, mode in ts.arms),
    )
    total = complex(np.vdot(backward, forward))
    if abs(tsv.pairing - total) > PAIRING_TOL * max(1.0, abs(total)):
        raise ValueError(
            f"slice {slice_index} arms do not cover the occupied modes: "
            f"arm pairing {tsv.pairing} vs full pairing {total}"
        )
    return tsv


def _unlabeled(arm: str) -> ValueError:
    return ValueError(f"arm {arm!r} is not labeled in any slice")


def _checked_overlap(net: OpticalNetwork, overlap: complex | None = None) -> complex:
    """<out|in>, ``network_overlap`` unless given; a dark detector raises."""
    overlap = network_overlap(net) if overlap is None else overlap
    if abs(overlap) <= ORTHOGONAL_OVERLAP_TOL:
        raise DarkDetectorError(
            f"post-selection detector {net.postselect_detector!r} is dark: "
            f"|<out|in>| = {abs(overlap):.3e}"
        )
    return overlap


def arm_weak_value(net: OpticalNetwork, arm: str) -> complex:
    """(Pi_arm)_w = conj(backward) * forward / <out|in> at the arm's slice."""
    _checked_overlap(net)  # a dark detector is reported before an unlabeled arm
    stops = net.arm_stops
    if arm not in stops:
        raise _unlabeled(arm)
    return slice_weak_values(net, [p for p, _ in net.slices].index(stops[arm][0]))[arm]


def slice_weak_values(net: OpticalNetwork, slice_index: int) -> dict[str, complex]:
    """All arm weak values of one slice; they sum to 1."""
    overlap = _checked_overlap(net)
    tsv = two_state_vector(net, slice_index)
    back = dict(tsv.backward)
    return {
        arm: complex(back[arm].conjugate() * f / overlap) for arm, f in tsv.forward
    }


# ---------------------------------------------------------------------------
# The nested Mach-Zehnder preset.

def build_nested_mzi(
    input_transmissivity: float = 1.0 / 3.0,
    output_transmissivity: float = 1.0 / 3.0,
    phase_a: float = 0.0,
    phase_d: float = 0.0,
    phase_e: float = 0.0,
) -> OpticalNetwork:
    """Nested interferometer on four wires.

    Wire 0 holds the outer arm A from the first splitter to the final one;
    wire 1 carries D into the inner interferometer, B inside it, and E out
    of it; wire 2 carries C inside the inner interferometer and feeds
    detector D3 afterwards; wire 3 is never touched and carries the
    unoccupied probe arm X.  Both inner splitters are balanced: with the
    i-reflection convention two balanced splitters in sequence form an
    exact crossover, which is precisely the tuning that makes the inner
    output toward the recombination (arm E) dark.  Detector D1 on wire 0
    is the post-selection.

    The optional phases sit on arms A, D, and E; they change the preset's
    weak values but never the dark ports, which is what the randomized
    presence tests rely on.
    """
    steps: list[NetworkStep] = [TimeSlice((("SRC", 0),))]
    steps.append(BeamSplitter(0, 1, input_transmissivity))
    if phase_a:
        steps.append(PhaseShift(0, phase_a))
    if phase_d:
        steps.append(PhaseShift(1, phase_d))
    steps.append(TimeSlice((("A", 0), ("D", 1))))
    steps.append(BeamSplitter(1, 2, 0.5))
    steps.append(TimeSlice((("A", 0), ("B", 1), ("C", 2), ("X", 3))))
    steps.append(BeamSplitter(1, 2, 0.5))
    if phase_e:
        steps.append(PhaseShift(1, phase_e))
    steps.append(TimeSlice((("A", 0), ("E", 1))))
    steps.append(BeamSplitter(0, 1, output_transmissivity))
    return OpticalNetwork(
        n_modes=4,
        steps=tuple(steps),
        source_mode=0,
        detectors=(("D1", 0), ("D2", 1), ("D3", 2)),
        postselect_detector="D1",
    )


# ---------------------------------------------------------------------------
# Weak traces: per-arm channels, every arm from one forward and one backward pass.

def trace_phase_fault(model: PointerModel, g_values) -> str | None:
    """Why the weak traces of a ``model`` target at ``g_values`` underflow,
    or None: their smallest coupling phase, |g| min(1, 1 / (2 spread)) on
    the grid and |g| for a qubit, over the nonzero g, is below
    ``TRACE_MIN_PHASE``.  A zero coupling stays exact."""
    phase = float(min((abs(g) for g in g_values if g), default=math.inf))
    if model.kind == GAUSSIAN_KIND:
        phase *= min(1.0, 0.5 / model.spread)
    if phase < TRACE_MIN_PHASE:
        return (f"smallest coupling phase {phase!r} is below {TRACE_MIN_PHASE}: "
                "a second-order weak trace underflows")
    return None


def _alpha_minus_one(spectrum: PointerSpectrum, g: np.ndarray):
    """(s_gk = exp(-i g mu_k) - 1, alpha_g - 1 = sum_k w_k s_gk) per coupling
    strength g, where alpha = <m|exp(-i g G)|m>; no digit is lost to 1 - 1.
    Each phase g mu_k is checked finite first (``require_finite_phases``)."""
    require_finite_phases(1.0, g, float(np.abs(spectrum.basis.eigvals).max()))
    s = np.empty((g.size, spectrum.basis.dim), dtype=np.complex128)
    s.real, s.imag = spectrum.basis.phase_change(g[:, None])
    return s, s @ spectrum.ready_weights


def _dephasing_change(d: np.ndarray) -> np.ndarray:
    """F - 1 per stop and g, where rho -> F * rho (elementwise) traces out
    one ready environment per coupled mode, ``d`` (stops, g points, modes)
    holding alpha - 1 at the modes coupled at each stop and 0 elsewhere: a
    coherence gains a factor alpha per coupled row mode and conj(alpha)
    per coupled column mode, and the diagonal stays."""
    row, column = d[..., :, None], d.conj()[..., None, :]
    change = row + column + row * column
    diagonal = np.arange(d.shape[-1])
    change[..., diagonal, diagonal] = 0.0
    return change


def _pass(pure, changes, steps, deltas, rhos) -> None:
    """One pass, into ``rhos`` and ``deltas`` (stops, g points, modes,
    modes): the density rho = pure + delta just before each dephasing
    rho -> rho + change * rho, where ``pure`` is the undisturbed density at
    each stop and delta what the couplings changed, 0 at the first stop
    (``deltas`` comes zeroed); each later stop is reached through its
    (unitary, adjoint) of ``steps``.  Five numpy calls per stop."""
    rhos[0] = pure[0]
    for stop, (u, adjoint) in enumerate(steps, start=1):
        delta = deltas[stop - 1] + changes[stop - 1] * rhos[stop - 1]
        # the right product over all g at once: one matrix of (g points x
        # modes) rows, which sums each row as the stacked product would
        rows = (u @ delta).reshape(-1, len(u))
        np.matmul(rows, adjoint, out=deltas[stop].reshape(rows.shape))
        np.add(pure[stop], deltas[stop], out=rhos[stop])


def _arm_traces(
    net: OpticalNetwork, arms: Sequence[str], model: PointerModel, g_values: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """(traces, dark), each of shape (len(arms), len(g_values)): each of
    ``arms``' weak trace at each g, and whether its coupling darkened the
    detector there; the rows of unlabeled arms hold 0.0 and False, for the
    caller to report in its own order.  A non-finite g raises first, then a
    phase below ``TRACE_MIN_PHASE`` (``trace_phase_fault``), then a dark
    detector, with <out|in> taken from the network's forward states.

    Every slice is a stop of the passes; one that starts no arm couples
    nothing there.  The density is kept as |psi><psi| + delta, the
    undisturbed state plus what the couplings changed, and the effect as
    |phi><phi| + delta_w, so an arm reached only through the couplings
    keeps its relative precision.  A target t's detection probability is
    Tr W (F_t * rho), F_t[x, y] being a_t[x] conj(a_t[y]) off the diagonal
    and 1 on it, where a_t holds the target pointer's alpha at t, the
    qubit's at the stop's other arms and 1 elsewhere.
    """
    g = finite_couplings(g_values)
    fault = trace_phase_fault(model, g_values)
    if fault is not None:
        raise ValueError(fault)
    states = net._states  # forward and backward, (2, slices + 1, modes)
    overlap = _checked_overlap(net, complex(states[0, -1, net.postselect_mode]))
    first = net.arm_stops
    traces, dark = np.zeros((len(arms), g.size)), np.zeros((len(arms), g.size), dtype=bool)
    rows = [row for row, arm in enumerate(arms) if arm in first]
    if not rows:
        return traces, dark
    n, stops = net.n_modes, len(net.slices)
    index = {position: stop for stop, (position, _) in enumerate(net.slices)}
    coupled = np.zeros((stops, n), dtype=bool)  # the arms' modes at each stop
    for position, mode in first.values():
        coupled[index[position], mode] = True
    at = [index[first[arms[row]][0]] for row in rows]
    targets = [first[arms[row]][1] for row in rows]

    # every arm's environment but the target's is a qubit
    environment = pointer_spectrum(qubit_pointer())
    env_s, env_am1 = _alpha_minus_one(environment, g)
    d = np.where(coupled[:, None, :], env_am1[:, None], 0.0)
    changes = _dephasing_change(d)
    unitaries, adjoints = net._segments
    pure = states[:, :-1, :, None] * states[:, :-1, None, :].conj()
    deltas = np.zeros((2, stops, g.size, n, n), dtype=np.complex128)
    rhos = np.empty_like(deltas)
    _pass(pure[0], changes, zip(unitaries[1:stops], adjoints[1:stops]), deltas[0], rhos[0])
    # the effect passes the adjoint segments, which conjugate the dephasing too
    backward = zip(adjoints[stops - 1 : 0 : -1], unitaries[stops - 1 : 0 : -1])
    _pass(pure[1, ::-1], changes.conj()[::-1], backward, deltas[1, ::-1], rhos[1, ::-1])

    # a qubit target of any axis has the environments' eigenvalues and
    # weights, and so their phases
    spectrum = pointer_spectrum(model)
    shared = model == environment.model or all(
        mine.tolist() == theirs.tolist() for mine, theirs in (
            (spectrum.basis.eigvals, environment.basis.eigvals),
            (spectrum.ready_weights, environment.ready_weights)))
    s, target_am1 = (env_s, env_am1) if shared else _alpha_minus_one(spectrum, g)
    # ||(1 - |m><m|) E|m>||^2 = sum_k w_k |s_k - (alpha - 1)|^2
    disturbed = np.abs(s - target_am1[:, None]) ** 2 @ spectrum.ready_weights
    # rho[t, t] and W[t, t] at each target's stop: (arms, pass, g)
    population = np.abs(states[:, at, targets]).T[..., None] ** 2
    population = population + deltas[:, at, :, targets, targets].real
    weight = population[:, 0] * population[:, 1] * disturbed
    traces[rows] = np.sqrt(np.maximum(weight, 0.0)) / abs(overlap)

    # with every arm coupled to its environment the detection probability is
    # Tr W rho at any stop, W and rho on either side of its dephasing: read
    # after the last one, as the sum of conj(W) * rho, W being hermitian.  A
    # target of another pointer swaps the qubit's alpha for its own at its
    # mode t, which changes only the coherences of row and column t at its
    # stop, by c = alpha_t - alpha_qubit times sum_y weighted[t, y] conj(b[y])
    # and by conj(c) times sum_x b[x] weighted[x, t], x, y != t, where
    # weighted = conj(W) * rho and b holds the qubit's alpha on the stop's
    # arms and 1 elsewhere
    dephased = rhos[0, -1] + changes[-1] * rhos[0, -1]
    probability = np.einsum("gxy,gxy->g", rhos[1, -1].conj(), dephased).real
    if not shared:
        weighted = rhos[1, at].conj() * rhos[0, at]  # (arm, g, x, y)
        diagonal = np.arange(n)
        weighted[..., diagonal, diagonal] = 0.0
        b, arm = 1.0 + d[at], np.arange(len(rows))
        right = np.einsum("agy,agy->ag", weighted[arm, :, targets], b.conj())
        left = np.einsum("agx,agx->ag", b, weighted[arm, :, :, targets])
        c = target_am1 - env_am1
        probability = probability + (c * right + c.conj() * left).real
    dark[rows] = probability < ZERO_PROBABILITY_FLOOR
    return traces, dark


def _dark_after_coupling(g: float) -> DarkDetectorError:
    return DarkDetectorError(f"post-selection detector dark after coupling at g = {g!r}")


def weak_trace(net: OpticalNetwork, arm: str, model: PointerModel, g: float) -> float:
    """Disturbance the arm's environment retains after post-selection.

    Norm of the conditional component orthogonal to the arm's ready state,
    normalized by |<out|in>|.  Zero at g = 0 and exactly zero at every g
    for arms with no amplitude chain through them.
    """
    return weak_trace_sweeps(net, (arm,), model, (g,))[0][1][0]


def weak_trace_sweeps(
    net: OpticalNetwork,
    arms: Iterable[str],
    model: PointerModel,
    g_schedule: Sequence[float],
) -> tuple[tuple[str, tuple[float, ...]], ...]:
    """(arm, its weak trace at each g) for each of ``arms`` in order, all
    from one forward and one backward pass; the first arm whose coupling
    darkens the detector at some g raises there."""
    arms = list(arms)
    g_values = [float(g) for g in g_schedule]
    traces, dark = _arm_traces(net, arms, model, g_values)
    labeled = net.arm_stops
    for arm, row in zip(arms, dark.tolist()):
        if arm not in labeled:
            raise _unlabeled(arm)
        if True in row:
            raise _dark_after_coupling(g_values[row.index(True)])
    return tuple((arm, tuple(row)) for arm, row in zip(arms, traces.tolist()))


@dataclass(frozen=True)
class ArmPresence:
    leading_order: float
    classification: str  # "primary" | "secondary" | "none"


@dataclass(frozen=True)
class PresenceReport:
    entries: tuple[tuple[str, ArmPresence], ...]

    def classification(self, arm: str) -> str:
        return dict(self.entries)[arm].classification

    def leading_order(self, arm: str) -> float:
        return dict(self.entries)[arm].leading_order


_PRESENCE_BY_ORDER = {"first": "primary", "second": "secondary", "none": "none"}


def classify_presence(
    net: OpticalNetwork,
    arms: Iterable[str] | None = None,
    model: PointerModel | None = None,
    g_schedule: Sequence[float] | None = None,
) -> PresenceReport:
    """Classify arms by the leading order of their weak trace in g.

    First order means primary presence, second order secondary presence,
    and a trace of exact zeros (``limits.fit_trace_orders``) no presence at
    all.  Schedule points where the coupling itself darkens the detector are
    excluded from the fit and only fatal when fewer than four points survive.
    """
    arms = sorted(net.arm_labels) if arms is None else list(arms)
    if model is None:
        model = qubit_pointer()
    schedule = fit_schedule(g_schedule)
    traces, dark = _arm_traces(net, arms, model, schedule)
    orders = fit_trace_orders(schedule, np.where(dark, 0.0, traces))
    labeled = net.arm_stops
    entries = []
    for arm, order, row in zip(arms, orders.tolist(), dark.tolist()):
        if arm not in labeled:
            raise _unlabeled(arm)
        if True in row:
            lit = [g for g, is_dark in zip(schedule, row) if not is_dark]
            if len(lit) < 4:
                raise _dark_after_coupling(schedule[len(row) - 1 - row[::-1].index(True)])
            fit_schedule(lit)  # the lit points must still span a decade
        classification = _PRESENCE_BY_ORDER[classify_order(order, f"arm {arm!r}")]
        entries.append((arm, ArmPresence(order, classification)))
    return PresenceReport(tuple(entries))
