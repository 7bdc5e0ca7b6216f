"""Seeded scenario generators for the three benchmark workloads.

Every workload is a *round*: a fixed list of slots, each slot a scenario
shape whose cost-setting sizes (plan, pointer grid, chain depth, number of
observables) are fixed, while its values (states, operators, spreads,
phases, splitter ratios, g ranges) are drawn at random.  Fixing the shapes
keeps the latency mix of a run the same whatever the seed; drawing the
values keeps every scenario distinct.

Cases come from a pool of ``POOL_ROUNDS[workload]`` rounds built from a
fixed master seed, so that each case has a reference output recorded at
the commit that defined the benchmark (see ``record.py``).  The ``--seed``
of a run chooses the order of the pool rounds, and shuffles the slots
inside each round.  A run uses each pool round at most once; if the pool
runs out the run ends early and says so.

Values are drawn only from the documented weak regime; nothing is ever
filtered on the program's output.  Each case carries the physics the
oracle checks it against (``Case.expect``).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

MASTER_SEED = 1608_07185
WORKLOADS = ("grid-sweeps", "presence-chains", "cold-corpus")
#: Rounds in each workload's pool: at least five times the most rounds a
#: 30 s run used when the benchmark was defined (21, 14 and 28, warm-up
#: included, on a two-core x86-64 VM), so a program five times faster still
#: never meets a scenario twice in one process.
POOL_ROUNDS = {"grid-sweeps": 120, "presence-chains": 70, "cold-corpus": 140}

METRICS = ("continuity", "derail", "first_order_residual", "overlap_deficit")
PRESETS = {
    # name: (subcommand, expectation)
    "spin-sz": ("weakvalue", {"weak": {"sz": 1.0}}),
    "spin-splus-sminus": (
        "weakvalue",
        {"weak": {"sz": 1.0, "splus": 2.0**0.5, "sminus": 0.0}},
    ),
    "spin-flipped": ("weakvalue", {"weak": {"sz": 1.0}}),
    "eigenvalue-zero": ("sweep", {"metric": "continuity", "order": "none", "g": None}),
    "nested-mzi": (
        "presence",
        {"arms": {"A": "primary", "B": "primary", "C": "primary",
                  "D": "secondary", "E": "secondary", "X": "none"}},
    ),
    "compare-limits": ("compare-limits", {"analytic": 2.0**0.5}),
}


@dataclass
class Case:
    """One CLI invocation and what its output must satisfy."""

    slot: str
    command: str
    text: str | None  # scenario file text; None for a shipped preset
    preset: str | None = None
    expect: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Content key of the invocation, used to look up its reference."""
        body = f"{self.command}\n{self.preset}\n{self.text}"
        return hashlib.sha256(body.encode()).hexdigest()[:24]


# ---------------------------------------------------------------------------
# Literals and random physics.

def _real(x: float) -> str:
    return repr(float(x))


def _complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _real(z.real)
    sign = "-" if z.imag < 0 else "+"
    return f"{_real(z.real)}{sign}{_real(abs(z.imag))}i"


def _vector(v) -> str:
    return ", ".join(_complex(z) for z in v)


def _matrix(m) -> str:
    return "; ".join(", ".join(_complex(z) for z in row) for row in m)


def _schedule(values) -> str:
    return ", ".join(_real(g) for g in values)


def random_state(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_observable(rng, dim: int) -> np.ndarray:
    """Exactly hermitian, spectral norm 1."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2.0
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def near_selection(rng, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Pre/post pair with |<out|in>| >= 0.7, so weak values stay O(1)."""
    pre = random_state(rng, dim)
    post = pre + rng.uniform(0.2, 0.6) * random_state(rng, dim)
    return pre, post / np.linalg.norm(post)


def analytic_weak_value(pre, post, op) -> complex:
    return complex(np.vdot(post, op @ pre) / np.vdot(post, pre))


def _selection_text(dim, states, operators, pointer_lines, experiment_lines) -> str:
    lines = ["tsvf-scenario v1", "", "[system]", f"dim = {dim}"]
    for name, amps in states.items():
        lines += ["", f"[state {name}]", f"amps = {_vector(amps)}"]
    for name, op in operators.items():
        lines += ["", f"[operator {name}]", f"matrix = {_matrix(op)}"]
    lines += ["", "[pointer]", *pointer_lines]
    lines += ["", "[selection]", "pre = psi_in", "post = psi_out"]
    lines += ["", "[experiment]", *experiment_lines]
    return "\n".join(lines) + "\n"


def _gaussian_lines(rng, n_points: int) -> tuple[list[str], float]:
    spread = float(rng.uniform(0.5, 4.0))
    lines = ["kind = gaussian_grid", f"spread = {_real(spread)}", f"n_points = {n_points}"]
    if rng.random() < 0.5:
        lines.append(f"half_width = {_real(12.0 * spread)}")
    return lines, spread


# ---------------------------------------------------------------------------
# Plan generators.

def weakvalue_case(rng, slot, n_points, n_obs, dim=None) -> Case:
    """Weak values of 1-3 observables; Gaussian grid or (n_points=None) qubit."""
    dim = dim or int(rng.integers(2, 17))
    pre, post = near_selection(rng, dim)
    ops = {f"obs{i}": random_observable(rng, dim) for i in range(n_obs)}
    experiment = ["plan = weakvalue", "observables = " + ", ".join(ops)]
    if n_points is None:
        pointer = ["kind = qubit", f"generator_axis = {rng.choice(['x', 'y', 'z'])}"]
        scale = 1.0
    else:
        pointer, scale = _gaussian_lines(rng, n_points)
    if rng.random() < 0.5:  # otherwise the program's default schedule
        start = 0.02 * scale * rng.uniform(0.5, 1.0)
        experiment.append("g_schedule = " + _schedule(start / 2.0**i for i in range(5)))
    text = _selection_text(dim, {"psi_in": pre, "psi_out": post}, ops, pointer, experiment)
    weak = {name: analytic_weak_value(pre, post, op) for name, op in ops.items()}
    return Case(slot, "weakvalue", text, expect={"weak": weak})


def sweep_case(rng, slot, metric, n_points) -> Case:
    """A 9-point, two-decade g-sweep of one disturbance metric.

    For continuity and derail, half the cases pre-select a basis state in
    the kernel of the observable, where the metric must stay at the floor.
    """
    dim = int(rng.integers(2, 17))
    op = random_observable(rng, dim)
    kernel = metric in ("continuity", "derail") and rng.random() < 0.5
    if kernel:
        j = int(rng.integers(dim))
        pre = np.zeros(dim, dtype=complex)
        pre[j] = 1.0
        op[j, :] = 0.0
        op[:, j] = 0.0
        post = pre + 0.5 * random_state(rng, dim)
        post /= np.linalg.norm(post)
    else:
        pre, post = near_selection(rng, dim)
    pointer, spread = _gaussian_lines(rng, n_points)
    g_max = spread * 10.0 ** rng.uniform(-2.3, -1.7)
    schedule = np.geomspace(g_max, g_max / 100.0, 9)
    experiment = [
        "plan = sweep",
        f"metric = {metric}",
        "observable = obs",
        "g_schedule = " + _schedule(schedule),
    ]
    text = _selection_text(
        dim, {"psi_in": pre, "psi_out": post}, {"obs": op}, pointer, experiment
    )
    order = "none" if kernel else (
        "first" if metric in ("continuity", "derail") else "second"
    )
    return Case(slot, "sweep", text, expect={"metric": metric, "order": order,
                                             "g": [float(_real(g)) for g in schedule]})


def compare_limits_case(rng, slot) -> Case:
    """Both routes to the weak limit; five pointer spreads, each used once."""
    dim = int(rng.integers(2, 5))
    pre, post = near_selection(rng, dim)
    op = random_observable(rng, dim)
    spreads = 2.0 ** np.arange(1, 6) * rng.uniform(0.9, 1.1)
    experiment = [
        "plan = compare_limits",
        "observable = obs",
        "g_schedule = " + _schedule(0.04 / 2.0**i for i in range(5)),
        "spread_schedule = " + _schedule(spreads),
        "fixed_g = 0.5",
        "fixed_spread = 2.0",
    ]
    pointer, _ = _gaussian_lines(rng, 256)
    text = _selection_text(
        dim, {"psi_in": pre, "psi_out": post}, {"obs": op}, pointer, experiment
    )
    return Case(slot, "compare-limits", text,
                expect={"analytic": analytic_weak_value(pre, post, op)})


def chain_case(rng, slot, plan, k, target, probe, listed=None) -> Case:
    """k nested Mach-Zehnder interferometers in series (Vaidman's
    "past of a quantum particle" networks).

    Stage i takes the photon on wire 0, splits it into outer arm A_i and
    inner input D_i (wire 2i+1), runs D_i through a balanced inner
    interferometer (arms B_i, C_i on wires 2i+1, 2i+2) whose output E_i
    toward the recombination is dark, and recombines A_i with E_i onto
    wire 0.  D1 (wire 0, after the last stage) is the post-selection.
    An optional probe arm X sits on a wire nothing ever touches.
    Expected presence: A, B, C primary; D, E secondary; X none.  The plan
    lists the arms of the first ``listed`` stages (default all) and the
    probe; every arm still couples to its own environment.
    """
    modes = 1 + 2 * k + (1 if probe else 0)
    if target is None:
        pointer = ["kind = qubit", f"generator_axis = {rng.choice(['x', 'y', 'z'])}"]
    else:
        spread = float(rng.uniform(0.5, 2.0))
        pointer = ["kind = gaussian_grid", f"spread = {_real(spread)}", f"n_points = {target}"]
    seq = []
    detectors = ["D1:0"]
    classes = {}
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        seq.append(f"beam_splitter 0 {a} {_real(rng.uniform(0.2, 0.8))}")
        seq.append(f"phase_shift 0 {_real(rng.uniform(0, 2 * np.pi))}")
        seq.append(f"phase_shift {a} {_real(rng.uniform(0, 2 * np.pi))}")
        seq.append(f"slice A{i}:0 D{i}:{a}")
        seq.append(f"beam_splitter {a} {b} 0.5")
        probe_arm = f" X:{modes - 1}" if probe and i == k - 1 else ""
        seq.append(f"slice B{i}:{a} C{i}:{b}{probe_arm}")
        seq.append(f"beam_splitter {a} {b} 0.5")
        seq.append(f"phase_shift {a} {_real(rng.uniform(0, 2 * np.pi))}")
        seq.append(f"slice E{i}:{a}")
        seq.append(f"beam_splitter 0 {a} {_real(rng.uniform(0.2, 0.8))}")
        detectors += [f"O{i}:{a}", f"I{i}:{b}"]
        if listed is None or i < listed:
            classes.update({f"A{i}": "primary", f"B{i}": "primary", f"C{i}": "primary",
                            f"D{i}": "secondary", f"E{i}": "secondary"})
    if probe:
        classes["X"] = "none"
    g_max = 10.0 ** rng.uniform(-2.2, -1.8)
    lines = ["tsvf-scenario v1", "", "[system]", f"dim = {modes}", "", "[pointer]", *pointer]
    lines += ["", "[network]", f"modes = {modes}", "source = 0"]
    lines += [f"seq = {s}" for s in seq]
    lines += ["detectors = " + ", ".join(detectors), "postselect = D1"]
    lines += ["", "[experiment]", f"plan = {plan}", "arms = " + ", ".join(classes),
              "g_schedule = " + _schedule(np.geomspace(g_max, g_max / 10.0, 5))]
    return Case(slot, plan, "\n".join(lines) + "\n", expect={"arms": classes})


def dark_network_case(rng, slot) -> Case:
    """A balanced Mach-Zehnder post-selected on its dark port: exit 2."""
    phase = _real(rng.uniform(0, 2 * np.pi))
    plan = str(rng.choice(["presence", "trace"]))
    text = "\n".join([
        "tsvf-scenario v1", "[system]", "dim = 2", "[pointer]", "kind = qubit",
        "[network]", "modes = 2", "source = 0",
        "seq = beam_splitter 0 1 0.5", "seq = slice U:0 L:1",
        f"seq = phase_shift 0 {phase}", f"seq = phase_shift 1 {phase}",
        "seq = beam_splitter 0 1 0.5", "detectors = DARK:0, BRIGHT:1",
        "postselect = DARK", "[experiment]",
        f"plan = {plan}",
    ]) + "\n"
    return Case(slot, plan, text, expect={"exit": 2})


def orthogonal_case(rng, slot) -> Case:
    """Pre- and post-selection exactly orthogonal: exit 2."""
    dim = int(rng.integers(2, 6))
    pre = np.zeros(dim, dtype=complex)
    pre[0] = 1.0
    post = random_state(rng, dim)
    post[0] = 0.0
    post /= np.linalg.norm(post)
    text = _selection_text(
        dim, {"psi_in": pre, "psi_out": post}, {"obs": random_observable(rng, dim)},
        ["kind = qubit"], ["plan = weakvalue", "observables = obs"],
    )
    return Case(slot, "weakvalue", text, expect={"exit": 2})


# Each mutation turns a valid weakvalue scenario of dimension ``dim`` into
# one the program must reject with exit code 1 and a diagnostic containing
# the given text.  Some fail in the parser, some in semantic validation.
def _set_line(prefix, line):
    def edit(text, dim):
        lines = text.split("\n")
        lines[next(i for i, l in enumerate(lines) if l.startswith(prefix))] = line(dim)
        return "\n".join(lines)
    return edit


MUTATIONS = (
    ("version", lambda t, d: t.replace("v1", "v2", 1), "first line"),
    ("unresolved-state", lambda t, d: t.replace("pre = psi_in", "pre = psi_missing"),
     "unresolved state"),
    ("bad-literal", _set_line("amps = ", lambda d: "amps = " + ", ".join(["0.5j"] * d)),
     "malformed"),
    ("unknown-key", lambda t, d: t.replace("[pointer]\n", "[pointer]\ncolour = red\n"),
     "colour"),
    ("unnormalized", _set_line("amps = ", lambda d: "amps = 2" + ", 0" * (d - 1)),
     "not normalized"),
    ("non-hermitian", _set_line("matrix = ", lambda d: "matrix = " + _matrix(np.triu(np.ones((d, d))))),
     "not hermitian"),
    ("increasing-schedule",
     lambda t, d: re.sub(r"g_schedule = .*\n", "", t) + "g_schedule = 0.001, 0.002, 0.004, 0.008\n",
     "schedule must decrease"),
    ("no-experiment", lambda t, d: t[: t.index("[experiment]")], "missing [experiment]"),
    ("bad-plan", lambda t, d: t.replace("plan = weakvalue", "plan = sweeep"), "unknown plan"),
)


def mutation_case(rng, slot, index: int) -> Case:
    dim = int(rng.integers(2, 5))
    base = weakvalue_case(rng, slot, None, 1, dim=dim)
    name, edit, needle = MUTATIONS[index % len(MUTATIONS)]
    return Case(f"{slot}:{name}", base.command, edit(base.text, dim),
                expect={"exit": 1, "stderr": needle})


def preset_case(name) -> Case:
    command, expect = PRESETS[name]
    return Case(f"preset:{name}", command, None, preset=name, expect=dict(expect))


# ---------------------------------------------------------------------------
# Rounds.

# A round's latencies fall into groups by shape: light, middle and heavy.
# Each round has as many light slots as heavy ones, so the median sample
# of a run falls in the middle of the middle group, not on the step
# between two groups, where it would jump from run to run.

def _grid_round(rng):
    # light: the 128-point weak values, twice (6); middle: the 128-point
    # sweeps and the 1-observable 256-point weak value (5); heavy: the
    # 256-point sweeps and the 2- and 3-observable 256-point weak values (6)
    cases = [sweep_case(rng, f"sweep-{m}-{n}", m, n) for m in METRICS for n in (128, 256)]
    cases += [weakvalue_case(rng, f"weakvalue-{k}obs-{n}", n, k)
              for n in (128, 256) for k in (1, 2, 3)]
    cases += [weakvalue_case(rng, f"weakvalue-{k}obs-128", 128, k) for k in (1, 2, 3)]
    return cases


def _chain_round(rng):
    # (plan, k, gaussian target n_points or None for a qubit, probe, stages listed);
    # light: k=1 qubit chains (4); middle: k=2 qubit chains with the probe (5);
    # heavy (4): Gaussian targets and k=3, whose two copies put the tail
    # sample inside their group
    shapes = (
        ("presence", 1, None, True, None), ("trace", 1, None, True, None),
        ("presence", 1, None, False, None), ("trace", 1, None, False, None),
        ("presence", 2, None, True, None), ("trace", 2, None, True, None),
        ("presence", 2, None, True, None), ("trace", 2, None, True, None),
        ("presence", 2, None, True, None),
        ("presence", 1, 256, True, None), ("presence", 2, 128, False, 1),
        ("presence", 3, None, False, None), ("presence", 3, None, False, None),
    )
    return [chain_case(rng, f"{plan}-k{k}-{target or 'qubit'}{'-probe' if probe else ''}",
                       plan, k, target, probe, listed)
            for plan, k, target, probe, listed in shapes]


def _cold_round(rng):
    cases = [preset_case(name) for name in PRESETS]
    cases += [weakvalue_case(rng, "weakvalue-qubit", None, 1, dim=int(rng.integers(2, 9)))
              for _ in range(12)]
    cases += [chain_case(rng, "presence-mzi", "presence", 1, None, bool(rng.random() < 0.5))
              for _ in range(4)]
    cases.append(compare_limits_case(rng, "compare-limits"))
    start = int(rng.integers(len(MUTATIONS)))
    cases += [mutation_case(rng, "mutation", start + i) for i in range(6)]
    cases += [dark_network_case(rng, "dark-network"), orthogonal_case(rng, "dark-selection")]
    return cases


_ROUNDS = {"grid-sweeps": _grid_round, "presence-chains": _chain_round,
           "cold-corpus": _cold_round}


def pool_round(workload: str, index: int) -> list[Case]:
    """Round ``index`` of the workload's reference pool (slot order fixed)."""
    rng = np.random.default_rng([MASTER_SEED, WORKLOADS.index(workload), index])
    return _ROUNDS[workload](rng)


def run_rounds(workload: str, seed: int):
    """The rounds of one run: every pool round once, in a seeded order,
    slots shuffled inside each round.  The sequence ends with the pool;
    it never repeats a round, so no scenario runs twice in a process."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    for index in rng.permutation(POOL_ROUNDS[workload]):
        cases = pool_round(workload, int(index))
        yield [cases[i] for i in rng.permutation(len(cases))]
