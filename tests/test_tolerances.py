"""Numerical tolerances: one home, and each decision flips at its bound.

Every row of ``FLIPS`` calls the public function whose decision a tolerance
of ``tsvflab.tolerances`` sets, once just below the bound and once just
above it, and the outcome changes between the two calls.
"""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import tsvflab
from tsvflab import (
    BeamSplitter,
    GSchedule,
    LinearOperator,
    OpticalNetwork,
    PointerModel,
    PrePostSelection,
    StateVector,
    TimeSlice,
    gaussian_pointer,
    moments,
    parse,
    pauli_z,
    plan,
    qubit_pointer,
    spin_up_x,
    two_state_vector,
    weak_value,
)
from tsvflab import pointer, tolerances, weakmeas
from tsvflab.interferometer import trace_phase_fault
from tsvflab.limits import fit_orders
from tsvflab.pointer import pointer_spectrum
from tsvflab.weakmeas import PointerReadout

PACKAGE = Path(tsvflab.__file__).parent
EPS = math.ulp(1.0)
NAMES = sorted(name for name in vars(tolerances) if name.isupper())


def _outcome(call, *args):
    """"ok" when ``call(*args)`` returns, else the name of what it raised."""
    try:
        call(*args)
    except ValueError as err:  # each decision's exceptions derive from it
        return type(err).__name__
    return "ok"


def _normalized_tag(excess, _):
    return StateVector([math.sqrt(1.0 + excess), 0.0]).normalized


def _moments_of_weight(probability, _):
    state = StateVector([math.sqrt(probability), 0.0])
    return _outcome(moments, state, pauli_z())


def _weak_value_at_overlap(overlap, _):
    post = StateVector([overlap, math.sqrt(1 - overlap**2)])
    sel = PrePostSelection(StateVector([1.0, 0.0]), post)
    return _outcome(weak_value, sel, pauli_z())


def _readout_of_excess(excess, monkeypatch):
    """A qubit readout at g = 1e-6 off a ready state of squared norm 1 + excess,
    with |out> = |in>: the post-selection probability is 1 + excess to 1e-12."""
    model = qubit_pointer()
    spectrum = pointer_spectrum(model)
    scaled = dataclasses.replace(spectrum, ready=math.sqrt(1.0 + excess) * spectrum.ready)
    monkeypatch.setattr(weakmeas, "pointer_spectrum", lambda _: scaled)
    readout = PointerReadout(PrePostSelection(spin_up_x(), spin_up_x()), (pauli_z(),), (model,))
    return _outcome(readout.ratios, [(1e-6,)])


def _slice_with_leak(leak, _):
    """Two splitters of transmissivity 1 - leak around a slice that labels
    mode 0 alone: the unlabeled mode 1 adds -leak to the full pairing."""
    splitter = BeamSplitter(0, 1, 1.0 - leak)
    net = OpticalNetwork(2, (splitter, TimeSlice((("A", 0),)), splitter), 0, (("D", 0),), "D")
    return _outcome(two_state_vector, net, 0)


def _pivot_of(small, monkeypatch):
    """The qubit ready state when the ready axis's + eigenvector is
    (i small, sqrt(1 - small^2)): whether its phase is fixed on amplitude 0."""
    v = np.array([1j * small, math.sqrt(1.0 - small**2)])
    ready_axis = LinearOperator(2.0 * np.outer(v, v.conj()) - np.eye(2))
    monkeypatch.setitem(pointer._PAULI_BY_AXIS, "x", lambda: ready_axis)
    # the ready state is built once per axis and process: build it afresh
    first = pointer._qubit_spectrum.__wrapped__("y")[1][0]
    return abs(first.real) > abs(first.imag)


def _moments_with_residue(imag, _):
    """<psi|A|psi> of the uniform state of dim 800 and A = 1 + i e J, J all
    ones: its imaginary part is 800 e, with max|A - A^dag| = 2 e tagged
    hermitian."""
    dim = 800
    op = LinearOperator(np.eye(dim) + 1j * (imag / dim) * np.ones((dim, dim)))
    return _outcome(moments, StateVector(np.full(dim, 1 / math.sqrt(dim))), op)


def _spread(value, _):
    return _outcome(PointerModel, "gaussian_grid", value, 256, 12.0 * value)


def _order_fit(last, _):
    values = [1e-1, 1e-2, 1e-3, last]
    orders, _, _ = fit_orders([1e-1, 1e-2, 1e-3, 1e-4], [values])
    return math.isinf(orders[0])


def _trace_fault(phase, _):
    return trace_phase_fault(qubit_pointer(), [phase]) is None


def _decade(shortfall, _):
    return _outcome(GSchedule, [10 ** (1 - shortfall), 4.0, 2.0, 1.0], 4, True)


QUBIT_PLAN = """tsvf-scenario v1
[system]
dim = {dim}
[state pre]
amps = {pre}
[state post]
amps = {post}
[operator obs]
matrix = {matrix}
[pointer]
{pointer}
[selection]
pre = pre
post = post
[experiment]
plan = weakvalue
observables = obs
g_schedule = {schedule}
"""


GAUSSIAN = gaussian_pointer(2.0)
POINTER_KEYS = {"qubit": "kind = qubit", "gaussian_grid": "kind = gaussian_grid\nspread = 2.0"}


def _plan(dim=2, pre="1, 0", post="1, 0", matrix="1, 0; 0, -1", kind="qubit", g_min=1e-2):
    """``plan`` of a weakvalue file, its schedule g_min times 8, 4, 2, 1."""
    text = QUBIT_PLAN.format(
        dim=dim, pre=pre, post=post, matrix=matrix, pointer=POINTER_KEYS[kind],
        schedule=", ".join(repr(g_min * 2.0**k) for k in (3, 2, 1, 0)),
    )
    doc = parse(text).doc
    return plan(doc, "weakvalue")


def _normalization(offset, _):
    result = _plan(post=f"{1 + offset!r}, 0")
    return tuple(d.severity for d in result.diagnostics)


def _eigvalsh_calls(excess, monkeypatch):
    """The eigvalsh calls of a qubit readout plan of the 1 x 1 observable 1,
    whose Frobenius bracket's lower end, 1 - FROBENIUS_MARGIN, meets the
    readout guard's bound where g_min = eps / QUBIT_READOUT_ACCURACY (1 + excess)."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    g_min = EPS / tolerances.QUBIT_READOUT_ACCURACY * (1 + excess)
    result = _plan(dim=1, pre="1", post="1", matrix="1", g_min=g_min)
    assert result.plan is not None
    return len(calls)


def _readout_guard(kind, roundoff, accuracy):
    """Whether a readout plan of pauli_z passes at g_min = factor times the
    g_min where accuracy g_min max|lambda| = roundoff."""
    return lambda factor, _: _plan(kind=kind, g_min=factor * roundoff / accuracy).plan is not None


# (tolerance, probe of (value, monkeypatch), a value on the lower side of the
# bound, one on its upper side, the outcome of each); a value at the bound
# lies on the side its comparison puts it
T = tolerances
FLIPS = [
    ("STRUCTURAL_TOL", _normalized_tag, T.STRUCTURAL_TOL / 2, 2 * T.STRUCTURAL_TOL, True, False),
    ("ZERO_PROBABILITY_FLOOR", _moments_of_weight,
     T.ZERO_PROBABILITY_FLOOR / 2, 2 * T.ZERO_PROBABILITY_FLOOR, "ValueError", "ok"),
    ("ORTHOGONAL_OVERLAP_TOL", _weak_value_at_overlap,
     T.ORTHOGONAL_OVERLAP_TOL, 2 * T.ORTHOGONAL_OVERLAP_TOL, "OrthogonalSelectionError", "ok"),
    ("PROBABILITY_CEILING", _readout_of_excess,
     (T.PROBABILITY_CEILING - 1) / 2, 2 * (T.PROBABILITY_CEILING - 1), "ok", "ValueError"),
    ("PAIRING_TOL", _slice_with_leak, T.PAIRING_TOL / 2, 2 * T.PAIRING_TOL, "ok", "ValueError"),
    ("QUBIT_PIVOT_FLOOR", _pivot_of, T.QUBIT_PIVOT_FLOOR / 2, 2 * T.QUBIT_PIVOT_FLOOR, False, True),
    ("MOMENT_IMAG_TOL", _moments_with_residue,
     T.MOMENT_IMAG_TOL / 2, 2 * T.MOMENT_IMAG_TOL, "ok", "ValueError"),
    ("SPREAD_RANGE", _spread, T.SPREAD_RANGE[0] / 2, T.SPREAD_RANGE[0], "FieldError", "ok"),
    ("SPREAD_RANGE", _spread, T.SPREAD_RANGE[1], 2 * T.SPREAD_RANGE[1], "ok", "FieldError"),
    ("METRIC_FLOOR", _order_fit, T.METRIC_FLOOR, 2 * T.METRIC_FLOOR, True, False),
    ("TRACE_MIN_PHASE", _trace_fault, T.TRACE_MIN_PHASE / 2, T.TRACE_MIN_PHASE, False, True),
    ("DECADE_SLACK", _decade, T.DECADE_SLACK / 2, 2 * T.DECADE_SLACK, "ok", "ScheduleError"),
    ("AUTO_NORMALIZE_WINDOW", _normalization,
     T.AUTO_NORMALIZE_WINDOW / 2, 2 * T.AUTO_NORMALIZE_WINDOW, ("warning",), ("error",)),
    ("FROBENIUS_MARGIN", _eigvalsh_calls, T.FROBENIUS_MARGIN / 2, 2 * T.FROBENIUS_MARGIN, 1, 0),
    ("READOUT_ACCURACY",
     _readout_guard("gaussian_grid", EPS * GAUSSIAN.half_width, T.READOUT_ACCURACY),
     0.5, 2.0, False, True),
    ("QUBIT_READOUT_ACCURACY", _readout_guard("qubit", EPS, T.QUBIT_READOUT_ACCURACY),
     0.5, 2.0, False, True),
]


@pytest.mark.parametrize(
    "name,probe,below,above,outcome_below,outcome_above",
    FLIPS,
    ids=[f"{row[0]}-{index}" for index, row in enumerate(FLIPS)],
)
def test_decision_flips_at_the_bound(monkeypatch, name, probe, below, above, outcome_below,
                                     outcome_above):
    assert name in NAMES and outcome_below != outcome_above
    with monkeypatch.context() as patch:
        assert probe(below, patch) == outcome_below
    with monkeypatch.context() as patch:
        assert probe(above, patch) == outcome_above


def test_every_tolerance_has_a_flip():
    assert sorted({row[0] for row in FLIPS}) == NAMES


def test_deciding_modules_read_the_one_home():
    """A module's tolerance is the module's object, as its from-import left it."""
    from tsvflab import interferometer, limits, qcore, scenario, schedule

    for module in (qcore, weakmeas, interferometer, limits, scenario, schedule, pointer):
        for name in NAMES:
            if name in vars(module):
                assert getattr(module, name) is getattr(tolerances, name), (module, name)


def _small_literals(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            # an exact zero is no tolerance
            if 0 < abs(node.value) < 1e-5:
                yield f"{path.name}:{node.lineno}:{node.col_offset + 1} {node.value!r}"


def test_no_tolerance_literal_outside_its_home():
    """A float literal below 1e-5 is a tolerance, named in ``tolerances``."""
    found = [
        literal
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
        for literal in _small_literals(path)
    ]
    assert found == []


def test_readme_table_matches_the_module():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Numerical tolerances", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([A-Z_]+)` \| `([^`|]+)` \|", table, flags=re.MULTILINE)
    assert sorted(name for name, _ in rows) == NAMES
    for name, value in rows:
        assert eval(value, {"__builtins__": {}}) == getattr(tolerances, name), name
