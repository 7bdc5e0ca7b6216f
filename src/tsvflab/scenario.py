"""Plain-text scenario format: parser, run planner, and serializer.

A scenario file is line oriented.  The first line must be the version
stamp ``tsvf-scenario v1``.  Comments run from ``#`` to the end of the
line.  Sections are ``[system]``, ``[state <name>]``, ``[operator
<name>]``, ``[pointer]``, ``[selection]``, ``[network]`` and
``[experiment]``; their bodies are ``key = value`` assignments.

Values: complex literals are ``a``, ``bi``, ``a+bi`` or ``a-bi`` with
decimal reals; vectors are comma-separated complex lists; matrices are
``;``-separated rows.  A vector or matrix that one compiled pattern
accepts whole is read in one pass by ``complex``; any other goes through
the per-item reader, which reports each malformed item at its column.
Operators may instead be built from an expression
over ``pauli_x``, ``pauli_y``, ``pauli_z``, ``identity(n)``,
``projector(<state>)``, real scalars and ``sqrt``, e.g.
``(pauli_z + pauli_x) / sqrt(2)``: ``*`` of two operators is their
product, and ``/`` takes scalars only.

Parsing is total: any input yields either a document or diagnostics with
1-based line/column positions, never an exception and never a partial
document.  ``plan`` is as total: before anything evolves it turns a
document into the ``RunPlan`` of one subcommand (the normalized
selection, the observables, the one g-schedule, every pointer the run
couples, the network and its sorted arms), rejects a Gaussian pointer
that a shift would wrap around its grid, and a readout whose smallest
shift would hide below its roundoff, and reports the file's errors at
their positions and the flags' errors apart.
"""

from __future__ import annotations

import contextlib
import math
import operator
import re
from collections.abc import Callable, Container, Mapping, Sequence
from dataclasses import astuple, dataclass, field
from importlib import resources
from typing import NamedTuple, get_type_hints

import numpy as np

from .errors import FieldError, ScheduleError
from .interferometer import BeamSplitter, OpticalNetwork, PhaseShift, TimeSlice, trace_phase_fault
from .limits import (
    DEFAULT_FIXED_COUPLING, DEFAULT_FIXED_SPREAD, DEFAULT_SPREADS, METRICS, limit_pointers
)
from .pointer import GAUSSIAN_KIND, QUBIT_KIND, PointerModel, gaussian_pointer, qubit_pointer
from .qcore import LinearOperator, StateVector, pauli_x, pauli_y, pauli_z, projector
from .schedule import GSchedule, SpreadSchedule, default_g_decade, default_g_schedule
from .tolerances import (
    AUTO_NORMALIZE_WINDOW, FROBENIUS_MARGIN, QUBIT_READOUT_ACCURACY, READOUT_ACCURACY
)
from .weakmeas import PrePostSelection

VERSION_LINE = "tsvf-scenario v1"


@dataclass(frozen=True)
class _Plan:
    """The rules of one experiment plan, which the parser, ``plan`` and
    the serializer all read."""

    keys: tuple[str, ...]  # its [experiment] keys besides plan, in reading order
    required: tuple[str, ...] = ()
    observable_key: str | None = None  # the key naming its observables
    observable_arity: int | None = None  # 1, or None for any number
    sections: tuple[str, ...] = ("selection", "pointer")  # the sections it needs
    min_points: int = 4  # GSchedule's rules for its g_schedule
    span_decade: bool = False
    needs_gaussian: bool = False  # needs a gaussian_grid pointer
    readout: bool = False  # reads weak values off its pointer, by default on its own schedule


# a trace reads any schedule; the order fits of sweeps and presence
# classification need a decade
_PLANS = {
    "weakvalue": _Plan(
        ("observables", "g_schedule"), ("observables",), observable_key="observables", readout=True
    ),
    "sweep": _Plan(
        ("observable", "metric", "g_schedule"),
        ("observable", "metric"),
        observable_key="observable",
        observable_arity=1,
        span_decade=True,
    ),
    "trace": _Plan(("arms", "g_schedule"), sections=("network", "pointer"), min_points=1),
    "presence": _Plan(
        ("arms", "g_schedule"), sections=("network", "pointer"), span_decade=True
    ),
    "compare_limits": _Plan(
        ("observable", "g_schedule", "spread_schedule", "fixed_g", "fixed_spread"),
        ("observable",),
        observable_key="observable",
        observable_arity=1,
        needs_gaussian=True,
        readout=True,
    ),
}
PLAN_KINDS = tuple(_PLANS)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# [0-9], not \d, which matches every Unicode decimal digit
_UNSIGNED_REAL = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_REAL = rf"[+-]?{_UNSIGNED_REAL}"
_REAL_RE = re.compile(_REAL)
_INT_RE = re.compile(r"[+-]?[0-9]+")
_TOKEN_RE = re.compile(r"\S+")
# an imaginary part needs its sign only after a real part
_COMPLEX_RE = re.compile(rf"({_REAL})?(?:((?(1)[+-]|[+-]?){_UNSIGNED_REAL})i)?")
#: deletes the characters a literal may hold besides blanks
_LITERAL_CHARS = str.maketrans("", "", "0123456789.eE+-i,;")

_MAX_EXPR_DEPTH = 64
#: Largest system dimension, and so the largest ``identity(n)``.
_MAX_DIM = 4096

#: the sections a file holds at most one of, in the order parse reads them
_SINGLE_SECTIONS = ("system", "pointer", "selection", "network", "experiment")
#: named section kind -> (its domain constructor, the text of a dim mismatch)
_NAMED_SECTIONS = {
    "state": (StateVector, "state {name!r} has {n} amplitudes, system dim is {dim}"),
    "operator": (LinearOperator, "operator {name!r} is {n}-dimensional, system dim is {dim}"),
}


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class ExperimentPlan:
    kind: str
    observables: tuple[str, ...] = ()
    metric: str | None = None
    arms: tuple[str, ...] = ()
    g_schedule: tuple[float, ...] | None = None
    spread_schedule: tuple[float, ...] | None = None
    fixed_g: float | None = None
    fixed_spread: float | None = None


@dataclass(frozen=True, eq=False)
class ScenarioDoc:
    dim: int
    states: dict[str, StateVector]
    operators: dict[str, LinearOperator]
    pointer: PointerModel | None
    selection: tuple[str, str] | None
    network: OpticalNetwork | None
    experiment: ExperimentPlan
    #: the scanned sections by kind, which place ``plan``'s diagnostics
    sections: Mapping[str, list] = field(repr=False, default_factory=dict)

    def position(self, kind: str, key: str) -> tuple[int, int] | None:
        """(line, column) of ``key``'s value in the file's [kind] section, or
        of the one value of the [kind key] section; None if there is none."""
        for section in self.sections.get(kind, ()):
            if kind in _NAMED_SECTIONS:
                entries = section.entries if section.name == key else None
            else:
                entries = section.table.get(key)
            if entries:
                return entries[0].line, entries[0].value_col
        return None


@dataclass(frozen=True)
class ScenarioResult:
    doc: ScenarioDoc | None
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.doc is not None


@dataclass(frozen=True, eq=False)
class RunPlan:
    """Every object one run uses, built and checked before any evolution."""

    g_schedule: GSchedule
    pointer: PointerModel  # the file's, or compare_limits' at its fixed spread
    spread_pointers: tuple[PointerModel, ...] = ()  # compare_limits', one per spread
    selection: PrePostSelection | None = None
    observables: tuple[tuple[str, LinearOperator], ...] = ()  # by name
    metric: Callable | None = None
    network: OpticalNetwork | None = None
    arms: tuple[str, ...] = ()  # sorted
    fixed_g: float = DEFAULT_FIXED_COUPLING


@dataclass(frozen=True)
class PlanResult:
    """A run plan, or why there is none: the file's error diagnostics
    (exit 1), or else a flag the run cannot take (exit 2)."""

    plan: RunPlan | None
    diagnostics: tuple[ParseDiagnostic, ...]
    flag_error: str | None = None


# ---------------------------------------------------------------------------
# Raw line scanning.

class _Entry(NamedTuple):
    key: str
    key_col: int
    value: str
    value_col: int
    line: int

    def error(self, message: str, col: int | None = None) -> ParseDiagnostic:
        """An error on the entry's line, at its value unless ``col`` is given."""
        return ParseDiagnostic(self.line, self.value_col if col is None else col, message)


class _Section:
    """A section header and its entries, in file order and by key."""

    __slots__ = ("kind", "name", "line", "col", "entries", "table")

    def __init__(self, kind: str, name: str | None, line: int, col: int):
        self.kind, self.name, self.line, self.col = kind, name, line, col
        self.entries: list[_Entry] = []
        self.table: dict[str, list[_Entry]] = {}

    def error(self, message: str) -> ParseDiagnostic:
        """An error at the section header."""
        return ParseDiagnostic(self.line, self.col, message)


#: an assignment's key, when it is a valid name, its '=' and the blanks
#: after it; \s matches exactly the characters str.strip removes
_ASSIGNMENT_RE = re.compile(r"(\s*)([A-Za-z_][A-Za-z0-9_]*)\s*(=)\s*")


def _scan(text: str, diags: list[ParseDiagnostic]) -> dict[str, list[_Section]]:
    """The sections of ``text`` by kind, each kind in file order, every line
    read once: an assignment of a valid key is cut by one match."""
    # a line ends at \r\n, \r or \n only: str.splitlines would also end one
    # at a form feed, U+2028 and the like
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[0].partition("#")[0].strip() != VERSION_LINE:
        diags.append(ParseDiagnostic(1, 1, f"first line must be {VERSION_LINE!r}"))
        return {}
    sections: dict[str, list[_Section]] = {}
    current: _Section | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw:
            continue
        body = raw.partition("#")[0]
        m = _ASSIGNMENT_RE.match(body)
        if m is None:
            stripped = body.strip()
            col = len(body) - len(body.lstrip()) + 1
            if not stripped:
                continue
            if stripped[0] == "[":
                current = None
                if not stripped.endswith("]"):
                    diags.append(ParseDiagnostic(lineno, col, "malformed section header"))
                elif current := _parse_header(stripped[1:-1].split(), lineno, col, diags):
                    sections.setdefault(current.kind, []).append(current)
            elif "=" not in body:
                diags.append(ParseDiagnostic(lineno, col, "expected 'key = value' assignment"))
            else:
                key = body[: body.find("=")].strip()
                diags.append(ParseDiagnostic(lineno, col, f"invalid key {key!r}"))
            continue
        key, value = m[2], body[m.end() :].rstrip()
        if not value:
            diags.append(ParseDiagnostic(lineno, m.start(3) + 2, f"missing value for {key!r}"))
        elif current is None:
            diags.append(ParseDiagnostic(lineno, m.start(2) + 1, "assignment outside any section"))
        else:
            entry = _Entry(key, m.start(2) + 1, value, m.end() + 1, lineno)
            current.entries.append(entry)
            current.table.setdefault(key, []).append(entry)
    return sections


def _parse_header(
    parts: list[str], line: int, col: int, diags: list[ParseDiagnostic]
) -> _Section | None:
    if not parts:
        diags.append(ParseDiagnostic(line, col, "empty section header"))
        return None
    kind = parts[0]
    if kind in _SINGLE_SECTIONS:
        if len(parts) != 1:
            diags.append(
                ParseDiagnostic(line, col, f"section [{kind}] takes no name")
            )
            return None
        return _Section(kind, None, line, col)
    if kind in _NAMED_SECTIONS:
        if len(parts) != 2 or not _NAME_RE.fullmatch(parts[1]):
            diags.append(
                ParseDiagnostic(line, col, f"section [{kind}] needs one valid name")
            )
            return None
        return _Section(kind, parts[1], line, col)
    diags.append(ParseDiagnostic(line, col, f"unknown section [{kind}]"))
    return None


# ---------------------------------------------------------------------------
# Literal parsers.

def _split_items(value: str, base_col: int, separator: str) -> list[tuple[str, int]]:
    """Each ``separator``-separated item of ``value``, stripped, with the
    column where it starts, ``value`` starting at ``base_col``."""
    items: list[tuple[str, int]] = []
    col = base_col
    for chunk in value.split(separator):
        stripped = chunk.lstrip()
        items.append((stripped.rstrip(), col + len(chunk) - len(stripped)))
        col += len(chunk) + 1
    return items


def parse_complex_literal(token: str) -> complex | None:
    """``a``, ``bi``, ``a+bi`` or ``a-bi`` with decimal reals, else None."""
    m = _COMPLEX_RE.fullmatch(token)
    if m is None or not token:
        return None
    real, imag = m.groups()
    return complex(float(real or 0.0), float(imag or 0.0))


def _report_items(entry: _Entry, text: str, col: int, diags: list[ParseDiagnostic]) -> None:
    """Report each malformed comma-separated complex literal of ``text``, a
    part of ``entry``'s value starting at column ``col``."""
    for token, token_col in _split_items(text, col, ","):
        if parse_complex_literal(token) is None:
            diags.append(entry.error(f"malformed complex literal {token!r}", token_col))


def _literal_values(text: str) -> np.ndarray | None:
    """The items of a matrix literal (a vector without ';') whose items
    ``parse_complex_literal`` all reads, read in one pass by ``complex``, to
    the bit; else None, exactly when some item is malformed, which
    ``_report_items`` then reports.  ``complex`` rejects every malformed item
    but those these checks catch: a character outside the grammar, an empty
    item, a blank inside one (more items than separators), an ``i`` without
    digits."""
    # str.split() cuts at the same whitespace as str.strip
    packed = "".join(text.replace(";", ",").split())
    items = text.replace("i", "j").replace(",", " ").replace(";", " ").split()
    if (
        text.translate(_LITERAL_CHARS).strip()
        or not packed
        or packed[0] in ",i"
        or packed[-1] == ","
        or ",," in packed or ",i" in packed or "+i" in packed or "-i" in packed
        or len(items) != packed.count(",") + 1
    ):
        return None
    try:
        return np.array(list(map(complex, items)), dtype=np.complex128)
    except ValueError:
        return None


def _parse_vector(entry: _Entry, diags: list[ParseDiagnostic]) -> np.ndarray | None:
    # a ';' is malformed in every item that holds it
    values = None if ";" in entry.value else _literal_values(entry.value)
    if values is None:
        _report_items(entry, entry.value, entry.value_col, diags)
    return values


def _parse_matrix(entry: _Entry, diags: list[ParseDiagnostic]) -> np.ndarray | None:
    values = _literal_values(entry.value)
    if values is None:
        for row_text, row_col in _split_items(entry.value, entry.value_col, ";"):
            _report_items(entry, row_text, row_col, diags)
        return None
    widths = [row.count(",") + 1 for row in entry.value.split(";")]
    if any(width != len(widths) for width in widths):
        diags.append(entry.error("matrix must be square"))
        return None
    return values.reshape(len(widths), len(widths))


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(token)
    return value


#: number type -> (its name in diagnostics, its grammar, its reader of a token
#: the grammar matched, which raises ValueError where the number overflows)
_NUMBERS = {float: ("number", _REAL_RE, _finite), int: ("integer", _INT_RE, int)}


def _parse_number(
    entry: _Entry, diags: list[ParseDiagnostic], kind: type, token: str | None = None, col: int = 0
) -> float | int | None:
    """``token`` of ``entry``'s value, at column ``col``, read as ``kind``:
    a finite float or an int.  The whole value when ``token`` is None."""
    if token is None:
        token, col = entry.value, entry.value_col
    what, grammar, read = _NUMBERS[kind]
    if not grammar.fullmatch(token):
        diags.append(entry.error(f"malformed {what} {token!r}", col))
        return None
    try:
        return read(token)
    except ValueError:
        diags.append(entry.error(f"{what} {token!r} overflows", col))
        return None


def _parse_float_list(entry: _Entry, diags: list[ParseDiagnostic]) -> tuple[float, ...] | None:
    values: list[float] = []
    for token, col in _split_items(entry.value, entry.value_col, ","):
        value = _parse_number(entry, diags, float, token, col)
        if value is None:
            return None
        values.append(value)
    return tuple(values)


# ---------------------------------------------------------------------------
# Operator expressions.

class _ExprError(Exception):
    """An expression error at column ``col``, or at the value when None."""

    def __init__(self, col: int | None, message: str):
        super().__init__(message)
        self.col = col
        self.message = message


_EXPR_TOKEN_RE = re.compile(
    rf"(?P<number>{_REAL})|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[()+\-*/,])"
)


def _tokenize_expr(text: str, base_col: int) -> list[tuple[str, str, int]]:
    """(kind, text, column) of each token: a number, a name or a symbol."""
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _EXPR_TOKEN_RE.match(text, pos)
        if not m:
            raise _ExprError(base_col + pos, f"unexpected character {text[pos]!r}")
        tokens.append((m.lastgroup, m.group(), base_col + pos))
        pos = m.end()
    return tokens


_PAULIS = {"pauli_x": pauli_x, "pauli_y": pauli_y, "pauli_z": pauli_z}
#: binary symbol -> (its function on two scalars, on two operators)
_BINARY = {
    "+": (operator.add, np.add),
    "-": (operator.sub, np.subtract),
    "*": (operator.mul, np.matmul),
    "/": (operator.truediv, None),
}


def _apply(symbol: str, lhs, rhs, col: int):
    """``lhs symbol rhs`` of real scalars and operators (complex arrays),
    digit for digit as ``LinearOperator``'s arithmetic, and its errors: a
    result is checked finite, and a writable operand (any but a builtin's
    read-only entries) takes it in place."""
    scalar, operators = _BINARY[symbol]
    lhs_op, rhs_op = isinstance(lhs, np.ndarray), isinstance(rhs, np.ndarray)
    if not (lhs_op or rhs_op):
        return scalar(lhs, rhs)
    if symbol in "+-" and lhs_op != rhs_op:
        raise _ExprError(col, "cannot add a scalar and an operator")
    if symbol == "/" and rhs_op:
        raise _ExprError(col, "can only divide by a scalar")
    if lhs_op and rhs_op and lhs.shape != rhs.shape:
        raise _ExprError(col, "operator dimensions differ")
    if lhs_op and rhs_op and symbol != "*":
        out = lhs if lhs.flags.writeable else rhs if rhs.flags.writeable else None
        value = operators(lhs, rhs, out=out)
    elif lhs_op and rhs_op:
        value = lhs @ rhs
    else:
        op, factor = (lhs, complex(rhs)) if lhs_op else (rhs, complex(lhs))
        ufunc = np.multiply if symbol == "*" else np.divide
        value = ufunc(op, factor, out=op if op.flags.writeable else None)
    if not np.isfinite(value).all():
        raise _ExprError(None, "operator entries must be finite")
    return value


class _ExprParser:
    """Recursive-descent evaluator over real scalars (``float``) and
    operators (complex arrays, validated once, as the ``LinearOperator``
    the expression builds)."""

    def __init__(self, tokens, states: dict[str, StateVector], dim: int | None):
        self.tokens = tokens
        self.pos = 0
        self.states = states
        self.dim = dim
        self.depth = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        token = self._peek()
        if token is None:
            last = self.tokens[-1][2] if self.tokens else 1
            raise _ExprError(last, "unexpected end of expression")
        self.pos += 1
        return token

    def _expect_sym(self, sym: str):
        token = self._next()
        if token[0] != "sym" or token[1] != sym:
            raise _ExprError(token[2], f"expected {sym!r}")

    def parse(self):
        value = self._expr()
        trailing = self._peek()
        if trailing is not None:
            raise _ExprError(trailing[2], f"unexpected trailing {trailing[1]!r}")
        return value

    def _expr(self):
        return self._binary("+-", self._term)

    def _term(self):
        return self._binary("*/", self._unary)

    def _binary(self, symbols: str, operand):
        """``operand`` values joined left to right by the symbols in ``symbols``."""
        value = operand()
        while (tok := self._peek()) and tok[0] == "sym" and tok[1] in symbols:
            self._next()
            rhs = operand()
            if tok[1] == "/" and not isinstance(rhs, np.ndarray) and rhs == 0:
                raise _ExprError(tok[2], "division by zero")
            value = _apply(tok[1], value, rhs, tok[2])
        return value

    def _unary(self):
        # every recursion of the grammar passes here; an error abandons the
        # parser, so only a return undoes the count
        self.depth += 1
        if self.depth > _MAX_EXPR_DEPTH:
            raise _ExprError(self.tokens[self.pos - 1][2], "expression too deeply nested")
        value = self._operand()
        self.depth -= 1
        return value

    def _operand(self):
        kind, text, col = self._next()
        if kind == "sym" and text == "-":
            return -self._unary()
        if kind == "number":
            return float(text)
        if kind == "sym" and text == "(":
            value = self._expr()
            self._expect_sym(")")
            return value
        if kind == "name":
            return self._named(text, col)
        raise _ExprError(col, f"unexpected {text!r}")

    def _named(self, name: str, col: int):
        if name in _PAULIS:
            return _PAULIS[name]().entries
        if name == "identity":
            self._expect_sym("(")
            arg = self._next()
            if arg[0] != "number" or not float(arg[1]).is_integer():
                raise _ExprError(arg[2], "identity needs an integer dimension")
            self._expect_sym(")")
            n = int(float(arg[1]))
            if not 1 <= n <= _MAX_DIM:
                raise _ExprError(arg[2], f"identity dimension must be in [1, {_MAX_DIM}]")
            if self.dim is not None and n != self.dim:  # rejected before it is allocated
                raise _ExprError(arg[2], f"identity is {n}-dimensional, system dim is {self.dim}")
            return np.eye(n, dtype=np.complex128)  # the entries of identity(n)
        if name == "projector":
            self._expect_sym("(")
            arg = self._next()
            if arg[0] != "name":
                raise _ExprError(arg[2], "projector needs a state name")
            self._expect_sym(")")
            state = self.states.get(arg[1])
            if state is None:
                raise _ExprError(arg[2], f"unresolved state {arg[1]!r}")
            if not state.amps.any():
                raise _ExprError(arg[2], f"cannot project onto the zero state {arg[1]!r}")
            return projector(state).entries
        if name == "sqrt":
            self._expect_sym("(")
            value = self._expr()
            self._expect_sym(")")
            if isinstance(value, np.ndarray) or value < 0:
                raise _ExprError(col, "sqrt needs a non-negative scalar")
            return math.sqrt(value)
        raise _ExprError(col, f"unknown operator builtin {name!r}")


def _eval_operator_expr(
    entry: _Entry, states: dict, dim: int | None, diags: list[ParseDiagnostic]
) -> np.ndarray | None:
    try:
        # a value is never blank, so it has a token or an unexpected character
        tokens = _tokenize_expr(entry.value, entry.value_col)
        with np.errstate(all="ignore"):  # every operator is checked finite
            value = _ExprParser(tokens, states, dim).parse()
    except _ExprError as err:
        diags.append(entry.error(err.message, err.col))
        return None
    if not isinstance(value, np.ndarray):
        diags.append(entry.error("expression is not an operator"))
        return None
    return value


# ---------------------------------------------------------------------------
# Section builders.

def _needs_key(section: _Section, key: str) -> ParseDiagnostic:
    return section.error(f"section [{section.kind}] needs key {key!r}")


def _read_section(
    section: _Section,
    keys: tuple[str, ...],
    diags: list[ParseDiagnostic],
    required: tuple[str, ...] = (),
    repeatable: tuple[str, ...] = (),
) -> dict[str, list[_Entry]] | None:
    """The section's entries by key, as the scan filed them.  None after
    reporting each key not in ``keys`` and each repeat of a key not
    ``repeatable``, in file order, or else each missing ``required`` key."""
    table, seen, errors = section.table, set(), len(diags)
    for entry in section.entries:
        if entry.key not in keys:
            diags.append(entry.error(f"unknown key {entry.key!r} in section [{section.kind}]",
                                     entry.key_col))
        elif entry.key in seen and entry.key not in repeatable:
            diags.append(entry.error(f"duplicate key {entry.key!r}", entry.key_col))
        seen.add(entry.key)
    if len(diags) > errors:
        return None
    missing = [_needs_key(section, key) for key in required if key not in table]
    diags += missing
    return None if missing else table


def _read_choice(
    entry: _Entry, what: str, choices: tuple[str, ...], diags: list[ParseDiagnostic]
) -> str | None:
    if entry.value in choices:
        return entry.value
    diags.append(
        entry.error(f"unknown {what} {entry.value!r}; expected one of {', '.join(choices)}")
    )
    return None


def _read_names(
    entry: _Entry,
    known: Container[str],
    what: str,
    arity: int | None,
    diags: list[ParseDiagnostic],
) -> tuple[str, ...] | None:
    """A name list of ``arity`` names (None: any number); each name not in
    ``known`` is reported as an unresolved ``what``, but still returned."""
    names = _split_items(entry.value, entry.value_col, ",")
    for token, col in names:
        if not _NAME_RE.fullmatch(token):
            diags.append(entry.error(f"invalid name {token!r}", col))
            return None
    if arity is not None and len(names) != arity:
        diags.append(entry.error(f"{entry.key} takes one name"))
        return None
    for name, col in names:
        if name not in known:
            diags.append(entry.error(f"unresolved {what} {name!r}", col))
    return tuple(name for name, _ in names)


_LABEL_MODE = r"([A-Za-z_][A-Za-z0-9_]*):([0-9]+)"
_LABEL_MODE_RE = re.compile(_LABEL_MODE)
_DETECTORS_RE = re.compile(rf"{_LABEL_MODE}(?:\s*,\s*{_LABEL_MODE})*")


def _label_mode_pairs(text: str) -> tuple[tuple[str, int], ...]:
    """The label:mode pairs of ``text``, which a grammar matched."""
    return tuple((label, int(mode)) for label, mode in _LABEL_MODE_RE.findall(text))


class _StepRule(NamedTuple):
    make: Callable
    fields: dict[str, type]  # name -> type, which the arguments fill in order
    grammar: re.Pattern  # of the whole value
    read: Callable  # its match -> the arguments; ValueError where a number overflows
    usage: str = ""


def _numbers_rule(keyword: str, make, usage: str, read: Callable) -> _StepRule:
    """The rule of a step of number fields, which ``read`` reads from their match."""
    fields = get_type_hints(make)
    args = "".join(rf"\s+({_NUMBERS[kind][1].pattern})" for kind in fields.values())
    return _StepRule(make, fields, re.compile(keyword + args), read, usage)


#: network step keyword -> its rule
_STEPS = {
    "beam_splitter": _numbers_rule("beam_splitter", BeamSplitter, "mode mode t",
                                   lambda m: (int(m[1]), int(m[2]), _finite(m[3]))),
    "phase_shift": _numbers_rule("phase_shift", PhaseShift, "mode phase",
                                 lambda m: (int(m[1]), _finite(m[2]))),
    "slice": _StepRule(TimeSlice, {"arms": tuple}, re.compile(rf"slice((?:\s+{_LABEL_MODE})+)"),
                       lambda m: (_label_mode_pairs(m[1]),)),
}


def _label_modes(entry: _Entry, tokens: list, what: str, diags: list[ParseDiagnostic]) -> None:
    """Report each malformed ``label:mode`` token of ``entry``."""
    for token, col in tokens:
        m = _LABEL_MODE_RE.fullmatch(token)
        if not m:
            diags.append(entry.error(f"malformed {what} {token!r} (want label:mode)", col))
        else:
            _parse_number(entry, diags, int, m.group(2), col + m.start(2))


def _token_columns(entry: _Entry) -> list[tuple[str, int]]:
    return [(m.group(), entry.value_col + m.start()) for m in _TOKEN_RE.finditer(entry.value)]


def _read_step(entry: _Entry, diags: list[ParseDiagnostic]):
    """The step ``entry`` states, read by one match of its keyword's grammar
    and built; else None, after reporting why at the token at fault, whose
    column is found only then."""
    keyword = entry.value.split(None, 1)[0]
    rule = _STEPS.get(keyword)
    m = rule and rule.grammar.fullmatch(entry.value)
    try:
        args = m and rule.read(m)
    except ValueError:  # a number that overflows
        args = None
    if args:
        try:
            return rule.make(*args)
        except FieldError as err:
            diags.append(entry.error(str(err), _step_column(entry, err.path)))
            return None
    (_, kcol), *args = _token_columns(entry)
    if rule is None:
        diags.append(entry.error(f"unknown network step {keyword!r}", kcol))
    elif keyword == "slice":
        if not args:
            diags.append(entry.error("empty slice", kcol))
        _label_modes(entry, args, "arm", diags)
    elif len(args) != len(rule.fields):
        diags.append(entry.error(f"{keyword} needs: {rule.usage}", kcol))
    else:  # a token that Python cannot read as its type makes the whole step malformed
        kinds = rule.fields.values()
        try:
            for kind, (token, _) in zip(kinds, args):
                kind(token)
        except ValueError:
            diags.append(entry.error(f"malformed {keyword} args", args[0][1]))
        else:  # each token against the file's grammars, which have no inf, nan or 0_0
            for kind, (token, col) in zip(kinds, args):
                _parse_number(entry, diags, kind, token, col)
    return None


def _step_column(entry: _Entry, path: tuple) -> int:
    """The column of the argument of ``entry``'s step that a FieldError's
    ``path`` inside the step names: a field, or an arm of a slice."""
    rule = _STEPS[entry.value.split(None, 1)[0]]
    index = list(rule.fields).index(path[0]) + (path[1] if path[0] == "arms" else 0)
    return _token_columns(entry)[1 + index][1]


def _build_network(section: _Section, dim: int, diags: list) -> OpticalNetwork | None:
    """Only lexical checks and ``modes == dim`` are made here, each step read
    by one grammar match; the network objects check their own rules and
    raise a FieldError, whose path is mapped to its token only then."""
    keys = ("modes", "source", "detectors", "postselect")
    table = _read_section(section, (*keys, "seq"), diags, required=keys, repeatable=("seq",))
    if table is None:
        return None
    modes_entry, source_entry, detectors_entry, postselect_entry = (table[key][0] for key in keys)
    n_modes = _parse_number(modes_entry, diags, int)
    source = _parse_number(source_entry, diags, int)
    if n_modes is None or source is None:
        return None
    if n_modes != dim:
        diags.append(modes_entry.error(f"network has {n_modes} modes but the system dim is {dim}"))
        return None
    errors = len(diags)
    seq = table.get("seq", [])
    steps = [_read_step(entry, diags) for entry in seq]
    detectors, value, col = None, detectors_entry.value, detectors_entry.value_col
    with contextlib.suppress(ValueError):  # an int of more digits than Python reads
        detectors = _DETECTORS_RE.fullmatch(value) and _label_mode_pairs(value)
    if not detectors:
        _label_modes(detectors_entry, _split_items(value, col, ","), "detector", diags)
    if len(diags) > errors:
        return None
    try:
        return OpticalNetwork(n_modes, tuple(steps), source, detectors, postselect_entry.value)
    except FieldError as err:
        head, *at = err.path
        if head == "steps":
            diags.append(seq[at[0]].error(str(err), _step_column(seq[at[0]], at[1:])))
        elif head == "detectors":
            diags.append(detectors_entry.error(str(err), _split_items(value, col, ",")[at[0]][1]))
        else:
            entries = {"n_modes": modes_entry, "source_mode": source_entry}
            diags.append(entries.get(head, postselect_entry).error(str(err)))
        return None


#: pointer kind -> (the keys it reads besides kind, the required ones, its factory)
_POINTER_KINDS = {
    GAUSSIAN_KIND: (("spread", "n_points", "half_width"), ("spread",), gaussian_pointer),
    QUBIT_KIND: (("generator_axis",), (), qubit_pointer),
}
#: pointer key -> the type of its value
_POINTER_VALUES = {"spread": float, "n_points": int, "half_width": float, "generator_axis": str}


def _build_pointer(section: _Section, diags: list[ParseDiagnostic]) -> PointerModel | None:
    kind = section.table.get("kind", [None])[0]
    if kind is not None and kind.value in _POINTER_KINDS:
        keys, required, make = _POINTER_KINDS[kind.value]
        allowed = keys
    else:  # missing, which the reader reports, or unknown, which PointerModel does
        keys, required, allowed = (), (), tuple(_POINTER_VALUES)
        make = lambda: PointerModel(kind.value)  # noqa: E731
    table = _read_section(section, ("kind", *allowed), diags, required=("kind", *required))
    if table is None:
        return None
    fields: dict = {}
    for key in keys:
        if key in table:
            entry, kind = table[key][0], _POINTER_VALUES[key]
            fields[key] = entry.value if kind is str else _parse_number(entry, diags, kind)
            if fields[key] is None:
                return None
    try:
        return make(**fields)
    except FieldError as err:  # at the value of its field's key, else at the header
        entries = table.get(err.path[0]) if err.path else None
        diags.append(entries[0].error(str(err)) if entries else section.error(str(err)))
        return None


#: the [experiment] keys holding numbers, which ``plan`` checks at their position
_NUMBER_KEYS = {
    "g_schedule": _parse_float_list,
    "spread_schedule": _parse_float_list,
    "fixed_g": lambda entry, diags: _parse_number(entry, diags, float),
    "fixed_spread": lambda entry, diags: _parse_number(entry, diags, float),
}


def _build_experiment(
    section: _Section,
    operators: dict[str, LinearOperator],
    network: OpticalNetwork | None,
    diags: list[ParseDiagnostic],
) -> ExperimentPlan | None:
    plan_entry = section.table.get("plan", [None])[0]
    if plan_entry is None:
        diags.append(_needs_key(section, "plan"))
        return None
    kind = _read_choice(plan_entry, "plan", PLAN_KINDS, diags)
    if kind is None:
        return None
    rules = _PLANS[kind]
    table = _read_section(section, ("plan", *rules.keys), diags, required=rules.required)
    if table is None:
        return None
    arms = network.arm_labels if network is not None else ()
    read = {
        rules.observable_key: lambda entry: _read_names(
            entry, operators, "operator", rules.observable_arity, diags
        ),
        "metric": lambda entry: _read_choice(entry, "metric", tuple(METRICS), diags),
        "arms": lambda entry: _read_names(entry, arms, "arm", None, diags),
    }
    errors = len(diags)
    fields: dict = {}
    for key in rules.keys:
        if key not in table:
            continue
        entry = table[key][0]
        value = _NUMBER_KEYS[key](entry, diags) if key in _NUMBER_KEYS else read[key](entry)
        if value is None:
            return None
        fields["observables" if key == rules.observable_key else key] = value
    if len(diags) > errors:  # unresolved names
        return None
    return ExperimentPlan(kind=kind, **fields)


def _read_named(sections: list[_Section], readers: dict, dim: int | None, diags: list) -> dict:
    """The domain objects of named sections of one kind, by name.  A section
    holds exactly one key of ``readers`` (a lone key is required), whose
    reader maps its entry to a value or to None."""
    keys = tuple(readers)
    objects: dict = {}
    for section in sections:
        kind, name = section.kind, section.name
        make, mismatch = _NAMED_SECTIONS[kind]
        if name in objects:
            diags.append(section.error(f"duplicate {kind} {name!r}"))
            continue
        table = _read_section(section, keys, diags, required=keys if len(keys) == 1 else ())
        if table is None:
            continue
        if len(table) != 1:
            choices = " or ".join(map(repr, keys))
            diags.append(section.error(f"{kind} {name!r} needs exactly one of {choices}"))
            continue
        [(key, [entry])] = table.items()
        value = readers[key](entry, diags)
        if value is None:
            continue
        if dim is not None and len(value) != dim:
            diags.append(entry.error(mismatch.format(name=name, n=len(value), dim=dim)))
            continue
        try:
            objects[name] = make(value)
        except ValueError as err:
            diags.append(entry.error(str(err)))
    return objects


# ---------------------------------------------------------------------------
# parse / validate / serialize.

def parse(text: str) -> ScenarioResult:
    """Parse scenario text into a document, or into diagnostics.

    Never raises and never returns a partial document: ``doc`` is None
    whenever any error diagnostic was produced.
    """
    diags: list[ParseDiagnostic] = []
    by_kind = _scan(text, diags)
    for kind in _SINGLE_SECTIONS:
        for extra in by_kind.get(kind, [])[1:]:
            diags.append(extra.error(f"duplicate section [{kind}]"))

    dim: int | None = None
    if "system" not in by_kind:
        if not diags:
            diags.append(ParseDiagnostic(1, 1, "missing [system] section"))
    else:
        table = _read_section(by_kind["system"][0], ("dim",), diags, required=("dim",))
        if table is not None:
            entry = table["dim"][0]
            parsed = _parse_number(entry, diags, int)
            if parsed is not None and not 1 <= parsed <= _MAX_DIM:
                diags.append(entry.error(f"dim must be in [1, {_MAX_DIM}]"))
            elif parsed is not None:
                dim = parsed

    # each named section: duplicate name, keys, value, dim check, domain
    # constructor (its ValueError reported at the value), position
    states = _read_named(by_kind.get("state", []), {"amps": _parse_vector}, dim, diags)
    expr = lambda entry, diags: _eval_operator_expr(entry, states, dim, diags)  # noqa: E731
    readers = {"matrix": _parse_matrix, "expr": expr}
    operators = _read_named(by_kind.get("operator", []), readers, dim, diags)

    pointer = None
    if "pointer" in by_kind:
        pointer = _build_pointer(by_kind["pointer"][0], diags)

    selection = None
    if "selection" in by_kind:
        table = _read_section(
            by_kind["selection"][0], ("pre", "post"), diags, required=("pre", "post")
        )
        if table is not None:
            pre, post = table["pre"][0], table["post"][0]
            unresolved = [entry for entry in (pre, post) if entry.value not in states]
            diags += [entry.error(f"unresolved state {entry.value!r}") for entry in unresolved]
            selection = None if unresolved else (pre.value, post.value)

    network = None
    if "network" in by_kind and dim is not None:
        network = _build_network(by_kind["network"][0], dim, diags)

    experiment = None
    if "experiment" not in by_kind:
        if not diags:
            diags.append(ParseDiagnostic(1, 1, "missing [experiment] section"))
    else:
        experiment = _build_experiment(by_kind["experiment"][0], operators, network, diags)

    if experiment is not None:
        section = by_kind["experiment"][0]
        available = {"selection": selection, "pointer": pointer, "network": network}
        for requirement in _PLANS[experiment.kind].sections:
            if available[requirement] is None and not diags:
                message = f"plan {experiment.kind!r} needs a [{requirement}] section"
                diags.append(section.error(message))

    # parse reports errors only
    if diags or dim is None or experiment is None:
        return ScenarioResult(None, tuple(diags))
    doc = ScenarioDoc(dim, states, operators, pointer, selection, network, experiment, by_kind)
    return ScenarioResult(doc, tuple(diags))


def _coupling_fault(
    pointer: PointerModel, g_values, lam: float, readout: bool, traces: bool
) -> str | None:
    """Why coupling ``pointer`` at ``g_values`` to observables of largest
    |eigenvalue| ``lam`` gives no trustworthy number, or None: a shift that
    carries a Gaussian's tails, 8 spreads out, around the periodic grid,
    in a readout a smallest shift lost in <Q>'s roundoff, and in a weak
    trace a smallest phase whose weight underflows (``trace_phase_fault``)."""
    shift, least = max(g_values) * lam, min(g_values) * lam
    if pointer.kind == QUBIT_KIND:
        where, roundoff, label, accuracy = (
            "qubit pointer", math.ulp(1.0), "eps", QUBIT_READOUT_ACCURACY
        )
    else:
        spread, half_width = pointer.spread, pointer.half_width
        where = f"pointer at spread {spread!r}"
        if shift + 8.0 * spread > half_width:
            return (f"{where}: largest shift {shift!r} (g_max max|lambda|) plus 8 spreads "
                    f"exceeds half_width {half_width!r}: it wraps around the grid")
        roundoff, label = math.ulp(1.0) * half_width, "eps half_width"
        accuracy = READOUT_ACCURACY
    fault = trace_phase_fault(pointer, g_values) if traces else None
    if fault is not None:
        return f"{where}: {fault}"
    if readout and lam > 0 and roundoff > accuracy * least:
        return (f"{where}: readout roundoff {roundoff:.3g} ({label}) exceeds {accuracy} of "
                f"the smallest shift {least!r} (g_min max|lambda|)")
    return None


def plan(doc: ScenarioDoc, kind: str, flags: Mapping | None = None) -> PlanResult:
    """The run of ``doc`` as plan ``kind`` (its own, or the one its
    subcommand runs in its place), built before any evolution.

    Selection states must be normalized (within ``AUTO_NORMALIZE_WINDOW``
    they are, with a warning) and observables hermitian.  The g-schedule
    is the geometric one of ``flags`` ({"g_max", "g_min", "points"} ->
    value or None) when any is set, the rest at ``default_g_decade``'s
    defaults, else the file's, else the plan's default, checked by plan
    ``kind``'s rules.
    Every pointer the run couples is built, and each must pass
    ``_coupling_fault`` (a qubit only where the run reads it out).  The
    file's warnings and errors come back as diagnostics at their
    line:column; an error of the flags, once the file has none, as
    ``flag_error``.
    """
    diags: list[ParseDiagnostic] = []
    experiment, rules = doc.experiment, _PLANS[kind]

    def _at(message: str, *keys: str, severity: str = "error") -> ParseDiagnostic:
        """A diagnostic at the first of ``keys`` the file holds, else at 1:1."""
        places = (doc.position(*key.split(":")) for key in keys)
        where = next((place for place in places if place is not None), (1, 1))
        return ParseDiagnostic(*where, message, severity)

    states = {}
    for name in dict.fromkeys(doc.selection or ()):  # pre, then post
        state = states[name] = doc.states[name]
        if state.normalized:
            continue
        norm = state.norm()
        if abs(norm - 1.0) < AUTO_NORMALIZE_WINDOW:
            message = f"state {name!r} auto-normalized (norm was off by {abs(norm - 1.0):.2e})"
            diags.append(_at(message, f"state:{name}", severity="warning"))
            states[name] = state.unit()
        else:
            diags.append(_at(f"state {name!r} is not normalized (norm {norm!r})", f"state:{name}"))
    for name in experiment.observables:
        if not doc.operators[name].hermitian:
            diags.append(_at(f"observable {name!r} is not hermitian", f"operator:{name}"))

    def _schedule(key: str, make):
        values = getattr(experiment, key)
        try:
            return None if values is None else make(values)
        except ScheduleError as err:  # reported, and no schedule
            diags.append(_at(str(err), f"experiment:{key}"))

    file_g = _schedule("g_schedule", lambda v: GSchedule(v, rules.min_points, rules.span_decade))
    spreads = _schedule("spread_schedule", SpreadSchedule)
    fixed_g = DEFAULT_FIXED_COUPLING if experiment.fixed_g is None else experiment.fixed_g
    if fixed_g <= 0:
        diags.append(_at("fixed_g must be positive", "experiment:fixed_g"))
    pointer, spread_pointers = doc.pointer, []
    if rules.needs_gaussian and pointer.kind != GAUSSIAN_KIND:
        diags.append(_at(f"{kind} needs a {GAUSSIAN_KIND} pointer", "pointer:kind"))
    elif rules.needs_gaussian:
        fixed = experiment.fixed_spread
        try:
            pointer, *spread_pointers = limit_pointers(
                spreads or DEFAULT_SPREADS,
                DEFAULT_FIXED_SPREAD if fixed is None else fixed,
                pointer.n_points,
            )
        except FieldError as err:  # the first pointer it cannot build stops the run there
            source = "pointer" if err.path == ("n_points",) else "experiment"
            diags.append(_at(str(err), f"{source}:{err.path[0]}"))
    if any(d.severity == "error" for d in diags):
        return PlanResult(None, tuple(diags))

    given = {key: value for key, value in (flags or {}).items() if value is not None}
    try:
        g_schedule = (
            default_g_decade(**given, min_points=rules.min_points, span_decade=rules.span_decade)
            if given
            else file_g or (default_g_schedule(pointer) if rules.readout else default_g_decade())
        )
    except ScheduleError as err:
        return PlanResult(None, tuple(diags), str(err))

    observables = tuple((name, doc.operators[name]) for name in sorted(experiment.observables))
    entries = [op.entries for _, op in observables]
    traces = "network" in rules.sections  # a plan that reads weak traces
    if pointer.kind == GAUSSIAN_KIND or rules.readout or traces:
        # a trace couples arm projectors, whose eigenvalues are 0 and 1.  With
        # F the largest Frobenius norm, max|lambda| lies in [F / sqrt(dim), F]:
        # the spectrum is taken only where those bounds leave a guard open
        norm = max((math.sqrt(np.vdot(e, e).real) for e in entries), default=1.0)
        bounds = (norm * (1 + FROBENIUS_MARGIN), norm / math.sqrt(doc.dim) * (1 - FROBENIUS_MARGIN))
        couplings = [(pointer, g_schedule, "g_schedule", bool(given))]
        couplings += [(p, (fixed_g,), "fixed_g", False) for p in spread_pointers]
        for model, g_values, key, flagged in couplings:
            if not any(_coupling_fault(model, g_values, b, rules.readout, traces) for b in bounds):
                continue
            lam = max((float(np.abs(np.linalg.eigvalsh(e)).max()) for e in entries), default=1.0)
            fault = _coupling_fault(model, g_values, lam, rules.readout, traces)
            if fault is not None and flagged:
                return PlanResult(None, tuple(diags), fault)
            if fault is not None:
                where = _at(fault, f"experiment:{key}", "pointer:half_width", "pointer:spread")
                return PlanResult(None, (*diags, where))

    selection = PrePostSelection(*map(states.get, doc.selection)) if doc.selection else None
    arms = tuple(sorted(experiment.arms or doc.network.arm_labels)) if doc.network else ()
    run = RunPlan(
        g_schedule=g_schedule, pointer=pointer, spread_pointers=tuple(spread_pointers),
        selection=selection, observables=observables, metric=METRICS.get(experiment.metric),
        network=doc.network, arms=arms, fixed_g=fixed_g,
    )
    return PlanResult(run, tuple(diags))


def _format_real(x: float) -> str:
    return repr(float(x))


def _format_value(value) -> str:
    """A key's value as the parser reads it: reals by ``repr``, lists
    comma-separated."""
    if isinstance(value, tuple):
        return ", ".join(_format_value(item) for item in value)
    return _format_real(value) if isinstance(value, float) else str(value)


def _format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return _format_real(z.real)
    if z.real == 0:
        return _format_real(z.imag) + "i"
    sign = "+" if z.imag > 0 else "-"
    return f"{_format_real(z.real)}{sign}{_format_real(abs(z.imag))}i"


def _format_complex_list(values) -> str:
    return ", ".join(_format_complex(z) for z in values)


def serialize(doc: ScenarioDoc) -> str:
    """Render a document back to scenario text (matrix literals throughout)."""
    lines = [VERSION_LINE, "", "[system]", f"dim = {doc.dim}"]
    for name, state in doc.states.items():
        lines += ["", f"[state {name}]", f"amps = {_format_complex_list(state.amps)}"]
    for name, op in doc.operators.items():
        rows = "; ".join(_format_complex_list(row) for row in op.entries)
        lines += ["", f"[operator {name}]", f"matrix = {rows}"]
    if doc.pointer is not None:
        lines += ["", "[pointer]", f"kind = {doc.pointer.kind}"]
        for key in _POINTER_KINDS[doc.pointer.kind][0]:
            lines.append(f"{key} = {_format_value(getattr(doc.pointer, key))}")
    if doc.selection is not None:
        lines += ["", "[selection]", f"pre = {doc.selection[0]}", f"post = {doc.selection[1]}"]
    if doc.network is not None:
        net = doc.network
        lines += ["", "[network]", f"modes = {net.n_modes}", f"source = {net.source_mode}"]
        for step in net.steps:
            keyword = next(key for key, rule in _STEPS.items() if isinstance(step, rule.make))
            if isinstance(step, TimeSlice):
                args = " ".join(f"{label}:{mode}" for label, mode in step.arms)
            else:
                args = " ".join(map(_format_value, astuple(step)))
            lines.append(f"seq = {keyword} {args}")
        detectors = ", ".join(f"{label}:{mode}" for label, mode in net.detectors)
        lines += [f"detectors = {detectors}", f"postselect = {net.postselect_detector}"]
    experiment = doc.experiment
    rules = _PLANS[experiment.kind]
    lines += ["", "[experiment]", f"plan = {experiment.kind}"]
    for key in rules.keys:
        value = getattr(experiment, "observables" if key == rules.observable_key else key)
        if value not in (None, ()):
            lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def corpus_names() -> tuple[str, ...]:
    """Names of the shipped scenario files (without extension)."""
    root = resources.files(__package__) / "scenarios"
    return tuple(
        sorted(p.name[: -len(".scn")] for p in root.iterdir() if p.name.endswith(".scn"))
    )


def load_corpus_text(name: str) -> str:
    path = resources.files(__package__) / "scenarios" / f"{name}.scn"
    return path.read_text(encoding="utf-8")


def load_corpus(name: str) -> ScenarioDoc:
    """Parse a shipped scenario and check that it plans; raises on internal
    corpus bugs."""
    parsed = parse(load_corpus_text(name))
    if not parsed.ok:
        raise RuntimeError(f"corpus scenario {name!r} failed to parse: {parsed.diagnostics}")
    planned = plan(parsed.doc, parsed.doc.experiment.kind)
    if planned.plan is None:
        raise RuntimeError(f"corpus scenario {name!r} failed validation: {planned.diagnostics}")
    return parsed.doc
