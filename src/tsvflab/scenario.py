"""Plain-text scenario format: parser, validator, and serializer.

A scenario file is line oriented.  The first line must be the version
stamp ``tsvf-scenario v1``.  Comments run from ``#`` to the end of the
line.  Sections are ``[system]``, ``[state <name>]``, ``[operator
<name>]``, ``[pointer]``, ``[selection]``, ``[network]`` and
``[experiment]``; their bodies are ``key = value`` assignments.

Values: complex literals are ``a``, ``bi``, ``a+bi`` or ``a-bi`` with
decimal reals; vectors are comma-separated complex lists; matrices are
``;``-separated rows.  Operators may instead be built from an expression
over ``pauli_x``, ``pauli_y``, ``pauli_z``, ``identity(n)``,
``projector(<state>)`` with ``+ - *`` arithmetic, real scalars, ``sqrt``
and scalar division, e.g. ``(pauli_z + pauli_x) / sqrt(2)``.

Parsing is total: any input yields either a document or diagnostics with
1-based line/column positions, never an exception and never a partial
document.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from .errors import FieldError, ScheduleError
from .interferometer import (
    BeamSplitter,
    OpticalNetwork,
    PhaseShift,
    TimeSlice,
)
from .pointer import GAUSSIAN_KIND, PointerModel, gaussian_pointer
from .qcore import (
    LinearOperator,
    StateVector,
    identity,
    pauli_x,
    pauli_y,
    pauli_z,
    projector,
)
from .schedule import GSchedule, SpreadSchedule

VERSION_LINE = "tsvf-scenario v1"

PLAN_KINDS = ("weakvalue", "sweep", "trace", "presence", "compare_limits")
METRIC_NAMES = ("continuity", "derail", "first_order_residual", "overlap_deficit")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_UNSIGNED_REAL = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_REAL = rf"[+-]?{_UNSIGNED_REAL}"
_COMPLEX_BOTH_RE = re.compile(rf"({_REAL})([+-]{_UNSIGNED_REAL})i\Z")
_COMPLEX_IMAG_RE = re.compile(rf"({_REAL})i\Z")
_COMPLEX_REAL_RE = re.compile(rf"({_REAL})\Z")

_MAX_EXPR_DEPTH = 64


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
    positions: dict[str, tuple[int, int]] = field(repr=False, default_factory=dict)


@dataclass(frozen=True)
class ScenarioResult:
    doc: ScenarioDoc | None
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.doc is not None


# ---------------------------------------------------------------------------
# Raw line scanning.

@dataclass
class _Entry:
    key: str
    key_col: int
    value: str
    value_col: int
    line: int


@dataclass
class _Section:
    kind: str
    name: str | None
    line: int
    col: int
    entries: list[_Entry]


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _scan(text: str, diags: list[ParseDiagnostic]) -> list[_Section]:
    lines = text.splitlines()
    if not lines or _strip_comment(lines[0]).strip() != VERSION_LINE:
        diags.append(
            ParseDiagnostic(1, 1, f"first line must be {VERSION_LINE!r}")
        )
        return []

    sections: list[_Section] = []
    current: _Section | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
        body = _strip_comment(raw)
        stripped = body.strip()
        if not stripped:
            continue
        indent = len(body) - len(body.lstrip())
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                diags.append(ParseDiagnostic(lineno, indent + 1, "malformed section header"))
                current = None
                continue
            parts = stripped[1:-1].split()
            section = _parse_header(parts, lineno, indent + 1, diags)
            if section is None:
                current = None
                continue
            current = section
            sections.append(section)
            continue
        eq = body.find("=")
        if eq < 0:
            diags.append(
                ParseDiagnostic(lineno, indent + 1, "expected 'key = value' assignment")
            )
            continue
        key = body[:eq].strip()
        if not key or not _NAME_RE.fullmatch(key):
            diags.append(ParseDiagnostic(lineno, indent + 1, f"invalid key {key!r}"))
            continue
        key_col = body.index(key) + 1
        value_part = body[eq + 1 :]
        value = value_part.strip()
        if not value:
            diags.append(ParseDiagnostic(lineno, eq + 2, f"missing value for {key!r}"))
            continue
        value_col = eq + 2 + (len(value_part) - len(value_part.lstrip()))
        if current is None:
            diags.append(
                ParseDiagnostic(lineno, key_col, "assignment outside any section")
            )
            continue
        current.entries.append(_Entry(key, key_col, value, value_col, lineno))
    return sections


def _parse_header(
    parts: list[str], line: int, col: int, diags: list[ParseDiagnostic]
) -> _Section | None:
    if not parts:
        diags.append(ParseDiagnostic(line, col, "empty section header"))
        return None
    kind = parts[0]
    if kind in ("system", "pointer", "selection", "network", "experiment"):
        if len(parts) != 1:
            diags.append(
                ParseDiagnostic(line, col, f"section [{kind}] takes no name")
            )
            return None
        return _Section(kind, None, line, col, [])
    if kind in ("state", "operator"):
        if len(parts) != 2 or not _NAME_RE.fullmatch(parts[1]):
            diags.append(
                ParseDiagnostic(line, col, f"section [{kind}] needs one valid name")
            )
            return None
        return _Section(kind, parts[1], line, col, [])
    diags.append(ParseDiagnostic(line, col, f"unknown section [{kind}]"))
    return None


# ---------------------------------------------------------------------------
# Literal parsers.

def _split_items(value: str, base_col: int, separator: str) -> list[tuple[str, int]]:
    items: list[tuple[str, int]] = []
    start = 0
    while True:
        cut = value.find(separator, start)
        chunk = value[start : cut if cut >= 0 else len(value)]
        lead = len(chunk) - len(chunk.lstrip())
        items.append((chunk.strip(), base_col + start + lead))
        if cut < 0:
            return items
        start = cut + 1


def parse_complex_literal(token: str) -> complex | None:
    """``a``, ``bi``, ``a+bi`` or ``a-bi`` with decimal reals, else None."""
    m = _COMPLEX_BOTH_RE.fullmatch(token)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    m = _COMPLEX_IMAG_RE.fullmatch(token)
    if m:
        return complex(0.0, float(m.group(1)))
    m = _COMPLEX_REAL_RE.fullmatch(token)
    if m:
        return complex(float(m.group(1)), 0.0)
    return None


def _parse_vector(entry: _Entry, diags: list[ParseDiagnostic]) -> np.ndarray | None:
    values: list[complex] = []
    ok = True
    for token, col in _split_items(entry.value, entry.value_col, ","):
        parsed = parse_complex_literal(token) if token else None
        if parsed is None:
            diags.append(
                ParseDiagnostic(entry.line, col, f"malformed complex literal {token!r}")
            )
            ok = False
            continue
        values.append(parsed)
    return np.array(values, dtype=np.complex128) if ok and values else None


def _parse_matrix(entry: _Entry, diags: list[ParseDiagnostic]) -> np.ndarray | None:
    rows: list[list[complex]] = []
    ok = True
    for row_text, row_col in _split_items(entry.value, entry.value_col, ";"):
        row: list[complex] = []
        for token, col in _split_items(row_text, row_col, ","):
            parsed = parse_complex_literal(token) if token else None
            if parsed is None:
                diags.append(
                    ParseDiagnostic(
                        entry.line, col, f"malformed complex literal {token!r}"
                    )
                )
                ok = False
                continue
            row.append(parsed)
        rows.append(row)
    if not ok or not rows:
        return None
    width = len(rows[0])
    if any(len(row) != width for row in rows) or len(rows) != width:
        diags.append(
            ParseDiagnostic(entry.line, entry.value_col, "matrix must be square")
        )
        return None
    return np.array(rows, dtype=np.complex128)


def _parse_float_entry(entry: _Entry, diags: list[ParseDiagnostic]) -> float | None:
    if re.fullmatch(_REAL, entry.value):
        value = float(entry.value)
        if math.isfinite(value):
            return value
        diags.append(
            ParseDiagnostic(
                entry.line, entry.value_col, f"number {entry.value!r} overflows"
            )
        )
        return None
    diags.append(
        ParseDiagnostic(entry.line, entry.value_col, f"malformed number {entry.value!r}")
    )
    return None


def _parse_int_entry(entry: _Entry, diags: list[ParseDiagnostic]) -> int | None:
    if re.fullmatch(r"[+-]?\d+", entry.value):
        return int(entry.value)
    diags.append(
        ParseDiagnostic(entry.line, entry.value_col, f"malformed integer {entry.value!r}")
    )
    return None


def _parse_float_list(
    entry: _Entry, diags: list[ParseDiagnostic]
) -> tuple[float, ...] | None:
    values: list[float] = []
    for token, col in _split_items(entry.value, entry.value_col, ","):
        if not re.fullmatch(_REAL, token or ""):
            diags.append(
                ParseDiagnostic(entry.line, col, f"malformed number {token!r}")
            )
            return None
        value = float(token)
        if not math.isfinite(value):
            diags.append(ParseDiagnostic(entry.line, col, f"number {token!r} overflows"))
            return None
        values.append(value)
    return tuple(values)


def _parse_name_list(
    entry: _Entry, diags: list[ParseDiagnostic]
) -> list[tuple[str, int]] | None:
    names: list[tuple[str, int]] = []
    for token, col in _split_items(entry.value, entry.value_col, ","):
        if not token or not _NAME_RE.fullmatch(token):
            diags.append(ParseDiagnostic(entry.line, col, f"invalid name {token!r}"))
            return None
        names.append((token, col))
    return names


# ---------------------------------------------------------------------------
# Operator expressions.

class _ExprError(Exception):
    def __init__(self, col: int, message: str):
        super().__init__(message)
        self.col = col
        self.message = message


_EXPR_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<number>{_REAL})|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[()+\-*/,]))"
)


def _tokenize_expr(text: str, base_col: int) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _EXPR_TOKEN_RE.match(text, pos)
        if not m or m.start() != pos:
            raise _ExprError(base_col + pos, f"unexpected character {text[pos]!r}")
        if m.group("number") is not None:
            tokens.append(("number", m.group("number"), base_col + m.start("number")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), base_col + m.start("name")))
        else:
            tokens.append(("sym", m.group("sym"), base_col + m.start("sym")))
        pos = m.end()
    return tokens


_PAULIS = {"pauli_x": pauli_x, "pauli_y": pauli_y, "pauli_z": pauli_z}


class _ExprParser:
    """Recursive-descent evaluator over scalars and operator matrices."""

    def __init__(self, tokens, states: dict[str, StateVector]):
        self.tokens = tokens
        self.pos = 0
        self.states = states
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
        self.depth += 1
        if self.depth > _MAX_EXPR_DEPTH:
            raise _ExprError(self.tokens[self.pos - 1][2], "expression too deeply nested")
        try:
            value = self._term()
            while (tok := self._peek()) and tok[0] == "sym" and tok[1] in "+-":
                self._next()
                rhs = self._term()
                value = self._combine(tok, value, rhs, add=tok[1] == "+")
            return value
        finally:
            self.depth -= 1

    def _term(self):
        value = self._unary()
        while (tok := self._peek()) and tok[0] == "sym" and tok[1] in "*/":
            self._next()
            rhs = self._unary()
            value = self._mul_div(tok, value, rhs)
        return value

    def _unary(self):
        tok = self._peek()
        if tok and tok[0] == "sym" and tok[1] == "-":
            self._next()
            kind, value = self._unary()
            return (kind, -value)
        return self._atom()

    def _atom(self):
        token = self._next()
        kind, text, col = token
        if kind == "number":
            return ("scalar", float(text))
        if kind == "sym" and text == "(":
            value = self._expr()
            self._expect_sym(")")
            return value
        if kind == "name":
            return self._named(text, col)
        raise _ExprError(col, f"unexpected {text!r}")

    def _named(self, name: str, col: int):
        if name in _PAULIS:
            return ("matrix", _PAULIS[name]().entries.copy())
        if name == "identity":
            self._expect_sym("(")
            arg = self._next()
            if arg[0] != "number" or not float(arg[1]).is_integer():
                raise _ExprError(arg[2], "identity needs an integer dimension")
            self._expect_sym(")")
            n = int(float(arg[1]))
            if n < 1:
                raise _ExprError(arg[2], "identity needs a positive dimension")
            return ("matrix", identity(n).entries.copy())
        if name == "projector":
            self._expect_sym("(")
            arg = self._next()
            if arg[0] != "name":
                raise _ExprError(arg[2], "projector needs a state name")
            self._expect_sym(")")
            state = self.states.get(arg[1])
            if state is None:
                raise _ExprError(arg[2], f"unresolved state {arg[1]!r}")
            return ("matrix", projector(state).entries.copy())
        if name == "sqrt":
            self._expect_sym("(")
            kind, value = self._expr()
            self._expect_sym(")")
            if kind != "scalar" or value < 0:
                raise _ExprError(col, "sqrt needs a non-negative scalar")
            return ("scalar", math.sqrt(value))
        raise _ExprError(col, f"unknown operator builtin {name!r}")

    @staticmethod
    def _combine(tok, lhs, rhs, add: bool):
        (lk, lv), (rk, rv) = lhs, rhs
        if lk != rk:
            raise _ExprError(tok[2], "cannot add a scalar and an operator")
        if lk == "matrix" and lv.shape != rv.shape:
            raise _ExprError(tok[2], "operator dimensions differ")
        return (lk, lv + rv if add else lv - rv)

    @staticmethod
    def _mul_div(tok, lhs, rhs):
        (lk, lv), (rk, rv) = lhs, rhs
        if tok[1] == "*":
            if lk == "matrix" and rk == "matrix":
                if lv.shape != rv.shape:
                    raise _ExprError(tok[2], "operator dimensions differ")
                return ("matrix", lv @ rv)
            if lk == "matrix" or rk == "matrix":
                mat = lv if lk == "matrix" else rv
                scalar = rv if lk == "matrix" else lv
                return ("matrix", mat * scalar)
            return ("scalar", lv * rv)
        if rk != "scalar":
            raise _ExprError(tok[2], "can only divide by a scalar")
        if rv == 0:
            raise _ExprError(tok[2], "division by zero")
        return (lk, lv / rv)


def _eval_operator_expr(
    entry: _Entry, states: dict[str, StateVector], diags: list[ParseDiagnostic]
) -> np.ndarray | None:
    try:
        tokens = _tokenize_expr(entry.value, entry.value_col)
        if not tokens:
            raise _ExprError(entry.value_col, "empty expression")
        kind, value = _ExprParser(tokens, states).parse()
    except _ExprError as err:
        diags.append(ParseDiagnostic(entry.line, err.col, err.message))
        return None
    except RecursionError:  # pragma: no cover - depth guard should trip first
        diags.append(ParseDiagnostic(entry.line, entry.value_col, "expression too complex"))
        return None
    if kind != "matrix":
        diags.append(
            ParseDiagnostic(entry.line, entry.value_col, "expression is not an operator")
        )
        return None
    return value


# ---------------------------------------------------------------------------
# Section builders.

def _entries_map(
    section: _Section,
    allowed: tuple[str, ...],
    diags: list[ParseDiagnostic],
    repeatable: tuple[str, ...] = (),
) -> dict[str, list[_Entry]] | None:
    table: dict[str, list[_Entry]] = {}
    ok = True
    for entry in section.entries:
        if entry.key not in allowed:
            diags.append(
                ParseDiagnostic(
                    entry.line,
                    entry.key_col,
                    f"unknown key {entry.key!r} in section [{section.kind}]",
                )
            )
            ok = False
            continue
        if entry.key in table and entry.key not in repeatable:
            diags.append(
                ParseDiagnostic(entry.line, entry.key_col, f"duplicate key {entry.key!r}")
            )
            ok = False
            continue
        table.setdefault(entry.key, []).append(entry)
    return table if ok else None


def _require_key(
    section: _Section,
    table: dict[str, list[_Entry]],
    key: str,
    diags: list[ParseDiagnostic],
) -> _Entry | None:
    if key not in table:
        diags.append(
            ParseDiagnostic(
                section.line, section.col, f"section [{section.kind}] needs key {key!r}"
            )
        )
        return None
    return table[key][0]


def _build_network(
    section: _Section, dim: int, diags: list[ParseDiagnostic]
) -> OpticalNetwork | None:
    """Only lexical checks and ``modes == dim`` are made here; the network
    objects check their own rules and raise a FieldError, whose path
    ``where`` maps to the offending token."""
    table = _entries_map(
        section,
        ("modes", "source", "seq", "detectors", "postselect"),
        diags,
        repeatable=("seq",),
    )
    if table is None:
        return None
    ok = True
    modes_entry = _require_key(section, table, "modes", diags)
    source_entry = _require_key(section, table, "source", diags)
    detectors_entry = _require_key(section, table, "detectors", diags)
    postselect_entry = _require_key(section, table, "postselect", diags)
    if None in (modes_entry, source_entry, detectors_entry, postselect_entry):
        return None
    n_modes = _parse_int_entry(modes_entry, diags)
    source = _parse_int_entry(source_entry, diags)
    if n_modes is None or source is None:
        return None
    if n_modes != dim:
        diags.append(
            ParseDiagnostic(
                modes_entry.line,
                modes_entry.value_col,
                f"network has {n_modes} modes but the system dim is {dim}",
            )
        )
        return None

    where: dict[tuple, tuple[int, int]] = {
        ("n_modes",): (modes_entry.line, modes_entry.value_col),
        ("source_mode",): (source_entry.line, source_entry.value_col),
        ("postselect_detector",): (postselect_entry.line, postselect_entry.value_col),
    }

    def report(err: FieldError, *prefix) -> None:
        line, col = where.get(prefix + err.path, (section.line, section.col))
        diags.append(ParseDiagnostic(line, col, str(err)))

    steps: list = []
    for entry in table.get("seq", []):
        tokens = [
            (m.group(), entry.value_col + m.start())
            for m in re.finditer(r"\S+", entry.value)
        ]
        keyword, kcol = tokens[0]
        args = tokens[1:]
        if keyword == "beam_splitter":
            if len(args) != 3:
                diags.append(
                    ParseDiagnostic(entry.line, kcol, "beam_splitter needs: mode mode t")
                )
                ok = False
                continue
            try:
                values = (int(args[0][0]), int(args[1][0]), float(args[2][0]))
            except ValueError:
                diags.append(
                    ParseDiagnostic(entry.line, args[0][1], "malformed beam_splitter args")
                )
                ok = False
                continue
            make, fields = BeamSplitter, [("mode_a",), ("mode_b",), ("transmissivity",)]
        elif keyword == "phase_shift":
            if len(args) != 2:
                diags.append(
                    ParseDiagnostic(entry.line, kcol, "phase_shift needs: mode phase")
                )
                ok = False
                continue
            try:
                values = (int(args[0][0]), float(args[1][0]))
            except ValueError:
                diags.append(
                    ParseDiagnostic(entry.line, args[0][1], "malformed phase_shift args")
                )
                ok = False
                continue
            make, fields = PhaseShift, [("mode",), ("phase",)]
        elif keyword == "slice":
            arms: list[tuple[str, int]] = []
            for tok, col in args:
                label, _, mode_text = tok.partition(":")
                if not _NAME_RE.fullmatch(label) or not re.fullmatch(r"\d+", mode_text):
                    diags.append(
                        ParseDiagnostic(entry.line, col, f"malformed arm {tok!r} (want label:mode)")
                    )
                    continue
                arms.append((label, int(mode_text)))
            if len(arms) != len(args) or not arms:
                if not args:
                    diags.append(ParseDiagnostic(entry.line, kcol, "empty slice"))
                ok = False
                continue
            values = (tuple(arms),)
            make, fields = TimeSlice, [("arms", index) for index in range(len(arms))]
        else:
            diags.append(
                ParseDiagnostic(entry.line, kcol, f"unknown network step {keyword!r}")
            )
            ok = False
            continue
        prefix = ("steps", len(steps))
        where[prefix] = (entry.line, kcol)
        for field, (_, col) in zip(fields, args):
            where[prefix + field] = (entry.line, col)
        try:
            steps.append(make(*values))
        except FieldError as err:
            report(err, *prefix)
            ok = False

    detectors: list[tuple[str, int]] = []
    for tok, col in _split_items(detectors_entry.value, detectors_entry.value_col, ","):
        m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*):(\d+)", tok or "")
        if not m:
            diags.append(
                ParseDiagnostic(
                    detectors_entry.line, col, f"malformed detector {tok!r} (want label:mode)"
                )
            )
            ok = False
            continue
        where[("detectors", len(detectors))] = (detectors_entry.line, col)
        detectors.append((m.group(1), int(m.group(2))))

    if not ok:
        return None
    try:
        return OpticalNetwork(
            n_modes=n_modes,
            steps=tuple(steps),
            source_mode=source,
            detectors=tuple(detectors),
            postselect_detector=postselect_entry.value,
        )
    except FieldError as err:
        report(err)
        return None


def _build_pointer(
    section: _Section, diags: list[ParseDiagnostic]
) -> PointerModel | None:
    table = _entries_map(
        section, ("kind", "spread", "n_points", "half_width", "generator_axis"), diags
    )
    if table is None:
        return None
    kind_entry = _require_key(section, table, "kind", diags)
    if kind_entry is None:
        return None
    where = {(key,): (entries[0].line, entries[0].value_col) for key, entries in table.items()}
    fields: dict = {}
    if kind_entry.value == GAUSSIAN_KIND:
        if _require_key(section, table, "spread", diags) is None:
            return None
        for key, parse_value in (
            ("spread", _parse_float_entry),
            ("n_points", _parse_int_entry),
            ("half_width", _parse_float_entry),
        ):
            if key in table:
                fields[key] = parse_value(table[key][0], diags)
                if fields[key] is None:
                    return None
        make = gaussian_pointer
    else:
        if "generator_axis" in table:
            fields["generator_axis"] = table["generator_axis"][0].value
        fields["kind"] = kind_entry.value
        make = PointerModel
    try:
        return make(**fields)
    except FieldError as err:
        line, col = where.get(err.path, (section.line, section.col))
        diags.append(ParseDiagnostic(line, col, str(err)))
        return None


_PLAN_KEYS: dict[str, tuple[str, ...]] = {
    "weakvalue": ("plan", "observables", "g_schedule"),
    "sweep": ("plan", "metric", "observable", "g_schedule"),
    "trace": ("plan", "arms", "g_schedule"),
    "presence": ("plan", "arms", "g_schedule"),
    "compare_limits": (
        "plan",
        "observable",
        "g_schedule",
        "spread_schedule",
        "fixed_g",
        "fixed_spread",
    ),
}


def _build_experiment(
    section: _Section,
    operators: dict[str, LinearOperator],
    network: OpticalNetwork | None,
    diags: list[ParseDiagnostic],
    positions: dict[str, tuple[int, int]],
) -> ExperimentPlan | None:
    plan_entries = [e for e in section.entries if e.key == "plan"]
    if not plan_entries:
        diags.append(
            ParseDiagnostic(section.line, section.col, "section [experiment] needs key 'plan'")
        )
        return None
    plan_entry = plan_entries[0]
    kind = plan_entry.value
    if kind not in PLAN_KINDS:
        diags.append(
            ParseDiagnostic(
                plan_entry.line,
                plan_entry.value_col,
                f"unknown plan {kind!r}; expected one of {', '.join(PLAN_KINDS)}",
            )
        )
        return None
    table = _entries_map(section, _PLAN_KEYS[kind], diags)
    if table is None:
        return None
    ok = True

    observables: tuple[str, ...] = ()
    obs_key = "observables" if kind == "weakvalue" else "observable"
    if kind in ("weakvalue", "sweep", "compare_limits"):
        entry = _require_key(section, table, obs_key, diags)
        if entry is None:
            return None
        names = _parse_name_list(entry, diags)
        if names is None:
            return None
        if kind != "weakvalue" and len(names) != 1:
            diags.append(
                ParseDiagnostic(entry.line, entry.value_col, f"{obs_key} takes one name")
            )
            return None
        for name, col in names:
            if name not in operators:
                diags.append(
                    ParseDiagnostic(entry.line, col, f"unresolved operator {name!r}")
                )
                ok = False
        observables = tuple(name for name, _ in names)
        positions["experiment:observables"] = (entry.line, entry.value_col)

    metric = None
    if kind == "sweep":
        entry = _require_key(section, table, "metric", diags)
        if entry is None:
            return None
        if entry.value not in METRIC_NAMES:
            diags.append(
                ParseDiagnostic(
                    entry.line,
                    entry.value_col,
                    f"unknown metric {entry.value!r}; expected one of {', '.join(METRIC_NAMES)}",
                )
            )
            return None
        metric = entry.value

    arms: tuple[str, ...] = ()
    if kind in ("trace", "presence") and "arms" in table:
        entry = table["arms"][0]
        names = _parse_name_list(entry, diags)
        if names is None:
            return None
        known = network.arm_labels if network is not None else ()
        for name, col in names:
            if name not in known:
                diags.append(
                    ParseDiagnostic(entry.line, col, f"unresolved arm {name!r}")
                )
                ok = False
        arms = tuple(name for name, _ in names)

    g_schedule = None
    if "g_schedule" in table:
        entry = table["g_schedule"][0]
        g_schedule = _parse_float_list(entry, diags)
        if g_schedule is None:
            return None
        positions["experiment:g_schedule"] = (entry.line, entry.value_col)

    spread_schedule = None
    if "spread_schedule" in table:
        entry = table["spread_schedule"][0]
        spread_schedule = _parse_float_list(entry, diags)
        if spread_schedule is None:
            return None
        positions["experiment:spread_schedule"] = (entry.line, entry.value_col)

    fixed_g = fixed_spread = None
    if "fixed_g" in table:
        fixed_g = _parse_float_entry(table["fixed_g"][0], diags)
        if fixed_g is None:
            return None
        positions["experiment:fixed_g"] = (
            table["fixed_g"][0].line,
            table["fixed_g"][0].value_col,
        )
    if "fixed_spread" in table:
        fixed_spread = _parse_float_entry(table["fixed_spread"][0], diags)
        if fixed_spread is None:
            return None
        positions["experiment:fixed_spread"] = (
            table["fixed_spread"][0].line,
            table["fixed_spread"][0].value_col,
        )

    if not ok:
        return None
    return ExperimentPlan(
        kind=kind,
        observables=observables,
        metric=metric,
        arms=arms,
        g_schedule=g_schedule,
        spread_schedule=spread_schedule,
        fixed_g=fixed_g,
        fixed_spread=fixed_spread,
    )


# ---------------------------------------------------------------------------
# parse / validate / serialize.

def parse(text: str) -> ScenarioResult:
    """Parse scenario text into a document, or into diagnostics.

    Never raises and never returns a partial document: ``doc`` is None
    whenever any error diagnostic was produced.
    """
    diags: list[ParseDiagnostic] = []
    sections = _scan(text, diags)

    by_kind: dict[str, list[_Section]] = {}
    for section in sections:
        by_kind.setdefault(section.kind, []).append(section)
    for kind in ("system", "pointer", "selection", "network", "experiment"):
        for extra in by_kind.get(kind, [])[1:]:
            diags.append(
                ParseDiagnostic(extra.line, extra.col, f"duplicate section [{kind}]")
            )

    positions: dict[str, tuple[int, int]] = {}

    dim: int | None = None
    if "system" not in by_kind:
        if not diags:
            diags.append(ParseDiagnostic(1, 1, "missing [system] section"))
    else:
        section = by_kind["system"][0]
        table = _entries_map(section, ("dim",), diags)
        if table is not None:
            entry = _require_key(section, table, "dim", diags)
            if entry is not None:
                parsed = _parse_int_entry(entry, diags)
                if parsed is not None and not 1 <= parsed <= 4096:
                    diags.append(
                        ParseDiagnostic(
                            entry.line, entry.value_col, "dim must be in [1, 4096]"
                        )
                    )
                elif parsed is not None:
                    dim = parsed

    states: dict[str, StateVector] = {}
    for section in by_kind.get("state", []):
        name = section.name
        assert name is not None
        if name in states:
            diags.append(
                ParseDiagnostic(section.line, section.col, f"duplicate state {name!r}")
            )
            continue
        table = _entries_map(section, ("amps",), diags)
        if table is None:
            continue
        entry = _require_key(section, table, "amps", diags)
        if entry is None:
            continue
        amps = _parse_vector(entry, diags)
        if amps is None:
            continue
        if dim is not None and amps.size != dim:
            diags.append(
                ParseDiagnostic(
                    entry.line,
                    entry.value_col,
                    f"state {name!r} has {amps.size} amplitudes, system dim is {dim}",
                )
            )
            continue
        try:
            states[name] = StateVector(amps)
        except ValueError as err:
            diags.append(ParseDiagnostic(entry.line, entry.value_col, str(err)))
            continue
        positions[f"state:{name}"] = (entry.line, entry.value_col)

    operators: dict[str, LinearOperator] = {}
    for section in by_kind.get("operator", []):
        name = section.name
        assert name is not None
        if name in operators:
            diags.append(
                ParseDiagnostic(section.line, section.col, f"duplicate operator {name!r}")
            )
            continue
        table = _entries_map(section, ("matrix", "expr"), diags)
        if table is None:
            continue
        if ("matrix" in table) == ("expr" in table):
            diags.append(
                ParseDiagnostic(
                    section.line,
                    section.col,
                    f"operator {name!r} needs exactly one of 'matrix' or 'expr'",
                )
            )
            continue
        if "matrix" in table:
            entry = table["matrix"][0]
            entries = _parse_matrix(entry, diags)
        else:
            entry = table["expr"][0]
            entries = _eval_operator_expr(entry, states, diags)
        if entries is None:
            continue
        if dim is not None and entries.shape[0] != dim:
            diags.append(
                ParseDiagnostic(
                    entry.line,
                    entry.value_col,
                    f"operator {name!r} is {entries.shape[0]}-dimensional, "
                    f"system dim is {dim}",
                )
            )
            continue
        try:
            operators[name] = LinearOperator(entries)
        except ValueError as err:
            diags.append(ParseDiagnostic(entry.line, entry.value_col, str(err)))
            continue
        positions[f"operator:{name}"] = (entry.line, entry.value_col)

    pointer = None
    if "pointer" in by_kind:
        pointer = _build_pointer(by_kind["pointer"][0], diags)

    selection = None
    if "selection" in by_kind:
        section = by_kind["selection"][0]
        table = _entries_map(section, ("pre", "post"), diags)
        if table is not None:
            pre_entry = _require_key(section, table, "pre", diags)
            post_entry = _require_key(section, table, "post", diags)
            if pre_entry is not None and post_entry is not None:
                pair = []
                for entry in (pre_entry, post_entry):
                    if entry.value not in states:
                        diags.append(
                            ParseDiagnostic(
                                entry.line,
                                entry.value_col,
                                f"unresolved state {entry.value!r}",
                            )
                        )
                    else:
                        pair.append(entry.value)
                if len(pair) == 2:
                    selection = (pair[0], pair[1])
                    positions["selection:pre"] = (pre_entry.line, pre_entry.value_col)
                    positions["selection:post"] = (post_entry.line, post_entry.value_col)

    network = None
    if "network" in by_kind and dim is not None:
        network = _build_network(by_kind["network"][0], dim, diags)

    experiment = None
    if "experiment" not in by_kind:
        if not diags:
            diags.append(ParseDiagnostic(1, 1, "missing [experiment] section"))
    else:
        experiment = _build_experiment(
            by_kind["experiment"][0], operators, network, diags, positions
        )

    if experiment is not None:
        section = by_kind["experiment"][0]
        needs = {
            "weakvalue": ("selection", "pointer"),
            "sweep": ("selection", "pointer"),
            "compare_limits": ("selection", "pointer"),
            "trace": ("network", "pointer"),
            "presence": ("network", "pointer"),
        }[experiment.kind]
        available = {"selection": selection, "pointer": pointer, "network": network}
        for requirement in needs:
            if available[requirement] is None and not any(
                d.severity == "error" for d in diags
            ):
                diags.append(
                    ParseDiagnostic(
                        section.line,
                        section.col,
                        f"plan {experiment.kind!r} needs a [{requirement}] section",
                    )
                )

    errors = [d for d in diags if d.severity == "error"]
    if errors or dim is None or experiment is None:
        return ScenarioResult(None, tuple(diags))
    doc = ScenarioDoc(
        dim=dim,
        states=states,
        operators=operators,
        pointer=pointer,
        selection=selection,
        network=network,
        experiment=experiment,
        positions=positions,
    )
    return ScenarioResult(doc, tuple(diags))


def validate_semantics(doc: ScenarioDoc) -> ScenarioResult:
    """Check hermiticity, normalization, and the schedule rules.

    Returns the (possibly normalized) document with warnings, or None with
    error diagnostics.
    """
    diags: list[ParseDiagnostic] = []
    plan = doc.experiment

    def _pos(key: str) -> tuple[int, int]:
        return doc.positions.get(key, (1, 1))

    states = dict(doc.states)
    if doc.selection is not None:
        for name in set(doc.selection):
            state = states[name]
            norm = state.norm()
            off = abs(norm - 1.0)
            line, col = _pos(f"state:{name}")
            if state.normalized:
                continue
            if off < 1e-6:
                diags.append(
                    ParseDiagnostic(
                        line,
                        col,
                        f"state {name!r} auto-normalized (norm was off by {off:.2e})",
                        severity="warning",
                    )
                )
                states[name] = state.unit()
            else:
                diags.append(
                    ParseDiagnostic(
                        line, col, f"state {name!r} is not normalized (norm {norm!r})"
                    )
                )

    for name in plan.observables:
        op = doc.operators[name]
        if not op.hermitian:
            line, col = _pos(f"operator:{name}")
            diags.append(
                ParseDiagnostic(
                    line, col, f"observable {name!r} is not hermitian"
                )
            )

    def _schedule(key: str, make):
        values = getattr(plan, key)
        if values is None:
            return None
        try:
            return make(values)
        except ScheduleError as err:
            line, col = _pos(f"experiment:{key}")
            diags.append(ParseDiagnostic(line, col, str(err)))
            return values

    # a trace reads any schedule; the order fits of sweeps and presence
    # classification need a decade
    if plan.kind == "trace":
        rules = {"min_points": 1}
    else:
        rules = {"span_decade": plan.kind in ("sweep", "presence")}
    g_schedule = _schedule("g_schedule", lambda values: GSchedule(values, **rules))
    spread_schedule = _schedule("spread_schedule", SpreadSchedule)

    for key, value in (("fixed_g", plan.fixed_g), ("fixed_spread", plan.fixed_spread)):
        if value is not None and value <= 0:
            line, col = _pos(f"experiment:{key}")
            diags.append(ParseDiagnostic(line, col, f"{key} must be positive"))

    if plan.kind == "compare_limits" and doc.pointer is not None:
        if doc.pointer.kind != GAUSSIAN_KIND:
            diags.append(
                ParseDiagnostic(
                    1, 1, "compare_limits needs a gaussian_grid pointer"
                )
            )

    if any(d.severity == "error" for d in diags):
        return ScenarioResult(None, tuple(diags))
    experiment = replace(plan, g_schedule=g_schedule, spread_schedule=spread_schedule)
    checked = replace(doc, states=states, experiment=experiment)
    return ScenarioResult(checked, tuple(diags))


def _format_real(x: float) -> str:
    return repr(float(x))


def _format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return _format_real(z.real)
    if z.real == 0:
        return _format_real(z.imag) + "i"
    sign = "+" if z.imag > 0 else "-"
    return f"{_format_real(z.real)}{sign}{_format_real(abs(z.imag))}i"


def serialize(doc: ScenarioDoc) -> str:
    """Render a document back to scenario text (matrix literals throughout)."""
    lines = [VERSION_LINE, "", "[system]", f"dim = {doc.dim}"]
    for name, state in doc.states.items():
        lines += [
            "",
            f"[state {name}]",
            "amps = " + ", ".join(_format_complex(a) for a in state.amps),
        ]
    for name, op in doc.operators.items():
        rows = "; ".join(
            ", ".join(_format_complex(v) for v in row) for row in op.entries
        )
        lines += ["", f"[operator {name}]", f"matrix = {rows}"]
    if doc.pointer is not None:
        lines += ["", "[pointer]", f"kind = {doc.pointer.kind}"]
        if doc.pointer.kind == GAUSSIAN_KIND:
            lines += [
                f"spread = {_format_real(doc.pointer.spread)}",
                f"n_points = {doc.pointer.n_points}",
                f"half_width = {_format_real(doc.pointer.half_width)}",
            ]
        else:
            lines.append(f"generator_axis = {doc.pointer.generator_axis}")
    if doc.selection is not None:
        lines += [
            "",
            "[selection]",
            f"pre = {doc.selection[0]}",
            f"post = {doc.selection[1]}",
        ]
    if doc.network is not None:
        net = doc.network
        lines += ["", "[network]", f"modes = {net.n_modes}", f"source = {net.source_mode}"]
        for step in net.steps:
            if isinstance(step, BeamSplitter):
                lines.append(
                    f"seq = beam_splitter {step.mode_a} {step.mode_b} "
                    f"{_format_real(step.transmissivity)}"
                )
            elif isinstance(step, PhaseShift):
                lines.append(f"seq = phase_shift {step.mode} {_format_real(step.phase)}")
            else:
                arms = " ".join(f"{label}:{mode}" for label, mode in step.arms)
                lines.append(f"seq = slice {arms}")
        lines.append(
            "detectors = " + ", ".join(f"{label}:{mode}" for label, mode in net.detectors)
        )
        lines.append(f"postselect = {net.postselect_detector}")
    plan = doc.experiment
    lines += ["", "[experiment]", f"plan = {plan.kind}"]
    if plan.observables:
        key = "observables" if plan.kind == "weakvalue" else "observable"
        lines.append(f"{key} = " + ", ".join(plan.observables))
    if plan.metric is not None:
        lines.append(f"metric = {plan.metric}")
    if plan.arms:
        lines.append("arms = " + ", ".join(plan.arms))
    if plan.g_schedule is not None:
        lines.append("g_schedule = " + ", ".join(_format_real(g) for g in plan.g_schedule))
    if plan.spread_schedule is not None:
        lines.append(
            "spread_schedule = " + ", ".join(_format_real(d) for d in plan.spread_schedule)
        )
    if plan.fixed_g is not None:
        lines.append(f"fixed_g = {_format_real(plan.fixed_g)}")
    if plan.fixed_spread is not None:
        lines.append(f"fixed_spread = {_format_real(plan.fixed_spread)}")
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
    """Parse and validate a shipped scenario; raises on internal corpus bugs."""
    parsed = parse(load_corpus_text(name))
    if not parsed.ok:
        raise RuntimeError(f"corpus scenario {name!r} failed to parse: {parsed.diagnostics}")
    checked = validate_semantics(parsed.doc)
    if not checked.ok:
        raise RuntimeError(f"corpus scenario {name!r} failed validation: {checked.diagnostics}")
    return checked.doc
