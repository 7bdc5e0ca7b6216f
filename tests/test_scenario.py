"""Scenario format: parsing, diagnostics, run plans, round-trips."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvflab import build_nested_mzi, parse, pauli_z, plan, serialize
from tsvflab.scenario import (
    _REAL,
    _UNSIGNED_REAL,
    ParseDiagnostic,
    _complex_items,
    _Entry,
    _literal_values,
    _parse_matrix,
    _parse_vector,
    _split_items,
    corpus_names,
    load_corpus,
    load_corpus_text,
    parse_complex_literal,
)

MINIMAL = """tsvf-scenario v1
[system]
dim = 2

[state up_x]
amps = 0.7071067811865476, 0.7071067811865476

[state up_z]
amps = 1, 0

[operator sz]
expr = pauli_z

[pointer]
kind = gaussian_grid
spread = 2.0

[selection]
pre = up_x
post = up_z

[experiment]
plan = weakvalue
observables = sz
"""


def plan_own(doc):
    """``plan`` of a document as its own plan, with no flags."""
    return plan(doc, doc.experiment.kind)


def docs_equal(a, b) -> bool:
    if (a.dim, sorted(a.states), sorted(a.operators)) != (
        b.dim, sorted(b.states), sorted(b.operators)
    ):
        return False
    for name in a.states:
        if not np.array_equal(a.states[name].amps, b.states[name].amps):
            return False
    for name in a.operators:
        if not np.array_equal(a.operators[name].entries, b.operators[name].entries):
            return False
    return (
        a.pointer == b.pointer
        and a.selection == b.selection
        and a.network == b.network
        and a.experiment == b.experiment
    )


class TestParseBasics:
    def test_minimal_scenario(self):
        result = parse(MINIMAL)
        assert result.ok, result.diagnostics
        doc = result.doc
        assert doc.dim == 2
        assert set(doc.states) == {"up_x", "up_z"}
        np.testing.assert_array_equal(doc.operators["sz"].entries, np.diag([1.0, -1.0]))
        assert doc.selection == ("up_x", "up_z")
        assert doc.experiment.kind == "weakvalue"
        assert doc.experiment.observables == ("sz",)
        assert doc.pointer.spread == 2.0
        assert doc.pointer.half_width == 24.0  # default 12 * spread

    def test_comments_and_blank_lines(self):
        text = MINIMAL.replace("[system]", "# a comment\n\n[system]  # trailing")
        assert parse(text).ok

    @pytest.mark.parametrize(
        "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newlines_end_a_line(self, separator):
        # a separator inside a comment neither ends it nor shifts later lines
        text = MINIMAL.replace(
            "[system]\ndim = 2", f"# a comment{separator}dim = 3\n[system]\ndim = two"
        )
        assert parse(text).diagnostics == (ParseDiagnostic(4, 7, "malformed integer 'two'"),)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_end_a_line(self, newline):
        text = MINIMAL.replace("dim = 2", "dim = two").replace("\n", newline)
        assert parse(text).diagnostics == (ParseDiagnostic(3, 7, "malformed integer 'two'"),)

    def test_complex_literals(self):
        assert parse_complex_literal("1") == 1
        assert parse_complex_literal("-0.5") == -0.5
        assert parse_complex_literal("2i") == 2j
        assert parse_complex_literal("-2.5i") == -2.5j
        assert parse_complex_literal("1+2i") == 1 + 2j
        assert parse_complex_literal("1.5e-3-2e-4i") == complex(1.5e-3, -2e-4)
        assert parse_complex_literal("0.5+") is None
        assert parse_complex_literal("i") is None
        assert parse_complex_literal("1 + 2i") is None

    def test_never_partial(self):
        text = MINIMAL + "\n[state broken]\namps = 1, oops\n"
        result = parse(text)
        assert result.doc is None
        assert any(d.severity == "error" for d in result.diagnostics)


def _per_item_vector(entry, diags):
    """The per-item reader of a vector literal, which builds every
    diagnostic of a malformed one."""
    values = _complex_items(entry, entry.value, entry.value_col, diags)
    return None if values is None else np.array(values, dtype=np.complex128)


def _per_item_matrix(entry, diags):
    rows = [
        _complex_items(entry, row_text, row_col, diags)
        for row_text, row_col in _split_items(entry.value, entry.value_col, ";")
    ]
    if None in rows:
        return None
    if any(len(row) != len(rows) for row in rows):
        diags.append(entry.error("matrix must be square"))
        return None
    return np.array(rows, dtype=np.complex128)


#: Items at the edges of the literal grammar.  complex() reads the first
#: six, which the grammar rejects; str.strip removes NBSP and \x1c; an item
#: may be empty; 1e400 overflows to inf (which the constructors reject); and
#: -2i has the real part +0.0, -0 the imaginary part +0.0.
EDGE_ITEMS = (
    "j", "1+i", "1_0", "inf", "nan", "(1+2i)", "\xa01\xa0", "\x1c-2.5i", "1e400",
    "-0", "-0i", "-2i", "", " ", "1e-400", "+.5-0i", "7.", "1e+2i", "1 + 2i", "1;", "0x1",
)
_SPACES = st.text(st.sampled_from(" \t\xa0\x1c\x0b\u2003"), max_size=2)
_ITEMS = st.one_of(
    st.sampled_from(EDGE_ITEMS),
    st.from_regex(_REAL, fullmatch=True),
    st.tuples(st.from_regex(_REAL, fullmatch=True), st.sampled_from("+-"),
              st.from_regex(_UNSIGNED_REAL, fullmatch=True)).map(lambda t: "".join(t) + "i"),
    st.from_regex(rf"[+-]?{_UNSIGNED_REAL}i", fullmatch=True),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text("0123456789.eE+-ij_() ", max_size=6),
)


@st.composite
def _literals(draw, max_rows=4):
    """Vector or matrix literal text: items joined by ',' and rows by ';',
    with whitespace around each separator."""
    rows = draw(st.lists(st.lists(_ITEMS, min_size=1, max_size=4), min_size=1, max_size=max_rows))
    join = lambda parts, sep: "".join(  # noqa: E731
        part + (draw(_SPACES) + sep + draw(_SPACES) if i < len(parts) - 1 else "")
        for i, part in enumerate(parts)
    )
    return join([join(row, ",") for row in rows], ";")


def _same_array(a, b) -> bool:
    """Equal to the bit, signed zeros included (or both None)."""
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestOnePassLiterals:
    """The one-pass reader of vector and matrix literals against the
    per-item reader it replaces for well-formed literals."""

    @staticmethod
    def _compare(text):
        entry = _Entry("value", 1, text, 9, 4)
        readers = ((_parse_vector, _per_item_vector), (_parse_matrix, _per_item_matrix))
        for one_pass, per_item in readers:
            fast_diags, slow_diags = [], []
            fast, slow = one_pass(entry, fast_diags), per_item(entry, slow_diags)
            assert _same_array(fast, slow), (text, fast, slow)
            assert fast_diags == slow_diags
        # the pattern accepts exactly the literals whose items all read
        rows = _split_items(text, 1, ";")
        accepted = all(_complex_items(entry, row, col, []) is not None for row, col in rows)
        assert (_literal_values(text) is not None) == accepted, text

    @pytest.mark.parametrize("item", EDGE_ITEMS)
    def test_edge_items(self, item):
        texts = (item, f"1, {item}", f"{item},2i", f"1, 2; {item}, 3", f"{item}; 1, -0", f"{item};")
        for text in texts:
            self._compare(text)

    def test_signed_zeros_and_overflow(self):
        diags = []
        entry = _Entry("amps", 1, "-0, -0i, -2i, 1-0i, 1e400", 8, 2)
        values = _parse_vector(entry, diags)
        assert not diags and _literal_values(entry.value) is not None
        assert [math.copysign(1.0, z.real) for z in values[:4]] == [-1.0, 1.0, 1.0, 1.0]
        assert [math.copysign(1.0, z.imag) for z in values[:4]] == [1.0, -1.0, -1.0, -1.0]
        assert values[4] == complex(math.inf, 0.0)

    def test_diagnostics_keep_text_and_position(self):
        diags = []
        entry = _Entry("matrix", 1, "1, j;\xa0, 2;", 10, 6)
        assert _parse_matrix(entry, diags) is None
        assert diags == [
            ParseDiagnostic(6, 13, "malformed complex literal 'j'"),
            ParseDiagnostic(6, 16, "malformed complex literal ''"),
            ParseDiagnostic(6, 20, "malformed complex literal ''"),
        ]

    @settings(max_examples=150, deadline=None)
    @given(_literals())
    def test_one_pass_reads_as_the_per_item_reader(self, text):
        self._compare(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text("0123456789.eE+-ij_(),; \xa0\x1c", max_size=24))
    def test_any_text_reads_as_the_per_item_reader(self, text):
        self._compare(text)


class TestExpressions:
    def test_diagonal_spin_component(self):
        text = MINIMAL.replace(
            "expr = pauli_z", "expr = (pauli_z + pauli_x) / sqrt(2)"
        )
        doc = parse(text).doc
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        np.testing.assert_allclose(doc.operators["sz"].entries, expected, atol=1e-15)

    def test_projector_and_identity(self):
        text = MINIMAL.replace(
            "expr = pauli_z", "expr = 2 * projector(up_z) - identity(2)"
        )
        doc = parse(text).doc
        np.testing.assert_allclose(
            doc.operators["sz"].entries, np.diag([1.0, -1.0]), atol=1e-15
        )

    def test_matrix_literal(self):
        text = MINIMAL.replace("expr = pauli_z", "matrix = 1, 0; 0, -1")
        doc = parse(text).doc
        np.testing.assert_array_equal(doc.operators["sz"].entries, np.diag([1.0, -1.0]))

    def test_precedence(self):
        text = MINIMAL.replace("expr = pauli_z", "expr = pauli_z + pauli_x * 0")
        doc = parse(text).doc
        np.testing.assert_array_equal(doc.operators["sz"].entries, np.diag([1.0, -1.0]))

    def test_unary_minus_nests_63_deep(self):
        doc = parse(MINIMAL.replace("expr = pauli_z", "expr = " + "-" * 63 + "pauli_z")).doc
        np.testing.assert_array_equal(doc.operators["sz"].entries, -pauli_z().entries)

    def test_negation_flips_every_sign(self):
        # -A, not A * -1, which would leave the zero imaginary parts positive
        doc = parse(MINIMAL.replace("expr = pauli_z", "expr = -pauli_z")).doc
        signs = np.signbit(doc.operators["sz"].entries.view(float))
        assert np.array_equal(signs, ~np.signbit(pauli_z().entries.view(float)))

    def test_identity_of_another_dim_is_rejected_before_it_is_allocated(self):
        tracemalloc.start()
        try:
            result = parse(MINIMAL.replace("expr = pauli_z", "expr = identity(4096)"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.diagnostics[0] == ParseDiagnostic(
            12, 17, "identity is 4096-dimensional, system dim is 2"
        )
        assert peak < 2**22  # the 4096 x 4096 identity alone takes 2**28 bytes

    @pytest.mark.parametrize(
        "expr",
        ["identity(1024)", "identity(1024) + identity(1024)",
         "2 * identity(1024) - identity(1024) * 0.5"],
    )
    def test_an_expression_is_validated_once(self, expr):
        # each operator that an expression builds was a LinearOperator,
        # validated in full: the two sums peaked at 88 MiB, where the final
        # operator's one validation takes 56 MiB (a 1024 x 1024 complex
        # matrix is 16 MiB)
        text = f"tsvf-scenario v1\n[system]\ndim = 1024\n[operator a]\nexpr = {expr}\n"
        tracemalloc.start()
        try:
            result = parse(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [d.message for d in result.diagnostics] == ["missing [experiment] section"]
        assert peak <= 56 * 2**20 + 2**16

    def test_scalar_only_expression_rejected(self):
        text = MINIMAL.replace("expr = pauli_z", "expr = sqrt(2)")
        result = parse(text)
        assert not result.ok
        assert any("not an operator" in d.message for d in result.diagnostics)


CASES = [
    # (text, line, column, message fragment) - twenty hand-seeded errors
    ("", 1, 1, "first line"),
    ("bogus v9\n[system]\ndim = 2\n", 1, 1, "first line"),
    ("tsvf-scenario v1\n[mystery]\nx = 1\n", 2, 1, "unknown section"),
    ("tsvf-scenario v1\nx = 1\n", 2, 1, "outside any section"),
    ("tsvf-scenario v1\n[system]\ndim = two\n", 3, 7, "malformed integer"),
    (
        "tsvf-scenario v1\n[system]\ndim = 2\n[state v]\namps = 1, 0.5+\n",
        5, 11, "malformed complex literal",
    ),
    (
        "tsvf-scenario v1\n[system]\ndim = 2\n[state v]\namps = 1, 0, 0\n",
        5, 8, "3 amplitudes",
    ),
    (
        "tsvf-scenario v1\n[system]\ndim = 2\n[operator m]\nmatrix = 1, 0; 0\n",
        5, 10, "square",
    ),
    ("tsvf-scenario v1\n[pointer]\nflavour = blue\n", 3, 1, "unknown key"),
    ("tsvf-scenario v1\n[system]\ndim = 2\n[system]\ndim = 3\n", 4, 1, "duplicate section"),
    (
        "tsvf-scenario v1\n[system]\ndim = 2\n[state v]\namps = 1, 0\n[state v]\namps = 0, 1\n",
        6, 1, "duplicate state",
    ),
    (
        "tsvf-scenario v1\n[system]\ndim = 2\n[state v]\namps = 1, 0\n[selection]\npre = v\npost = ghost\n",
        8, 8, "unresolved state",
    ),
    (
        "tsvf-scenario v1\n[system]\ndim = 2\n[operator m]\nexpr = pauli_w\n",
        5, 8, "unknown operator builtin",
    ),
    (
        # position anchors on the last token of the truncated expression
        "tsvf-scenario v1\n[system]\ndim = 2\n[operator m]\nexpr = (pauli_z + pauli_x\n",
        5, 19, "unexpected end",
    ),
    (
        "tsvf-scenario v1\n[system]\ndim = 4\n[operator m]\nexpr = pauli_z\n",
        5, 8, "system dim is 4",
    ),
    (
        "tsvf-scenario v1\n[system]\ndim = 2\n[operator m]\nexpr = pauli_z / 0\n",
        5, 16, "division by zero",
    ),
    (
        "tsvf-scenario v1\n[system]\ndim = 2\n[network]\nmodes = 2\nsource = 0\nseq = teleport 0 1\ndetectors = D1:0\npostselect = D1\n",
        7, 7, "unknown network step",
    ),
    (
        "tsvf-scenario v1\n[system]\ndim = 2\n[network]\nmodes = 2\nsource = 0\nseq = slice A:x\ndetectors = D1:0\npostselect = D1\n",
        7, 13, "malformed arm",
    ),
    (
        "tsvf-scenario v1\n[system]\ndim = 2\n[network]\nmodes = 2\nsource = 0\nseq = slice A:0 B:1\ndetectors = D1:0\npostselect = D9\n",
        9, 14, "not declared",
    ),
    (
        "tsvf-scenario v1\n[system]\ndim = 2\n[state v]\namps = 1, 0\n[pointer]\nkind = qubit\n[selection]\npre = v\npost = v\n[experiment]\nplan = astrology\n",
        12, 8, "unknown plan",
    ),
]


class TestDiagnosticPositions:
    @pytest.mark.parametrize("text,line,column,fragment", CASES)
    def test_error_position(self, text, line, column, fragment):
        result = parse(text)
        assert result.doc is None
        matches = [d for d in result.diagnostics if fragment in d.message]
        assert matches, (fragment, result.diagnostics)
        assert (matches[0].line, matches[0].column) == (line, column)

    def test_positions_lie_on_the_offending_token(self):
        text = "tsvf-scenario v1\n[system]\ndim = 2\n[state v]\namps = 1, 0.5+\n"
        result = parse(text)
        diag = next(d for d in result.diagnostics if "complex" in d.message)
        lines = text.splitlines()
        token_start = lines[diag.line - 1][diag.column - 1 :]
        assert token_start.startswith("0.5+")


class TestValidateSemantics:
    def test_non_hermitian_observable_names_operator(self):
        text = MINIMAL.replace("expr = pauli_z", "matrix = 0, 1; 0, 0")
        parsed = parse(text)
        assert parsed.ok
        checked = plan_own(parsed.doc)
        assert checked.plan is None
        assert any(
            "'sz' is not hermitian" in d.message for d in checked.diagnostics
        )

    def test_slightly_denormalized_state_warns_and_normalizes(self):
        off = 0.7071067811865476 * (1 + 4e-8)
        text = MINIMAL.replace(
            "amps = 0.7071067811865476, 0.7071067811865476",
            f"amps = {off!r}, {off!r}",
        )
        parsed = parse(text)
        assert parsed.ok
        checked = plan_own(parsed.doc)
        assert checked.plan is not None
        warnings = [d for d in checked.diagnostics if d.severity == "warning"]
        assert warnings and "auto-normalized" in warnings[0].message
        assert checked.plan.selection.pre.normalized

    def test_selection_states_are_checked_pre_then_post(self):
        text = MINIMAL.replace(
            "amps = 0.7071067811865476, 0.7071067811865476", "amps = 0.70710679, 0.70710679"
        ).replace("amps = 1, 0", "amps = 1.00000001, 0")
        checked = plan_own(parse(text).doc)
        assert checked.plan is not None
        assert [d.message.split()[1] for d in checked.diagnostics] == ["'up_x'", "'up_z'"]

    def test_badly_denormalized_state_is_an_error(self):
        text = MINIMAL.replace(
            "amps = 0.7071067811865476, 0.7071067811865476", "amps = 0.5, 0.5"
        )
        checked = plan_own(parse(text).doc)
        assert checked.plan is None
        assert any("not normalized" in d.message for d in checked.diagnostics)

    def test_increasing_schedule_rejected(self):
        text = MINIMAL + "g_schedule = 0.01, 0.02\n"
        checked = plan_own(parse(text).doc)
        assert checked.plan is None
        assert any("schedule must decrease" in d.message for d in checked.diagnostics)

    @pytest.mark.parametrize(
        "name,key,value,fragment",
        [
            ("eigenvalue_zero", "g_schedule", "0.01, 0.008, 0.006, 0.004", "one decade"),
            ("nested_mzi_presence", "g_schedule", "0.01, 0.008, 0.006, 0.004", "one decade"),
            ("compare_limits_demo", "spread_schedule", "4.0", "at least 2 points"),
        ],
    )
    def test_schedule_rule_reported_at_the_schedule(self, name, key, value, fragment):
        lines = [
            line for line in load_corpus_text(name).splitlines()
            if not line.startswith(f"{key} =")
        ]
        lines.append(f"{key} = {value}")
        parsed = parse("\n".join(lines) + "\n")
        assert parsed.ok, parsed.diagnostics
        checked = plan_own(parsed.doc)
        assert checked.plan is None
        (diag,) = checked.diagnostics
        assert fragment in diag.message
        assert (diag.line, diag.column) == (len(lines), len(key) + 4)

    def test_qubit_pointer_rejected_for_compare_limits(self):
        text = MINIMAL.replace("plan = weakvalue", "plan = compare_limits").replace(
            "observables = sz", "observable = sz"
        ).replace("kind = gaussian_grid\nspread = 2.0", "kind = qubit")
        parsed = parse(text)
        assert parsed.ok, parsed.diagnostics
        checked = plan_own(parsed.doc)
        assert checked.plan is None
        (diag,) = checked.diagnostics
        assert diag.message == "compare_limits needs a gaussian_grid pointer"
        # on the value of the pointer's kind
        lineno = text.splitlines().index("kind = qubit") + 1
        assert (diag.line, diag.column) == (lineno, len("kind = ") + 1)

    @pytest.mark.parametrize(
        "old,new",
        [
            ("kind = gaussian_grid\nspread = 2.0", "kind = qubit\nn_points = 100"),
            ("spread = 2.0", "spread = 2.0\ngenerator_axis = q"),
        ],
    )
    def test_key_of_another_pointer_kind_rejected(self, old, new):
        text = MINIMAL.replace(old, new)
        result = parse(text)
        assert result.doc is None
        (diag,) = result.diagnostics
        line = new.splitlines()[-1]
        key = line.split(" = ")[0]
        assert diag.message == f"unknown key {key!r} in section [pointer]"
        assert (diag.line, diag.column) == (text.splitlines().index(line) + 1, 1)


NETWORK = """tsvf-scenario v1
[system]
dim = 2
[network]
modes = 2
source = 0
seq = beam_splitter 0 1 0.5
seq = phase_shift 1 0.25
seq = slice A:0 B:1
detectors = D1:0, D2:1
postselect = D1
"""

# (scenario, line to replace, its replacement, offending token on the
# replacement's last line, fragment): rules the domain objects check land
# on the token that breaks them
DOMAIN_ERRORS = [
    (NETWORK, "seq = beam_splitter 0 1 0.5", "seq = beam_splitter 0 5 0.5", "5 0.5",
     "beam splitter mode 5 out of range"),
    (NETWORK, "seq = beam_splitter 0 1 0.5", "seq = beam_splitter 1 1 0.5", "1 0.5",
     "distinct modes"),
    (NETWORK, "seq = beam_splitter 0 1 0.5", "seq = beam_splitter 0 1 1.5", "1.5",
     "transmissivity"),
    (NETWORK, "seq = phase_shift 1 0.25", "seq = phase_shift 9 0.25", "9",
     "phase shift mode 9 out of range"),
    (NETWORK, "seq = slice A:0 B:1", "seq = slice A:0 A:1", "A:1", "labels must be unique"),
    (NETWORK, "seq = slice A:0 B:1", "seq = slice A:0 B:7", "B:7",
     "slice arm mode 7 out of range"),
    (NETWORK, "detectors = D1:0, D2:1", "detectors = D1:0, D2:4", "D2:4",
     "detector mode 4 out of range"),
    (NETWORK, "detectors = D1:0, D2:1", "detectors = D1:0, D1:1", "D1:1", "must be unique"),
    (NETWORK, "source = 0", "source = 3", "3", "source mode 3 out of range"),
    (MINIMAL, "spread = 2.0", "spread = -2.0", "-2.0", "spread must be positive"),
    (MINIMAL, "kind = gaussian_grid", "kind = laser", "laser", "unknown pointer kind"),
    (MINIMAL, "spread = 2.0", "spread = 2.0\nn_points = 100", "100", "power of two"),
    (MINIMAL, "spread = 2.0", "spread = 1e200", "1e200", "spread must lie in [1e-100, 1e100]"),
    (MINIMAL, "spread = 2.0", "spread = 1e-200", "1e-200", "spread must lie in [1e-100, 1e100]"),
]


class TestDomainErrorPositions:
    @pytest.mark.parametrize("base,old,new,token,fragment", DOMAIN_ERRORS)
    def test_error_lands_on_token(self, base, old, new, token, fragment):
        text = base.replace(old, new)
        result = parse(text)
        assert result.doc is None
        (diag,) = result.diagnostics
        assert fragment in diag.message
        line = new.splitlines()[-1]
        lineno = text.splitlines().index(line) + 1
        assert (diag.line, diag.column) == (lineno, line.rindex(token) + 1)


SWEEP = MINIMAL.replace(
    "plan = weakvalue\nobservables = sz", "plan = sweep\nmetric = continuity\nobservable = sz"
)
LIMITS = MINIMAL.replace(
    "plan = weakvalue\nobservables = sz", "plan = compare_limits\nobservable = sz\nfixed_g = 0.5"
)
# more digits than Python converts to an int
LONG_INT = "7" * 5000
TRACE = NETWORK + "[pointer]\nkind = qubit\n[experiment]\nplan = trace\narms = A, B\n"
# an operator expression on line 7, its value at column 8
EXPR = (
    "tsvf-scenario v1\n[system]\ndim = 2\n[state up]\namps = 1, 0\n[operator m]\nexpr = pauli_z\n"
)
EXPR3 = EXPR.replace("dim = 2", "dim = 3").replace("1, 0", "1, 0, 0")


def _expr(expr: str, text: str = EXPR) -> str:
    return text.replace("expr = pauli_z", f"expr = {expr}")


# (scenario, every diagnostic of parse, or of validation when it parses,
# as (message, line, column, severity))
PINNED_DIAGNOSTICS = [
    (SWEEP.replace("observable = sz", "observable = sz, sz"),
     (("observable takes one name", 25, 14, "error"),)),
    (SWEEP.replace("metric = continuity", "metric = wobble"),
     (("unknown metric 'wobble'; expected one of continuity, derail, "
       "first_order_residual, overlap_deficit", 24, 10, "error"),)),
    (TRACE.replace("arms = A, B", "arms = A, Q"), (("unresolved arm 'Q'", 16, 11, "error"),)),
    (MINIMAL.replace("observables = sz", "observables = sz, sy"),
     (("unresolved operator 'sy'", 24, 19, "error"),)),
    (MINIMAL.replace("amps = 1, 0\n", ""),
     (("section [state] needs key 'amps'", 8, 1, "error"),
      ("unresolved state 'up_z'", 19, 8, "error"))),
    (NETWORK.replace("source = 0\n", "").replace("postselect = D1\n", ""),
     (("section [network] needs key 'source'", 4, 1, "error"),
      ("section [network] needs key 'postselect'", 4, 1, "error"))),
    (MINIMAL.replace("observables = sz\n", ""),
     (("section [experiment] needs key 'observables'", 22, 1, "error"),)),
    (MINIMAL.replace("plan = weakvalue\n", ""),
     (("section [experiment] needs key 'plan'", 22, 1, "error"),)),
    (MINIMAL.replace("kind = gaussian_grid\n", ""),
     (("section [pointer] needs key 'kind'", 14, 1, "error"),)),
    (MINIMAL.replace("[selection]\npre = up_x\npost = up_z\n", ""),
     (("plan 'weakvalue' needs a [selection] section", 19, 1, "error"),)),
    (TRACE.replace("[pointer]\nkind = qubit\n", ""),
     (("plan 'trace' needs a [pointer] section", 12, 1, "error"),)),
    (MINIMAL.replace("spread = 2.0", "spread = 2.0\nspread = 3.0"),
     (("duplicate key 'spread'", 17, 1, "error"),)),
    (MINIMAL.replace("observables = sz", "observables = sz\nmetric = derail"),
     (("unknown key 'metric' in section [experiment]", 25, 1, "error"),)),
    (LIMITS.replace("fixed_g = 0.5", "fixed_g = 0"),
     (("fixed_g must be positive", 25, 11, "error"),)),
    (MINIMAL.replace("spread = 2.0", "spread = 1e999"),
     (("number '1e999' overflows", 16, 10, "error"),)),
    (MINIMAL.replace("expr = pauli_z", "expr = pauli_z\nmatrix = 1, 0; 0, -1"),
     (("operator 'sz' needs exactly one of 'matrix' or 'expr'", 11, 1, "error"),
      ("unresolved operator 'sz'", 25, 15, "error"))),
    (MINIMAL.replace("expr = pauli_z\n", ""),
     (("operator 'sz' needs exactly one of 'matrix' or 'expr'", 11, 1, "error"),
      ("unresolved operator 'sz'", 23, 15, "error"))),
    (NETWORK.replace("beam_splitter 0 1 0.5", "beam_splitter 0 one 0.5"),
     (("malformed beam_splitter args", 7, 21, "error"),)),
    (NETWORK.replace("beam_splitter 0 1 0.5", "beam_splitter 0_0 1 0.5"),
     (("malformed integer '0_0'", 7, 21, "error"),)),
    (NETWORK.replace("phase_shift 1 0.25", "phase_shift 1_0 0.25"),
     (("malformed integer '1_0'", 8, 19, "error"),)),
    (NETWORK.replace("beam_splitter 0 1 0.5", "beam_splitter 0 1"),
     (("beam_splitter needs: mode mode t", 7, 7, "error"),)),
    (NETWORK.replace("phase_shift 1 0.25", "phase_shift 1 quarter"),
     (("malformed phase_shift args", 8, 19, "error"),)),
    (NETWORK.replace("phase_shift 1 0.25", "phase_shift 1"),
     (("phase_shift needs: mode phase", 8, 7, "error"),)),
    (NETWORK.replace("phase_shift 1 0.25", "phase_shift 1 inf"),
     (("malformed number 'inf'", 8, 21, "error"),)),
    (NETWORK.replace("phase_shift 1 0.25", "phase_shift 1 1e999"),
     (("number '1e999' overflows", 8, 21, "error"),)),
    # a token Python cannot read at all outranks the other tokens' faults
    (NETWORK.replace("beam_splitter 0 1 0.5", "beam_splitter 0_0 1 half"),
     (("malformed beam_splitter args", 7, 21, "error"),)),
    (NETWORK.replace("beam_splitter 0 1 0.5", "beam_splitter 0_0 1 1e999"),
     (("malformed integer '0_0'", 7, 21, "error"), ("number '1e999' overflows", 7, 27, "error"))),
    # integers longer than Python converts: a diagnostic, not a traceback
    (MINIMAL.replace("dim = 2", f"dim = {LONG_INT}"),
     ((f"integer '{LONG_INT}' overflows", 3, 7, "error"),)),
    (NETWORK.replace("seq = slice A:0 B:1", f"seq = slice A:0 B:{LONG_INT}"),
     ((f"integer '{LONG_INT}' overflows", 9, 19, "error"),)),
    (NETWORK.replace("phase_shift 1 0.25", f"phase_shift {LONG_INT} 0.25"),
     (("malformed phase_shift args", 8, 19, "error"),)),
    (NETWORK.replace("seq = slice A:0 B:1", "seq = slice"), (("empty slice", 9, 7, "error"),)),
    (NETWORK.replace("D2:1", "D2-1"),
     (("malformed detector 'D2-1' (want label:mode)", 10, 19, "error"),)),
    (NETWORK.replace("modes = 2", "modes = 3"),
     (("network has 3 modes but the system dim is 2", 5, 9, "error"),)),
    (MINIMAL.replace("[pointer]", "[pointer main]"),
     (("section [pointer] takes no name", 14, 1, "error"),
      ("assignment outside any section", 15, 1, "error"),
      ("assignment outside any section", 16, 1, "error"))),
    (MINIMAL.replace("[state up_z]", "[state]"),
     (("section [state] needs one valid name", 8, 1, "error"),
      ("assignment outside any section", 9, 1, "error"),
      ("unresolved state 'up_z'", 20, 8, "error"))),
    (MINIMAL.replace("observables = sz", "observables = sz, 9x"),
     (("invalid name '9x'", 24, 19, "error"),)),
    (MINIMAL.replace("dim = 2", "dim = 0"), (("dim must be in [1, 4096]", 3, 7, "error"),)),
    (MINIMAL.replace("expr = pauli_z", "expr = identity(10000000)"),
     (("identity dimension must be in [1, 4096]", 12, 17, "error"),
      ("unresolved operator 'sz'", 24, 15, "error"))),
    (MINIMAL.replace("amps = 1, 0", "amps = 0, 0")
     .replace("expr = pauli_z", "expr = projector(up_z)"),
     (("cannot project onto the zero state 'up_z'", 12, 18, "error"),
      ("unresolved operator 'sz'", 24, 15, "error"))),
    # the operator-expression evaluator's own messages, at their tokens
    (_expr("pauli_z + 1"), (("cannot add a scalar and an operator", 7, 16, "error"),)),
    (_expr("2 - pauli_z"), (("cannot add a scalar and an operator", 7, 10, "error"),)),
    (_expr("identity(3) * pauli_z", EXPR3), (("operator dimensions differ", 7, 20, "error"),)),
    (_expr("pauli_z + identity(3)", EXPR3), (("operator dimensions differ", 7, 16, "error"),)),
    (_expr("pauli_z / pauli_x"), (("can only divide by a scalar", 7, 16, "error"),)),
    (_expr("2 / pauli_x"), (("can only divide by a scalar", 7, 10, "error"),)),
    (_expr("sqrt(-1) * pauli_z"), (("sqrt needs a non-negative scalar", 7, 8, "error"),)),
    (_expr("pauli_x * sqrt(pauli_z)"), (("sqrt needs a non-negative scalar", 7, 18, "error"),)),
    (_expr("2 * 3"), (("expression is not an operator", 7, 8, "error"),)),
    (_expr("pauli_z pauli_x"), (("unexpected trailing 'pauli_x'", 7, 16, "error"),)),
    (_expr("identity(2 3)"), (("expected ')'", 7, 19, "error"),)),
    (_expr("identity(2.5)"), (("identity needs an integer dimension", 7, 17, "error"),)),
    (_expr("projector(1)"), (("projector needs a state name", 7, 18, "error"),)),
    (_expr("pauli_z & pauli_x"), (("unexpected character '&'", 7, 16, "error"),)),
    (_expr("(" * 65 + "pauli_z" + ")" * 65), (("expression too deeply nested", 7, 71, "error"),)),
    # a unary minus nests like a parenthesis: the 64th is one level too deep
    (_expr("-" * 64 + "pauli_z"), (("expression too deeply nested", 7, 71, "error"),)),
    (EXPR + "[operator m]\nexpr = pauli_x\n", (("duplicate operator 'm'", 8, 1, "error"),)),
    (EXPR.replace("1, 0", "1, 0, 0"),
     (("state 'up' has 3 amplitudes, system dim is 2", 5, 8, "error"),)),
    (EXPR.replace("expr = pauli_z", "matrix = 1, 0, 0; 0, 1, 0; 0, 0, 1"),
     (("operator 'm' is 3-dimensional, system dim is 2", 7, 10, "error"),)),
    # an identity of another dim at its argument, a non-finite intermediate at the value
    (_expr("pauli_z + identity(3)"),
     (("identity is 3-dimensional, system dim is 2", 7, 27, "error"),)),
    (_expr("pauli_x * 1e308 * 10 + 1"), (("operator entries must be finite", 7, 8, "error"),)),
    # numbers are ASCII digits in every grammar, not any Unicode decimal digit
    (MINIMAL.replace("spread = 2.0", "spread = \u0662.\u0665"),
     (("malformed number '\u0662.\u0665'", 16, 10, "error"),)),
    (MINIMAL.replace("dim = 2", "dim = \u0662"), (("malformed integer '\u0662'", 3, 7, "error"),)),
    (NETWORK.replace("phase_shift 1 0.25", "phase_shift \u0661 0.25"),
     (("malformed integer '\u0661'", 8, 19, "error"),)),
    (NETWORK.replace("seq = slice A:0 B:1", "seq = slice A:0 B:\u0661"),
     (("malformed arm 'B:\u0661' (want label:mode)", 9, 17, "error"),)),
    (EXPR.replace("amps = 1, 0", "amps = \u0661, 0"),
     (("malformed complex literal '\u0661'", 5, 8, "error"),)),
    (_expr("identity(\u0662)"), (("unexpected character '\u0662'", 7, 17, "error"),)),
]


class TestPinnedDiagnostics:
    @pytest.mark.parametrize("text,expected", PINNED_DIAGNOSTICS)
    def test_full_diagnostics(self, text, expected):
        result = parse(text)
        if result.ok:
            result = plan_own(result.doc)
            assert result.plan is None
        else:
            assert result.doc is None
        got = tuple((d.message, d.line, d.column, d.severity) for d in result.diagnostics)
        assert got == expected


class TestRoundTrip:
    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_round_trip(self, name):
        # parse . serialize . parse = parse, structurally
        first = parse(load_corpus_text(name))
        assert first.ok, (name, first.diagnostics)
        second = parse(serialize(first.doc))
        assert second.ok, (name, second.diagnostics)
        assert docs_equal(first.doc, second.doc)
        assert serialize(first.doc) == serialize(second.doc)

    @pytest.mark.parametrize(
        "text",
        [
            TRACE.replace("kind = qubit", "kind = qubit\ngenerator_axis = x")
            + "g_schedule = 0.01, 0.005\n",
            LIMITS.replace("spread = 2.0", "spread = 2.0\nn_points = 512\nhalf_width = 48.0")
            + "g_schedule = 0.04, 0.02, 0.01, 0.005\n"
            "spread_schedule = 1.0, 2.0, 4.0\n"
            "fixed_spread = 3.0\n",
        ],
        ids=["trace", "compare_limits"],
    )
    def test_plan_round_trip(self, text):
        first = parse(text)
        assert first.ok, first.diagnostics
        written = serialize(first.doc)
        second = parse(written)
        assert second.ok, second.diagnostics
        assert docs_equal(first.doc, second.doc)
        assert serialize(second.doc) == written
        # every key of the source is written back (operators as matrix
        # literals), and the document plans
        keys = {line.split(" = ")[0] for line in text.splitlines() if " = " in line} - {"expr"}
        assert keys <= {line.split(" = ")[0] for line in written.splitlines() if " = " in line}
        checked = plan_own(first.doc)
        assert checked.plan is not None, checked.diagnostics

    def test_corpus_is_complete(self):
        assert corpus_names() == (
            "compare_limits_demo",
            "eigenvalue_zero",
            "nested_mzi_presence",
            "spin_flipped",
            "spin_splus_sminus",
            "spin_sz",
        )

    def test_corpus_network_matches_preset_builder(self):
        doc = load_corpus("nested_mzi_presence")
        assert doc.network == build_nested_mzi()

    def test_corpus_validates(self):
        for name in corpus_names():
            load_corpus(name)  # raises if parse or validation fails


class TestTotality:
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=400))
    def test_random_text_never_crashes(self, text):
        result = parse(text)
        assert (result.doc is None) == any(
            d.severity == "error" for d in result.diagnostics
        ) or result.doc is not None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, len(MINIMAL)))
    def test_truncations_never_crash(self, cut):
        parse(MINIMAL[:cut])

    @settings(max_examples=150, deadline=None)
    @given(
        # sizes 9..4096 are valid and would allocate, so they are never drawn
        st.one_of(st.integers(-3, 8), st.integers(4097, 10**12)),
        st.lists(
            st.one_of(
                st.just("0"),
                st.builds("{}1e{}".format, st.sampled_from("+-"), st.integers(-300, 300)),
            ),
            min_size=2,
            max_size=2,
        ),
    )
    def test_identity_and_projector_arguments_never_crash(self, k, amps):
        result = parse(MINIMAL.replace("expr = pauli_z", f"expr = identity({k})"))
        assert result.ok == (k == 2)
        state = f"[state v]\namps = {', '.join(amps)}\n"
        result = parse(MINIMAL + state + "[operator p]\nexpr = projector(v)\n")
        assert result.ok == any(float(a) != 0.0 for a in amps)
        if result.ok:
            p = result.doc.operators["p"].entries
            assert np.max(np.abs(p @ p - p)) <= 1e-12
            assert abs(np.trace(p) - 1.0) <= 1e-12

    def test_deep_expression_nesting_is_rejected_not_fatal(self):
        text = MINIMAL.replace(
            "expr = pauli_z", "expr = " + "(" * 500 + "pauli_z" + ")" * 500
        )
        result = parse(text)
        assert result.doc is None
        assert any("nested" in d.message for d in result.diagnostics)

    def test_deep_unary_minus_is_rejected_at_the_depth_limit(self):
        # far beyond the interpreter's recursion limit, still the depth guard
        result = parse(MINIMAL.replace("expr = pauli_z", "expr = " + "-" * 5000 + "pauli_z"))
        assert result.doc is None
        assert result.diagnostics[0] == ParseDiagnostic(12, 71, "expression too deeply nested")

    def test_diagnostic_str(self):
        diag = ParseDiagnostic(3, 7, "boom")
        assert str(diag) == "3:7: error: boom"


def _finite_floats():
    return st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _generated_scenarios(draw):
    from tsvflab.scenario import _format_complex

    dim = draw(st.integers(2, 3))
    amps = [
        complex(draw(_finite_floats()), draw(_finite_floats())) for _ in range(dim)
    ]
    if all(a == 0 for a in amps):
        amps[0] = 1.0
    entries = [
        [complex(draw(_finite_floats()), draw(_finite_floats())) for _ in range(dim)]
        for _ in range(dim)
    ]
    rows = "; ".join(", ".join(_format_complex(v) for v in row) for row in entries)
    return (
        "tsvf-scenario v1\n"
        "[system]\n"
        f"dim = {dim}\n"
        "[state v]\n"
        "amps = " + ", ".join(_format_complex(a) for a in amps) + "\n"
        "[operator m]\n"
        f"matrix = {rows}\n"
        "[pointer]\n"
        "kind = qubit\n"
        "[selection]\n"
        "pre = v\n"
        "post = v\n"
        "[experiment]\n"
        "plan = weakvalue\n"
        "observables = m\n"
    )


class TestGeneratedRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_generated_scenarios())
    def test_parse_serialize_parse_is_stable(self, text):
        first = parse(text)
        assert first.ok, first.diagnostics
        second = parse(serialize(first.doc))
        assert second.ok, second.diagnostics
        assert docs_equal(first.doc, second.doc)


#: characters a mutation writes into a corpus file: the grammar's own, so
#: that many mutants still parse and reach ``plan``
_MUTATION_CHARS = "0123456789.+-eE,;=[]#:_ ixyz\n"


@st.composite
def _mutated_corpus(draw):
    """A shipped scenario with one to four characters replaced, inserted or deleted."""
    text = load_corpus_text(draw(st.sampled_from(corpus_names())))
    for _ in range(draw(st.integers(1, 4))):
        cut = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        char = "" if edit == "delete" else draw(st.sampled_from(_MUTATION_CHARS))
        text = text[:cut] + char + text[cut + (edit != "insert"):]
    return text


def _traced(call):
    """(call(), the peak bytes it allocated)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPlanTotality:
    @settings(max_examples=300, deadline=None)
    @given(
        _mutated_corpus(),
        st.one_of(st.none(), st.floats()),
        st.one_of(st.none(), st.floats()),
        # a flag schedule holds `points` floats, so its size stays small here
        st.one_of(st.none(), st.integers(-3, 64)),
    )
    def test_mutated_corpus_and_flags_plan_or_diagnose(self, text, g_max, g_min, points):
        parsed = parse(text)
        if not parsed.ok:
            return
        flags = {"g_max": g_max, "g_min": g_min, "points": points}
        kind = parsed.doc.experiment.kind
        result, peak = _traced(lambda: plan(parsed.doc, kind, flags))
        errors = [d for d in result.diagnostics if d.severity == "error"]
        assert (result.plan is None) == bool(errors or result.flag_error)
        assert not (errors and result.flag_error)
        assert peak < 2**16

    @pytest.mark.parametrize("name", ["spin_sz", "eigenvalue_zero", "compare_limits_demo"])
    def test_plan_allocates_nothing_of_grid_size(self, name):
        # a 4096-point grid holds 2**15 bytes of coordinates and 2**16 of amplitudes
        text = load_corpus_text(name).replace("n_points = 256", "n_points = 4096")
        text = text.replace("half_width = 24.0", "half_width = 256.0")
        doc = parse(text).doc
        result, peak = _traced(lambda: plan(doc, doc.experiment.kind))
        assert result.plan is not None, result.diagnostics
        assert result.plan.pointer.n_points == 4096
        assert peak < 2**14
