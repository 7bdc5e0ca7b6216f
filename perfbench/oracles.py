"""Output checks: physics oracles first, then the recorded reference.

A case passes when the exit code is the expected one and
  * exit 0: the CSV satisfies the physics the generator knows a priori
    (analytic weak values, order classes, presence classes) and every
    number agrees with the reference recorded at the benchmark's defining
    commit to roundoff level;
  * exit 1 or 2: standard output is empty and standard error carries the
    expected diagnostic.
"""

from __future__ import annotations

import math
import re

import numpy as np

#: Same floor as ``tsvflab.limits.METRIC_FLOOR``; restated so the oracle
#: does not depend on the code it checks.
METRIC_FLOOR = 1e-14
FIRST_ORDER_BAND = (0.75, 1.25)
SECOND_ORDER_BAND = (1.75, 2.5)
#: Tolerances of the acceptance suite (criteria 1 and 5).
ANALYTIC_TOL = 1e-12
NUMERIC_TOL = 1e-3

# Reference comparison.  Columns computed directly from the exact state are
# compared at roundoff level; columns that come out of a fit or an
# extrapolation amplify the roundoff of near-floor inputs, so they get a
# looser relative bound.
DIRECT = (1e-9, 1e-13)  # (relative, absolute)
FITTED = (1e-6, 1e-9)
FITTED_COLUMNS = {
    "numeric", "deviation", "residual", "fitted_order", "fitted_coefficient",
    "fit_residual", "leading_order", "estimate",
}

_COMPLEX_RE = re.compile(r"(.+?e-?\d+)([+-].+e-?\d+)i")
_HEADERS = {
    "weakvalue": ["observable", "analytic", "numeric", "deviation", "residual"],
    "sweep": ["g", "metric", "fitted_order", "fitted_coefficient", "fit_residual"],
    "trace": ["arm", "g", "trace"],
    "presence": ["arm", "leading_order", "classification"],
    "compare-limits": ["branch", "parameter", "estimate", "deviation", "analytic"],
}
_BAND_OF_CLASS = {"primary": FIRST_ORDER_BAND, "secondary": SECOND_ORDER_BAND,
                  "first": FIRST_ORDER_BAND, "second": SECOND_ORDER_BAND}


class OracleError(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise OracleError(message)


def number(field: str) -> complex:
    """Value of a CSV field written as ``sci12`` or ``re+imi``."""
    m = _COMPLEX_RE.fullmatch(field)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    return complex(float(field), 0.0)


def _in_band(order: float, band) -> bool:
    return band[0] <= order <= band[1]


def _log_slope(gs, values) -> float:
    gs, values = np.asarray(gs), np.asarray(values)
    usable = values > METRIC_FLOOR
    _require(np.count_nonzero(usable) >= 4, "fewer than 4 values above the floor")
    return float(np.polyfit(np.log(gs[usable]), np.log(values[usable]), 1)[0])


def _check_weakvalue(rows, expect):
    weak = expect["weak"]
    _require([r[0] for r in rows] == sorted(weak), "observable rows")
    for name, analytic, numeric, _, _ in rows:
        w = complex(weak[name])
        _require(abs(number(analytic) - w) <= ANALYTIC_TOL * max(1.0, abs(w)),
                 f"analytic weak value of {name}")
        _require(abs(number(numeric) - w) <= NUMERIC_TOL,
                 f"pointer estimate of {name} off by {abs(number(numeric) - w):.2e}")


def _check_sweep(rows, expect):
    if expect["g"] is not None:
        _require(len(rows) == len(expect["g"]), "sweep length")
        for row, g in zip(rows, expect["g"]):
            _require(abs(float(row[0]) - g) <= 1e-11 * g, "sweep g column")
    orders = {row[2] for row in rows}
    _require(len(orders) == 1, "one fitted order per sweep")
    order = float(orders.pop())
    if expect["order"] == "none":
        _require(math.isinf(order), f"expected all-floor, got order {order}")
        _require(all(float(r[1]) <= METRIC_FLOOR for r in rows), "all-floor values")
    else:
        _require(_in_band(order, _BAND_OF_CLASS[expect["order"]]),
                 f"{expect['metric']} order {order} is not {expect['order']}")


def _check_presence(rows, expect):
    arms = expect["arms"]
    _require([r[0] for r in rows] == sorted(arms), "arm rows")
    for arm, order, classification in rows:
        _require(classification == arms[arm], f"arm {arm} is {classification}")
        if arms[arm] == "none":
            _require(math.isinf(float(order)), f"arm {arm} order")
        else:
            _require(_in_band(float(order), _BAND_OF_CLASS[arms[arm]]), f"arm {arm} order")


def _check_trace(rows, expect):
    arms = expect["arms"]
    by_arm: dict[str, list[tuple[float, float]]] = {}
    for arm, g, value in rows:
        by_arm.setdefault(arm, []).append((float(g), float(value)))
    _require(sorted(by_arm) == sorted(arms), "trace arms")
    for arm, points in by_arm.items():
        gs, values = zip(*points)
        if arms[arm] == "none":
            _require(all(v <= METRIC_FLOOR for v in values), f"arm {arm} left a trace")
        else:
            slope = _log_slope(gs, values)
            _require(_in_band(slope, _BAND_OF_CLASS[arms[arm]]),
                     f"arm {arm} trace order {slope:.3f}")


def _check_compare_limits(rows, expect):
    w = complex(expect["analytic"])
    for row in rows:
        _require(abs(number(row[4]) - w) <= ANALYTIC_TOL * max(1.0, abs(w)), "analytic")
    coupling = [r for r in rows if r[0] == "g_to_zero"]
    spread = [r for r in rows if r[0] == "spread_to_infinity"]
    _require(coupling and spread, "both branches present")
    # rows run g descending, then spread descending: the weakest points are
    # the last coupling row and the first spread row
    _require(float(coupling[-1][3]) <= NUMERIC_TOL, "g -> 0 branch does not converge")
    _require(float(spread[0][3]) <= NUMERIC_TOL, "spread branch does not converge")


_PHYSICS = {
    "weakvalue": _check_weakvalue,
    "sweep": _check_sweep,
    "trace": _check_trace,
    "presence": _check_presence,
    "compare-limits": _check_compare_limits,
}


def _close(a: complex, b: complex, column: str) -> bool:
    if abs(a) <= METRIC_FLOOR:
        a = 0j
    if abs(b) <= METRIC_FLOOR:
        b = 0j
    if a == b:
        return True
    rel, absolute = FITTED if column in FITTED_COLUMNS else DIRECT
    return abs(a - b) <= rel * max(abs(a), abs(b)) + absolute


def compare_to_reference(out: str, reference: str):
    got, want = out.splitlines(), reference.splitlines()
    _require(len(got) == len(want) and got[:1] == want[:1], "output shape differs from reference")
    header = want[0].split(",")
    for line_got, line_want in zip(got[1:], want[1:]):
        fields_got, fields_want = line_got.split(","), line_want.split(",")
        _require(len(fields_got) == len(fields_want), "row width")
        for column, a, b in zip(header, fields_got, fields_want):
            if a == b:
                continue
            try:
                x, y = number(a), number(b)
            except ValueError:
                raise OracleError(f"{column}: {a!r} != reference {b!r}") from None
            _require(_close(x, y, column), f"{column}: {a} vs reference {b}")


def physics(case, out: str):
    lines = out.splitlines()
    _require(lines and lines[0].split(",") == _HEADERS[case.command], "CSV header")
    rows = [line.split(",") for line in lines[1:]]
    _require(rows, "no rows")
    _PHYSICS[case.command](rows, case.expect)


def check(case, rc, out: str, err: str, reference: str | None, use_reference=True):
    """None when the case passed, else the reason it failed."""
    expected_rc = case.expect.get("exit", 0)
    try:
        _require(rc == expected_rc, f"exit code {rc}, expected {expected_rc}: {err.strip()[-200:]}")
        if expected_rc != 0:
            _require(out == "", "data on stdout for a rejected scenario")
            needle = case.expect.get("stderr", "error:")
            _require(needle in err, f"diagnostic lacks {needle!r}: {err.strip()[-200:]}")
            return None
        physics(case, out)
        if use_reference:
            _require(reference is not None, "no recorded reference for this case")
            compare_to_reference(out, reference)
    except OracleError as failure:
        return str(failure)
    except (ValueError, IndexError, KeyError) as failure:
        return f"unreadable output: {failure!r}"
    return None
