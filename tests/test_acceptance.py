"""Acceptance gate: every numbered criterion must pass at its stated
tolerance.  Each case prints its one-line PASS/FAIL record so the gate
status is readable straight off the pytest output."""

import pytest

from urstates import acceptance
from urstates.errors import InvalidInputError


def test_rows_refuses_an_unknown_suite():
    with pytest.raises(InvalidInputError, match="bogus"):
        acceptance.rows("bogus")


@pytest.mark.parametrize("suite, passes", [("squeeze-shell", 400), ("su11-cs", 72),
                                            ("bg-cs", 64), ("even-odd", 32)])
def test_scan_rows_make_one_moments_pass_per_state(moment_passes, suite, passes):
    # each row's UR gaps come from `char_ur_report`, which reuses the
    # moments of the row's `moment_report`
    assert len(acceptance.rows(suite)) == passes
    assert len(moment_passes) == passes


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
def test_criterion(number, capsys):
    res = acceptance.run([number])[0]
    with capsys.disabled():
        print(res.line())
    assert res.passed, res.detail


# (criterion, suite, column, value just past the column's tolerance, given
# the row as a dict); every column that a criterion reduces is listed
GATED_COLUMNS = [
    (1, "squeeze-shell", "schr_gap", lambda row: -1.01e-9),
    (2, "bg-cs", "kminus_residual", lambda row: 1.01e-8),
    (2, "bg-cs", "variance_anisotropy", lambda row: -1.01e-10),
    (2, "bg-cs", "sum_gap", lambda row: 1.01e-9),
    (3, "su11-cs", "schr_01", lambda row: 1.01e-9),
    (3, "su11-cs", "schr_02", lambda row: -1.01e-9),
    (3, "su11-cs", "schr_12", lambda row: 1.01e-9),
    (3, "su11-cs", "char2_gap", lambda row: -1.01e-9),
    (3, "su11-cs", "char3_gap", lambda row: 1.01e-9),
    (3, "su11-cs", "dk1_sq", lambda row: row["k"] / 2.0 - 1.01e-10),
    (12, "even-odd", "a2_residual", lambda row: 1.01e-10),
    (12, "even-odd", "covariance", lambda row: -1.01e-9),
    (12, "even-odd", "schr_gap", lambda row: 1.01e-9),
]


@pytest.mark.parametrize("number, suite, column, bad", GATED_COLUMNS,
                         ids=[f"{n}-{col}" for n, _s, col, _b in GATED_COLUMNS])
def test_criterion_fails_on_one_scan_row_past_tolerance(monkeypatch, number, suite,
                                                        column, bad):
    grid, row_fn, header = acceptance.SUITES[suite]

    def broken_row(seed, index, point):
        row = row_fn(seed, index, point)
        if index == 3:
            row[header.index(column)] = bad(dict(zip(header, row)))
        return row

    monkeypatch.setitem(acceptance.SUITES, suite, (grid, broken_row, header))
    res = acceptance.run([number])[0]
    assert not res.passed
    assert "crashed" not in res.detail
