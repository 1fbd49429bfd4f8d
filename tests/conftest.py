from fractions import Fraction

import pytest

_acceptance_lines: list[str] = []


@pytest.fixture
def acceptance():
    """Record a criterion outcome; the lines are echoed in the summary."""

    def record(number: int, description: str, passed: bool) -> bool:
        mark = "PASS" if passed else "FAIL"
        line = f"{mark}  criterion {number:2d}: {description}"
        _acceptance_lines.append(line)
        return passed

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(set(_acceptance_lines)):
            terminalreporter.write_line(line)


def column_abs_sums(rows) -> list[Fraction]:
    """sum_n |rows[n][k]| over the rows, one entry per column k: the plain
    oracle of the column-sum conditions."""
    sums: list[Fraction] = []
    for row in rows:
        sums.extend([Fraction(0)] * (len(row) - len(sums)))
        for k, v in enumerate(row):
            sums[k] += abs(v)
    return sums
