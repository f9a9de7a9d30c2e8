"""Grading of the property batteries' margins."""

import math

from evoinc import suites


def test_a_nan_margin_fails_its_check_wherever_it_comes():
    for margins in ([1.0, math.nan], [math.nan, 1.0], [2.0, math.nan, 1.0]):
        assert math.isnan(suites._min_margin(margins))
        result = suites.CheckResult.from_margins("probe", len(margins),
                                                 margins)
        assert not result.passed
        assert result.line().startswith("FAIL probe trials=")


def test_margins_grade_by_their_minimum():
    result = suites.CheckResult.from_margins("probe", 3, [0.5, 0.0, 2.0])
    assert result == suites.CheckResult("probe", 3, 0.0, True)
    assert not suites.CheckResult.from_margins("probe", 2, [1.0, -1e-9]).passed
    assert suites._min_margin([]) == math.inf
