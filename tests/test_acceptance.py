"""The eight acceptance checks, run at full strength with stated budgets.

Each test runs one numbered check of the verification suite through
`verify.run_check` at the full level, with the seed the suite itself
derives, asserts that it passes (its exactness/tolerance claims are raised
as failures inside the check), and enforces the wall-clock budget.  One
PASS/FAIL line is printed per criterion.
"""

import time

import pytest

from buckettrees import verify

SUITE_SEED = 0

# wall-clock budget in seconds per criterion
BUDGETS = {
    "1-total-weights": 60.0,
    "2-measure-equality": 60.0,
    "3-bucket-size-distribution": 120.0,
    "4-spectral": 10.0,
    "5-bijections": 60.0,
    "6-urns": 180.0,
    "7-descendants": 180.0,
    "8-conservation": 30.0,
}

NAMES = list(verify.CHECKS)


@pytest.mark.parametrize("name", NAMES, ids=NAMES)
def test_acceptance_criterion(name):
    result = verify.run_check(name, "full", SUITE_SEED)
    print(result.line())
    assert result.passed, result.traceback
    budget = BUDGETS[name]
    assert result.seconds < budget, (
        f"{name} passed but took {result.seconds:.1f}s, over the {budget:.0f}s budget")


def test_quick_suite_is_fast_and_deterministic():
    start = time.perf_counter()
    results = verify.verify_suite(level="quick", seed=0)
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in results), [r.line() for r in results]
    assert elapsed < 10.0, f"quick suite took {elapsed:.1f}s"
    again = verify.verify_suite(level="quick", seed=0)
    assert [r.detail for r in results] == [r.detail for r in again]


def test_both_levels_run_the_same_eight_checks_in_order(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS",
                        dict.fromkeys(verify.CHECKS, lambda level, seed: level))
    quick = verify.verify_suite(level="quick")
    full = verify.verify_suite(level="full")
    assert [r.name for r in quick] == [r.name for r in full] == list(BUDGETS)
    assert [r.detail for r in quick + full] == ["quick"] * 8 + ["full"] * 8


def test_an_unknown_level_is_refused():
    with pytest.raises(ValueError, match="use 'quick' or 'full'"):
        verify.verify_suite(level="medium")
