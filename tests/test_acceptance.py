"""The eight acceptance checks, run at full strength with stated budgets.

Each test drives one numbered check from the verification suite with its
full parameter set and the seed the suite itself would derive, asserts the
check's exactness/tolerance claims (raised as failures inside the check),
and enforces the wall-clock budget.  One PASS/FAIL line is printed per
criterion.
"""

import time

import pytest

from buckettrees import verify
from buckettrees.grow import RngStream

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

NAMES = list(verify.FULL_PARAMS)


@pytest.mark.parametrize("name", NAMES, ids=NAMES)
def test_acceptance_criterion(name):
    index = NAMES.index(name)
    fn, params = verify.FULL_PARAMS[name]
    kwargs = dict(params)
    if "seed" in fn.__code__.co_varnames:
        kwargs["seed"] = RngStream(SUITE_SEED).child(index).integers(2 ** 62)
    start = time.perf_counter()
    try:
        detail = fn(**kwargs)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        print(f"FAIL {name} ({elapsed:.2f}s): {type(exc).__name__}: {exc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS {name} ({elapsed:.2f}s): {detail}")
    budget = BUDGETS[name]
    assert elapsed < budget, (
        f"{name} passed but took {elapsed:.1f}s, over the {budget:.0f}s budget")


def test_quick_suite_is_fast_and_deterministic():
    start = time.perf_counter()
    results = verify.verify_suite(level="quick", seed=0)
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in results), [r.line() for r in results]
    assert elapsed < 10.0, f"quick suite took {elapsed:.1f}s"
    again = verify.verify_suite(level="quick", seed=0)
    assert [r.detail for r in results] == [r.detail for r in again]
