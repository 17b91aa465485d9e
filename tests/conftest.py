import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from vawar.tape import LagSpec, TradeTape, WindowSpec, resolve

# HYPOTHESIS_PROFILE=ci raises the budget of the property tests that take it
# from the profile (by budget); the default keeps each test's own.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def budget(n):
    # n examples, or the loaded hypothesis profile's budget where that is
    # larger
    return max(n, settings.default.max_examples)


# Canonical 4-tick tape used throughout: p = [2,2,4,2], U = [10,5,10,5],
# window = ticks {1,2,3}, lag 1.  Every closed-form expectation below is
# hand-computable: returns [1, 2, 0.5], adjusted values [10, 20, 20].
FIXTURE_PRICES = (2.0, 2.0, 4.0, 2.0)
FIXTURE_VOLUMES = (10.0, 5.0, 10.0, 5.0)

FIXTURE_CSV = "time,price,volume\n0,2,10\n1,2,5\n2,4,10\n3,2,5\n"


@pytest.fixture
def tape_a():
    return TradeTape.from_arrays(FIXTURE_PRICES, FIXTURE_VOLUMES)


@pytest.fixture
def window_a(tape_a):
    return resolve(tape_a, WindowSpec(start=1, count=3), LagSpec(lag_l=1))


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "fixture_a.csv"
    path.write_text(FIXTURE_CSV, encoding="utf-8")
    return path
