"""Golden CLI fixtures: stored bytes stay stable across runs."""

import json
import random

import pytest

import golden_util


def test_enough_fixtures():
    assert len(golden_util.fixture_names()) >= 12


@pytest.mark.parametrize("name", golden_util.fixture_names())
def test_fixture(name):
    problems = golden_util.check_fixture(name)
    assert not problems, "; ".join(problems)


# slightly off su(3): refused at the default alg_tol, accepted at 1e-3
_DIRTY = json.dumps({"n": 3, "entries": [
    [[1e-6, 0.3], [0, 0], [0, 0]],
    [[0, 0], [1e-6, -0.1], [0, 0]],
    [[0, 0], [0, 0], [1e-6, -0.2]],
]})
_OVERRIDES = (["--tol-override", "alg_tol=1e-3"],
              ["--tol-override", "grp_tol=1e-3", "--tol-override", "alg_tol=1e-3"])


def test_shuffled_in_one_process():
    """Every fixture twice, shuffled, in one process, with overrides in between.

    The CLI keeps one parser per process, so each fixture must still
    match its stored bytes after any other call, and a --tol-override
    given to one call must never reach the next.
    """
    names = golden_util.fixture_names() * 2
    random.Random(4).shuffle(names)
    problems = []
    for i, name in enumerate(names):
        code, _ = golden_util.run_cli_capture(
            ["decompose", "-", "--require-su3", *_OVERRIDES[i % 2]], _DIRTY)
        assert code == 0
        problems += golden_util.check_fixture(name)
        code, _ = golden_util.run_cli_capture(["decompose", "-", "--require-su3"], _DIRTY)
        assert code == 2, f"an override leaked past fixture {name}"
    assert not problems, "; ".join(problems)
