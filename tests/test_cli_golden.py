"""Every recorded command line prints the same bytes and exits the same way."""

import pytest

from cli_golden import CASES, RECORDED, run_case


def test_every_case_is_recorded():
    assert sorted(RECORDED) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_the_record(argv):
    assert run_case(argv) == RECORDED[" ".join(argv)]
