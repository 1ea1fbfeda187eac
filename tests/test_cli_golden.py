"""Every recorded command line prints the same bytes and exits the same way."""

import pytest

from cli_golden import CASES, matches_the_record, unpaired_keys


def test_every_case_is_recorded():
    assert unpaired_keys() == []


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_the_record(argv):
    assert matches_the_record(argv)
