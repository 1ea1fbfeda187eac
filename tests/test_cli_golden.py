"""Every recorded command line prints the same bytes and exits the same way."""

import pytest

from cli_golden import CASES, matches_the_record, unpaired_keys, unwrap_usage


def test_every_case_is_recorded():
    assert unpaired_keys() == []


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_the_record(argv):
    assert matches_the_record(argv)


def test_usage_wrapping_does_not_reach_the_record():
    # the same usage block as CPython 3.12 and 3.13 wrap it; text outside a
    # usage block keeps its line breaks and indentation
    older = "usage: jring [-h]\n             {basis,poly}\n             ...\njring: error: x\n"
    newer = "usage: jring [-h]\n             {basis,poly} ...\njring: error: x\n"
    joined = "usage: jring [-h] {basis,poly} ...\njring: error: x\n"
    assert unwrap_usage(older) == unwrap_usage(newer) == joined
    assert unwrap_usage("jring: error: x\n  usage: y\n    z\n") == "jring: error: x\n  usage: y\n    z\n"
