"""The lookup main() parses with gives argparse's Namespace, or leaves the line to argparse."""

from __future__ import annotations

import argparse
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jring import cli
from jring.cli import build_parser, main

from cli_golden import CASES, RECORDED
from test_benchmark_outputs import worker

# each pool of values is (valid, invalid); pick draws an invalid one now and then
INTS = (("1", "2", "3", "5", "7", "0", "12"), ("-1", "", "x", "1.5"))
LABELS = (("0,2", "0,3", "1", "1,0,0,2", "empty"), ("2,0", "-1,2", "", "x"))
# the grammar of each subcommand: its options with the values to draw for
# each (None for a flag), and its number of positionals
COMMANDS = {
    "basis": ({"--n": INTS, "--ell": INTS, "--zero-only": None}, 0),
    "poly": ({}, 1),
    "product": ({}, 2),
    "lift": ({"--max-degree": INTS, "--method": (("tilde", "exp"), ("log",))}, 1),
    "chern": ({"--ell": INTS, "--k": (("2,-1", "-1,2", "3", "1,1"), ("", "x")), "--max-degree": INTS}, 0),
    "dims": ({"--max-n": INTS}, 0),
    "series": ({"--which": (("J", "Jl"), ("K",)), "--ell": INTS, "--order": INTS}, 0),
    "generators": ({"--max-n": INTS}, 0),
    "relations": ({"--degree": INTS}, 0),
    "verify": ({"--max-n": INTS}, 0),
}
FORMATS = (("text", "json", "latex"), ("xml", ""))
TOP = (
    ([], [], [], ["--format", "json"], ["--format=latex"], ["--format", "text"]),
    (["--format", "xml"], ["--form", "text"], ["-h"], ["--format", "json", "--format", "text"]),
)
JUNK = ("-h", "--help", "--", "-", "--n", "--max-degree", "0,2", "x", "--bogus", "-1")
# base command lines of the golden record that only argparse's own matching
# reads: an abbreviation, a repeated option and --
ARGPARSE_ONLY = (
    ["relations", "--deg", "8"],
    ["dims", "--max-n", "3", "--max-n", "5"],
    ["poly", "--", "0,2"],
)


def argparse_args(argv):
    return vars(build_parser().parse_args(argv))


def pick(data, pool):
    valid, invalid = pool
    return data.draw(st.sampled_from(invalid if data.draw(st.integers(0, 7)) == 0 else valid))


def draw_option(data, option, pool):
    """--opt V, --opt=V, or --op V abbreviated; a flag bare or as --flag=V."""
    if pool is None:
        return pick(data, (([option],), ([f"{option}=1"],)))
    value = pick(data, pool)
    spelling = pick(data, (("sep", "sep", "eq"), ("abbrev",)))
    if spelling == "sep":
        return [option, value]
    if spelling == "eq":
        return [f"{option}={value}"]
    return [option[: data.draw(st.integers(2, len(option) - 1))], value]


@settings(max_examples=500, deadline=None, database=None)
@given(st.data())
def test_the_lookup_gives_argparses_namespace_whenever_it_reads_a_line(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    options, positionals = COMMANDS[command]
    items = []
    for option, pool in {**options, "--format": FORMATS}.items():
        # once or absent, now and then repeated
        for _ in range(pick(data, ((1, 1, 1, 1, 0), (2,)))):
            items.append(draw_option(data, option, pool))
    count = pick(data, ((positionals,), (positionals + 1, max(positionals - 1, 0))))
    items += [[pick(data, LABELS)] for _ in range(count)]
    if data.draw(st.integers(0, 5)) == 0:
        items.append([data.draw(st.sampled_from(JUNK) | st.text(max_size=3))])
    top = pick(data, TOP)
    argv = [*top, command, *(token for item in data.draw(st.permutations(items)) for token in item)]
    plain = cli._plain_args(argv)
    if plain is not None:
        assert plain == argparse_args(argv)


@pytest.mark.parametrize("workload", ("queries", "algebra"))
def test_the_lookup_reads_every_benchmark_command_line(workload):
    unread = [
        task["argv"]
        for task in worker.workloads.reference_universe(workload)
        if cli._plain_args(task["argv"]) is None
    ]
    assert unread == []


def test_the_lookup_reads_every_golden_case_that_exits_0_in_the_plain_spelling():
    plain = [
        argv
        for argv in CASES
        if RECORDED[" ".join(argv)][0] == 0
        and argv[2:] not in ARGPARSE_ONLY
        and argv[:-2] not in ARGPARSE_ONLY
    ]
    assert len(plain) > 150
    for argv in plain:
        assert cli._plain_args(argv) == argparse_args(argv), argv


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["poly", "--help"],
        *ARGPARSE_ONLY,
        ["--format", "json", "--format", "text", "poly", "0,2"],
        ["--format", "xml", "poly", "0,2"],
        ["--format=", "poly", "0,2"],
        ["chern", "--k", "-1,2", "--max-degree", "4"],
        ["chern", "--ell", "2", "--k", "1", "--max-degree", "3"],
        ["chern", "--max-degree", "3"],
        ["basis", "--n", "-1", "--ell", "2"],
        ["basis", "--n", "3", "--ell", "2", "--zero-only=1"],
        ["poly"],
        ["poly", "0,2", "0,3"],
        ["poly", "2,0"],
        ["dims", "--max-n", "x"],
        ["lift", "0,2", "--max-degree", "3", "--method", "log"],
        ["polynomial", "0,2"],
    ],
    ids=" ".join,
)
def test_the_lookup_leaves_other_spellings_to_argparse(argv):
    assert cli._plain_args(argv) is None


def test_main_without_argv_reads_sys_argv_through_the_lookup(capsys, monkeypatch):
    assert main(["poly", "0,2", "--format", "latex"]) == 0
    want = capsys.readouterr()

    def refuse(self, args=None, namespace=None):
        raise AssertionError("argparse parsed a plain command line")

    monkeypatch.setattr(sys, "argv", ["jring", "poly", "0,2", "--format", "latex"])
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert main() == 0
    assert capsys.readouterr() == want

    monkeypatch.undo()
    monkeypatch.setattr(sys, "argv", ["jring", "poly", "--", "0,2"])
    assert main() == 0
    assert capsys.readouterr().out == "x2^2 - 2*x1*x3\n"


def test_a_parser_with_an_action_the_lookup_cannot_read_compiles_to_none():
    parser = argparse.ArgumentParser()
    parser.add_argument("--tag", action="append")
    assert cli._compile(parser) is None
    parser = argparse.ArgumentParser()
    parser.add_argument("betas", nargs="+")
    assert cli._compile(parser) is None
