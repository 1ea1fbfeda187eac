import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jring.cli import (
    build_parser,
    main,
    parse_beta,
    render_combination,
    render_polynomial,
)
from jring import analysis, checks, invariants
from jring.invariants import g_poly
from jring.xring import XPolynomial

import render_oracle
from test_checks import (
    FAULTS,
    expansion_leaves_the_slice,
    lowering_leaves_the_slice,
    one_box_coefficient_bumped,
    product_leaves_b0,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# rendering


def test_render_polynomial_text():
    assert render_polynomial(g_poly((0, 2)), "text") == "x2^2 - 2*x1*x3"
    assert render_polynomial(g_poly((1,)), "text") == "x1"


def test_render_polynomial_latex():
    assert render_polynomial(g_poly((0, 2)), "latex") == "x_2^2 - 2 x_1x_3"


def test_monomials_brace_two_digit_parts_and_exponents_in_latex():
    # runs of equal parts, smallest part first; LaTeX braces a part or an
    # exponent of 10 or more
    p = XPolynomial({(12, 12, 3) + (1,) * 10: 1})
    assert render_polynomial(p, "text") == "x1^10*x3*x12^2"
    assert render_polynomial(p, "latex") == "x_1^{10}x_3x_{12}^2"
    assert render_polynomial(XPolynomial({(10, 9, 9): 1}), "latex") == "x_9^2x_{10}"


def test_render_polynomial_json_round_trip():
    data = json.loads(render_polynomial(g_poly((0, 3)), "json"))
    terms = {tuple(t["partition"]): int(t["coeff"]) for t in data}
    assert terms == dict(g_poly((0, 3)).terms)


def test_render_combination():
    comb = {(0, 2, 0, 1): 2, (0, 0, 0, 2): 1}
    assert (
        render_combination(comb, "text")
        == "2*g(0,2,0,1) + 1*g(0,0,0,2)"
    )
    assert (
        render_combination(comb, "latex")
        == "2g_{(0,2,0,1)} + g_{(0,0,0,2)}"
    )
    # signs, unit magnitudes and the empty label
    assert (
        render_combination({(): -1, (0, 1): -3, (1,): 1}, "latex")
        == r"-g_{(\emptyset)} + g_{(1)} - 3g_{(0,1)}"
    )
    assert render_combination({}, "latex") == "0"


# a partition as its runs {part: multiplicity}; () is the constant term
partitions = st.dictionaries(st.integers(1, 12), st.integers(1, 12), max_size=3).map(
    lambda runs: tuple(sorted((v for v, e in runs.items() for _ in range(e)), reverse=True))
)
coefficients = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-9, 9),
    st.integers(-1000, 1000),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(7, 3), Fraction(-7, 3)]),
)
compositions = st.one_of(
    st.just(()),
    st.builds(
        lambda body, last: tuple(body) + (last,),
        st.lists(st.integers(0, 12), max_size=4),
        st.integers(1, 12),
    ),
)


@settings(max_examples=500, deadline=None, database=None)
@given(st.dictionaries(partitions, coefficients, max_size=12))
def test_polynomials_render_as_the_oracle_renders_them(terms):
    # int, +-1 and +-p/q coefficients, a constant term, parts and
    # multiplicities of 10 or more, in every format
    p = XPolynomial(terms)
    for fmt in ("text", "latex", "json"):
        assert render_polynomial(p, fmt) == render_oracle.render_polynomial(p, fmt)


@settings(max_examples=200, deadline=None, database=None)
@given(st.dictionaries(compositions, st.integers(-20, 20).filter(bool), max_size=6))
def test_combinations_render_in_latex_as_the_oracle_renders_them(comb):
    assert render_combination(comb, "latex") == render_oracle.render_combination_latex(comb)


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(1, 30), st.one_of(st.none(), st.integers(0, 6)))
def test_series_latex_renders_as_the_oracle_renders_it(order, ell):
    argv = ["series", "--order", str(order), "--format", "latex", "--which"]
    argv += ["J"] if ell is None else ["Jl", "--ell", str(ell)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    expected = render_oracle.series_latex(analysis.poincare_series(order, ell))
    assert out.getvalue() == expected + "\n"


def test_parse_beta():
    assert parse_beta("0,2") == (0, 2)
    assert parse_beta("empty") == ()
    import argparse

    for bad in ("2,0", "0", "x", "-1,2"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_beta(bad)


# ---------------------------------------------------------------------------
# commands


def test_poly_command(capsys):
    code, out = run(capsys, "poly", "0,2")
    assert code == 0
    assert out.strip() == "x2^2 - 2*x1*x3"


def test_format_accepted_after_subcommand(capsys):
    code, out = run(capsys, "poly", "0,2", "--format", "latex")
    assert code == 0
    assert out.strip() == "x_2^2 - 2 x_1x_3"


def test_product_command(capsys):
    code, out = run(capsys, "product", "0,2", "0,2")
    assert code == 0
    assert out.strip() == "2*g(0,2,0,1) + 1*g(0,0,0,2)"


def test_basis_refuses_negative_sizes(capsys):
    assert main(["basis", "--n", "-1", "--ell", "2"]) == 2
    assert main(["basis", "--n", "3", "--ell", "-1"]) == 2
    assert "--n >= 0" in capsys.readouterr().err
    code, out = run(capsys, "basis", "--n", "0", "--ell", "0")
    assert code == 0
    assert out.strip() == "g(empty) = 1"


def test_basis_command_json(capsys):
    code, out = run(
        capsys, "basis", "--n", "4", "--ell", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert [tuple(e["beta"]) for e in data] == [(2, 1), (0, 2)]


def test_lift_command(capsys):
    code, out = run(capsys, "lift", "0,1", "--max-degree", "4")
    assert code == 0
    assert out.strip() == "x1^2 + x1*x2 + x1*x3"
    code, out = run(
        capsys, "lift", "0,1", "--max-degree", "5", "--method", "exp"
    )
    assert code == 0
    assert (
        out.strip()
        == "x1^2 + x1*x2 + 1/4*x2^2 + 1/2*x1*x3 + 1/4*x2*x3 + 1/4*x1*x4"
    )


def test_series_command(capsys):
    code, out = run(capsys, "series", "--which", "J", "--order", "8")
    assert code == 0
    assert out.split() == ["1", "1", "1", "1", "2", "2", "4", "4", "7"]
    code, out = run(
        capsys, "series", "--which", "Jl", "--ell", "2", "--order", "6"
    )
    assert code == 0
    assert out.split() == ["0", "0", "1", "0", "1", "0", "1"]
    code, out = run(
        capsys, "series", "--which", "Jl", "--ell", "2", "--order", "6", "--format", "latex"
    )
    assert (code, out) == (0, "t^{2} + t^{4} + t^{6} + \\cdots\n")
    # no nonzero coefficient up to the order: the prefix is 0, not empty
    code, out = run(
        capsys, "series", "--which", "Jl", "--ell", "7", "--order", "5", "--format", "latex"
    )
    assert (code, out) == (0, "0 + \\cdots\n")


def test_series_jl_without_ell_is_usage_error(capsys):
    code = main(["series", "--which", "Jl", "--order", "6"])
    capsys.readouterr()
    assert code == 2


def test_dims_command_json(capsys):
    code, out = run(capsys, "dims", "--max-n", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[5] == {"n": 6, "dims": [0, 1, 1, 1, 0, 1], "total": 4}


def test_dims_text_cells_stay_apart_past_three_digits(capsys, monkeypatch):
    # the first 4-digit cell is 1043, at n = 44; the stub has larger cells
    # and a 6-digit total at n = 3
    dims = {1: [1], 2: [0, 1043], 3: [0, 1, 99999]}
    monkeypatch.setattr(analysis, "dimension_table", lambda n_max: dims)
    code, out = run(capsys, "dims", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    for row in lines[2:]:
        n, cells, total = row.split("|")
        n = int(n)
        assert [int(c) for c in cells.split()] == dims[n] + [0] * (3 - n)
        assert int(total) == sum(dims[n])
    # the columns line up under the header
    assert len({len(line) for line in lines}) == 1


def test_chern_latex_braces_scripts_of_two_digits(capsys):
    # LaTeX takes one character as a sub- or superscript unless it is braced
    code, out = run(capsys, "--format", "latex", "chern", "--ell", "2", "--max-degree", "20")
    assert code == 0
    assert out.splitlines()[-1].startswith("e_2^{10} &: x_{10}^2 - ")
    code, out = run(capsys, "--format", "latex", "chern", "--ell", "10", "--max-degree", "11")
    assert out == "e_{10} &: x_1^{10} \\\\\n"
    code, out = run(capsys, "chern", "--ell", "10", "--max-degree", "11")
    assert out == "e10: x1^10\n"


def test_generators_command(capsys):
    code, out = run(capsys, "generators", "--max-n", "6", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[1], [0, 2], [0, 3], [0, 0, 2]]


def test_relations_command(capsys):
    code, out = run(capsys, "relations", "--degree", "8")
    assert code == 0
    assert out.strip() == "no relations in degree 8"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["relations", "--degree", "0"], "relations needs --degree >= 1"),
        (["relations", "--degree", "-2"], "relations needs --degree >= 1"),
        (["dims", "--max-n", "0"], "dims needs --max-n >= 1"),
        (["generators", "--max-n", "0"], "generators needs --max-n >= 1"),
        (["verify", "--max-n", "0"], "verify needs --max-n >= 1"),
        (
            ["chern", "--ell", "3", "--max-degree", "2"],
            "need max_degree >= ell >= 2",
        ),
        (
            ["series", "--which", "Jl", "--order", "6"],
            "series --which Jl needs --ell",
        ),
        (
            ["series", "--which", "J", "--ell", "3", "--order", "6"],
            "series --which J takes no --ell",
        ),
    ],
)
def test_sizes_below_one_are_refused(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"jring: {message}\n"


def test_verify_command(capsys):
    code, out = run(capsys, "verify", "--max-n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert all(line.startswith("PASS") for line in lines)
    name = "dimension table matches bivariate Poincare series row by row"
    assert f"PASS  {name}" in lines
    # the same checks as JSON records, in the same order
    code, out = run(capsys, "verify", "--max-n", "4", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["check"] for r in records] == [line[6:] for line in lines]
    assert all(r["ok"] is True for r in records)


def test_verify_reports_a_bivariate_row_that_differs(capsys, monkeypatch):
    series = analysis.poincare_series_bivariate

    def shifted(order):
        rows = series(order)
        rows[3][2] = rows[3].get(2, 0) + 1
        return rows

    monkeypatch.setattr(analysis, "poincare_series_bivariate", shifted)
    code, out = run(capsys, "verify", "--max-n", "4")
    assert code == 1
    name = "dimension table matches bivariate Poincare series row by row"
    assert f"FAIL  {name}" in out.splitlines()
    assert out.count("FAIL") == 1


RAISING = [one_box_coefficient_bumped, product_leaves_b0, expansion_leaves_the_slice]


@pytest.mark.parametrize("plant", RAISING, ids=[plant.__name__ for plant in RAISING])
def test_a_check_that_raises_prints_fail(capsys, monkeypatch, plant):
    # the fault stops its check, not verify: every line is printed
    plant(monkeypatch)
    assert main(["verify", "--max-n", "8"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 13
    name = next(name for name, p in FAULTS if p is plant)
    assert f"FAIL  {name}" in lines
    # stderr names each check that raised, in the order of stdout, and
    # what it raised, before the count of failures
    failed = [line[len("FAIL  "):] for line in lines if line.startswith("FAIL  ")]
    *raised, count = captured.err.splitlines()
    assert count == f"{len(failed)} check(s) failed"
    checks_raised = [line.split(": raised ")[0].removeprefix("jring: ") for line in raised]
    assert name in checks_raised
    assert checks_raised == [check for check in failed if check in checks_raised]
    assert all(f": raised {plant.raises.__name__}: " in line for line in raised)


def test_verify_names_what_a_check_raised(capsys, monkeypatch):
    # the check's name, the exception's type and its message, on stderr
    # only: stdout and the JSON records say FAIL as for a False
    expansion_leaves_the_slice(monkeypatch)
    raised = "jring: expansion times transition matrix is identity: raised KeyError: (2, 2)\n"
    assert main(["verify", "--max-n", "8"]) == 1
    captured = capsys.readouterr()
    assert "FAIL  expansion times transition matrix is identity" in captured.out
    assert captured.err == raised + "1 check(s) failed\n"
    assert main(["verify", "--max-n", "8", "--format", "json"]) == 1
    captured = capsys.readouterr()
    records = json.loads(captured.out)
    assert all(sorted(r) == ["check", "ok"] for r in records)
    assert [r["check"] for r in records if not r["ok"]] == [
        "expansion times transition matrix is identity"
    ]
    assert captured.err == raised + "1 check(s) failed\n"


def test_verify_lets_a_recursion_error_through(capsys, monkeypatch):
    # a check that runs out of stack says the input is too large, not FAIL
    def deep(max_degree):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(checks, "closing_identity", deep)
    assert main(["verify", "--max-n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "jring: input too large: maximum recursion depth exceeded\n"


def test_invalid_beta_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "2,0"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_unknown_option_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "0,3", "--no-such-option", "x"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_internal_error_exits_1_without_traceback(capsys, monkeypatch):
    def broken(beta, beta2):
        raise RuntimeError("consistency check failed")

    monkeypatch.setattr(invariants, "structure_constants", broken)
    assert main(["product", "0,2", "0,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "jring: internal error: consistency check failed\n"


def test_a_lowering_outside_the_slice_fails_verify_and_stops_dims(capsys, monkeypatch):
    lowering_leaves_the_slice(monkeypatch)
    assert main(["verify", "--max-n", "6"]) == 1
    captured = capsys.readouterr()
    assert "FAIL  kernel of d matches the span of the B(0) basis" in captured.out
    assert "FAIL  dimension table: counting vs kernel rank" in captured.out
    # without a table neither series can be matched, and both say so
    assert "FAIL  Poincare series matches dimension totals" in captured.out
    assert (
        "FAIL  dimension table matches bivariate Poincare series row by row" in captured.out
    )
    assert len(captured.out.splitlines()) == 13
    # the four checks that raise on the fault name it; the derivation and
    # lift checks return False, and stderr says nothing of them
    message = "d x_(2, 1) has the term x_(1,), outside the slice (n=2, ell=2) of its codomain"
    err = "".join(
        f"jring: {name}: raised RuntimeError: {message}\n"
        for name in (
            "dimension table: counting vs kernel rank",
            "Poincare series matches dimension totals",
            "dimension table matches bivariate Poincare series row by row",
            "kernel of d matches the span of the B(0) basis",
        )
    ) + "6 check(s) failed\n"
    assert captured.err == err
    assert main(["verify", "--max-n", "6", "--format", "json"]) == 1
    captured = capsys.readouterr()
    records = {r["check"]: r["ok"] for r in json.loads(captured.out)}
    assert len(records) == 13
    assert records["kernel of d matches the span of the B(0) basis"] is False
    assert records["dimension table: counting vs kernel rank"] is False
    assert captured.err == err
    assert main(["dims", "--max-n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "jring: internal error: d x_(2, 1) has the term x_(1,), outside the "
        "slice (n=2, ell=2) of its codomain\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["basis", "--n", "1100", "--ell", "1100"], ["poly", "0," * 1099 + "1"]],
    ids=["basis", "poly"],
)
def test_input_past_the_recursion_limit_exits_2(capsys, argv):
    # the partition search recurses once per part
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("jring: input too large: ")
    assert "internal error" not in captured.err


def test_domain_error_exits_2(capsys):
    code = main(["lift", "0,2", "--max-degree", "2"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("method", ["tilde", "exp"])
@pytest.mark.parametrize("max_degree", ["1", "-5"])
def test_lift_methods_refuse_degree_below_the_label(capsys, method, max_degree):
    argv = ["lift", "0,2", "--max-degree", max_degree, "--method", method]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "jring: max_degree below the degree of the polynomial\n"


# ---------------------------------------------------------------------------
# one parser is shared by every main() call in a process


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_carries_no_state_between_calls(capsys):
    code, out = run(capsys, "poly", "0,2", "--format", "latex")
    assert (code, out.strip()) == (0, "x_2^2 - 2 x_1x_3")
    code, out = run(capsys, "poly", "0,2")
    assert (code, out.strip()) == (0, "x2^2 - 2*x1*x3")

    # the --ell / --k group is mutually exclusive: neither may stay set
    code, out = run(capsys, "chern", "--k=2,-1", "--max-degree", "2")
    assert (code, out.strip()) == (0, "-2*x1^2")
    code, out = run(capsys, "chern", "--ell", "2", "--max-degree", "4")
    assert code == 0
    assert out.splitlines() == ["e2: x1^2", "e2^2: x2^2 - 2*x1*x3"]

    with pytest.raises(SystemExit) as exc:
        main(["poly", "2,0"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out = run(capsys, "product", "0,2", "0,2")
    assert (code, out.strip()) == (0, "2*g(0,2,0,1) + 1*g(0,0,0,2)")


def test_python_dash_m_runs_the_cli(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", "jring", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    done = python_m("poly", "0,2")
    code, out = run(capsys, "poly", "0,2")
    assert done.returncode == code == 0
    assert done.stdout == out
    bad = python_m("poly", "0,x")
    assert bad.returncode == 2
    assert "jring" in bad.stderr
