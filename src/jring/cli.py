"""Command-line front end: argument parsing and text / JSON / LaTeX output.

Each subcommand's parser carries its handler as args.run, so build_parser is
the one declaration of the command line.  main reads a line in the plain
spelling (exact option strings as --opt V or --opt=V, flags, the declared
positionals, each option once) with a lookup compiled once per process from
that parser, which gives the Namespace argparse would; any other line (help,
abbreviations, --, errors) goes to argparse's own parse_args, the one source
of help, usage and error text.

A command that lists items (basis, chern --ell, dims, generators, relations,
verify) prints them through _print_items and gives only the items, an item's
JSON record and its line: JSON output is one array of records, text and
LaTeX output one line per item.  basis_label writes a basis label, g(0,2) in
text and g_{(0,2)} in LaTeX, and _render_terms writes every signed sum of
terms: polynomials, J-combinations and the LaTeX Poincare series.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NamedTuple, Optional, Sequence

from . import analysis, checks, invariants
from .combinatorics import (
    EMPTY,
    Composition,
    composition_sort_key,
    enumerate_compositions,
    is_composition,
    weight,
)
from .xring import XPolynomial

# ---------------------------------------------------------------------------
# Rendering


def render_polynomial_json(p: XPolynomial) -> list[dict]:
    return [
        {"partition": list(lam), "coeff": str(c)}
        for lam, c in p.sorted_terms()
    ]


def _runs(lam) -> list[tuple[int, int]]:
    """(part, multiplicity) for each run of equal parts of a partition, smallest part first."""
    out = []
    end = len(lam)
    while end:
        v = lam[end - 1]
        # parts are weakly decreasing, so v's run starts where v first occurs
        start = lam.index(v)
        out.append((v, end - start))
        end = start
    return out


def _monomial_text(lam) -> str:
    if not lam:
        return "1"
    return "*".join([f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in _runs(lam)])


def _monomial_latex(lam) -> str:
    if not lam:
        return "1"
    pieces = []
    for v, e in _runs(lam):
        pieces.append(f"x_{{{v}}}" if v >= 10 else f"x_{v}")
        if e > 1:
            pieces.append(f"^{{{e}}}" if e >= 10 else f"^{e}")
    return "".join(pieces)


def _render_terms(terms, mono_fn, joiner: str = " ") -> str:
    """The signed sum of the terms (key, c), each key written by mono_fn.

    A coefficient is an int or a Fraction; its sign and magnitude are read
    off the int, or off the Fraction's numerator and denominator, so no
    Fraction arithmetic runs.  A term whose key writes as "1" shows its
    magnitude alone, and one of magnitude 1 its key alone.
    """
    if not terms:
        return "0"
    pieces = []
    for lam, c in terms:
        if type(c) is int:
            num, den = c, 1
        else:
            num, den = c.numerator, c.denominator
        pieces.append(" - " if num < 0 else " + ")
        if num < 0:
            num = -num
        mag = str(num) if den == 1 else f"{num}/{den}"
        mono = mono_fn(lam)
        if mono == "1":
            pieces.append(mag)
        elif mag == "1":
            pieces.append(mono)
        else:
            pieces.append(f"{mag}{joiner}{mono}")
    # the first term carries its sign with no spaces, and no sign when positive
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


def render_polynomial_text(p: XPolynomial) -> str:
    return _render_terms(p.sorted_terms(), _monomial_text, joiner="*")


def render_polynomial_latex(p: XPolynomial) -> str:
    return _render_terms(p.sorted_terms(), _monomial_latex)


def render_polynomial(p: XPolynomial, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(render_polynomial_json(p))
    if fmt == "latex":
        return render_polynomial_latex(p)
    return render_polynomial_text(p)


def basis_label(beta: Composition, fmt: str) -> str:
    r"""g_beta as g(0,2) and g(empty), or in LaTeX as g_{(0,2)} and g_{(\emptyset)}."""
    if fmt == "latex":
        return "g_{(" + (",".join(map(str, beta)) or r"\emptyset") + ")}"
    return "g(" + (",".join(map(str, beta)) or "empty") + ")"


def render_combination(comb: invariants.JCombination, fmt: str) -> str:
    items = sorted(comb.items(), key=lambda kv: composition_sort_key(kv[0]))
    if fmt == "json":
        return json.dumps(
            [{"beta": list(b), "coeff": str(c)} for b, c in items]
        )
    if fmt == "latex":
        return _render_terms(items, lambda b: basis_label(b, fmt), joiner="")
    return " + ".join(f"{c}*{basis_label(b, fmt)}" for b, c in items) or "0"


def _print_items(fmt: str, items, record, text, latex=None) -> int:
    """JSON is one array of records; text and LaTeX are one line per item.

    record, text and latex map an item to its JSON record and to its line;
    without latex, the LaTeX lines are the text lines.
    """
    if fmt == "json":
        print(json.dumps([record(x) for x in items]))
        return 0
    line = latex if fmt == "latex" and latex else text
    for x in items:
        print(line(x))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def parse_beta(text: str) -> Composition:
    if text == "empty":
        return EMPTY
    try:
        beta = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse index {text!r}")
    if not is_composition(beta) or beta == ():
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a valid index: entries >= 0 with last >= 1, "
            "or 'empty'"
        )
    return beta


def parse_kvec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse k values {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The jring argument parser, built on first use and shared process-wide.

    Every call returns the same object; parse_args keeps no state in it
    between calls.  main reads plain command lines with _lookup, compiled
    from this parser on the first call, and hands the rest to parse_args.
    """
    parser = argparse.ArgumentParser(
        prog="jring",
        description="Exact computations in the ring of Atiyah-Segal "
        "invariant polynomials.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "latex"),
        default="text",
        help="output format",
    )
    # --format is accepted after the subcommand too; when given there it
    # overrides the top-level value, otherwise SUPPRESS keeps it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "latex"),
        default=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", parents=[common], help="list a basis slice with polynomials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--zero-only", action="store_true")
    p.set_defaults(run=cmd_basis)

    p = sub.add_parser("poly", parents=[common], help="print one basis polynomial")
    p.add_argument("beta", type=parse_beta)
    p.set_defaults(run=cmd_poly)

    p = sub.add_parser("product", parents=[common], help="product of two basis elements")
    p.add_argument("beta", type=parse_beta)
    p.add_argument("beta2", type=parse_beta)
    p.set_defaults(run=cmd_product)

    p = sub.add_parser("lift", parents=[common], help="lift a basis polynomial")
    p.add_argument("beta", type=parse_beta)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--method", choices=("tilde", "exp"), default="tilde")
    p.set_defaults(run=cmd_lift)

    p = sub.add_parser("chern", parents=[common], help="Chern character expansions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ell", type=int)
    group.add_argument("--k", type=parse_kvec)
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(run=cmd_chern)

    p = sub.add_parser("dims", parents=[common], help="dimension table")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(run=cmd_dims)

    p = sub.add_parser("series", parents=[common], help="Poincare series coefficients")
    p.add_argument("--which", choices=("J", "Jl"), required=True)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(run=cmd_series)

    p = sub.add_parser("generators", parents=[common], help="algebra generator candidates")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(run=cmd_generators)

    p = sub.add_parser("relations", parents=[common], help="relations among generators")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(run=cmd_relations)

    p = sub.add_parser("verify", parents=[common], help="run the invariant verification suite")
    p.add_argument("--max-n", type=int, default=10)
    p.set_defaults(run=cmd_verify)

    return parser


class _Lookup(NamedTuple):
    """One argparse parser's command line, read off its actions."""

    options: dict  # exact option string -> its action
    positionals: tuple  # the positional actions, in order
    defaults: dict  # the value argparse gives each dest not on the line
    required: frozenset  # dests that must be given, the positionals' included
    exclusive: tuple  # (required, dests) of each mutually exclusive group
    commands: Optional[dict]  # subcommand name -> its _Lookup
    command_dest: Optional[str]  # the dest that names the subcommand


def _compile(parser: argparse.ArgumentParser) -> Optional[_Lookup]:
    """The lookup of parser, or None if it has an action the lookup cannot read."""
    options, positionals, defaults = {}, [], {}
    commands = command_dest = None
    for action in parser._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            default = action.default
            if isinstance(default, str) and action.type is not None:
                default = action.type(default)
            defaults[action.dest] = default
        if isinstance(action, argparse._SubParsersAction):
            commands = {name: _compile(p) for name, p in action.choices.items()}
            command_dest = action.dest
        elif isinstance(action, argparse._StoreConstAction) or (
            isinstance(action, argparse._StoreAction) and action.nargs is None
        ):
            options.update(dict.fromkeys(action.option_strings, action))
            if not action.option_strings:
                positionals.append(action)
        elif not isinstance(action, argparse._HelpAction):
            return None
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    return _Lookup(
        options,
        tuple(positionals),
        defaults,
        frozenset(a.dest for a in parser._actions if a.required and a.dest != command_dest),
        tuple(
            (group.required, frozenset(a.dest for a in group._group_actions))
            for group in parser._mutually_exclusive_groups
        ),
        commands,
        command_dest,
    )


@functools.cache
def _lookup() -> Optional[_Lookup]:
    return _compile(build_parser())


def _read(lookup: Optional[_Lookup], argv: list[str], i: int, args: dict) -> bool:
    """Store argv[i:] in args as argparse would, or return False.

    Reads only the spelling whose meaning is plain: exact option strings as
    --opt V or --opt=V, flags, and exactly the declared positionals, each
    dest at most once.  Everything else (help, abbreviations, --, a value
    that starts with -, a bad value, a missing or conflicting option) is
    left to argparse, which also writes every message.
    """
    if lookup is None:
        return False
    args.update(lookup.defaults)
    seen = set()
    positionals = iter(lookup.positionals)
    while i < len(argv):
        token = argv[i]
        i += 1
        if token[:1] != "-":
            action = next(positionals, None)
            if action is None:
                # argparse hands the rest of the line to the subcommand
                if lookup.commands is None or token not in lookup.commands:
                    return False
                args[lookup.command_dest] = token
                return _complete(lookup, seen) and _read(lookup.commands[token], argv, i, args)
            value = token
        else:
            option, eq, value = token.partition("=")
            action = lookup.options.get(option)
            if action is None or action.dest in seen:
                return False
            if action.nargs == 0:
                if eq:
                    return False
                value = action.const
            elif not eq:
                if i == len(argv) or argv[i][:1] == "-":
                    return False
                value = argv[i]
                i += 1
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return False
        if action.choices is not None and value not in action.choices:
            return False
        args[action.dest] = value
        seen.add(action.dest)
    return lookup.commands is None and _complete(lookup, seen)


def _complete(lookup: _Lookup, seen: set) -> bool:
    """Every required dest is given, and each exclusive group is kept."""
    if not lookup.required <= seen:
        return False
    for required, dests in lookup.exclusive:
        given = len(dests & seen)
        if given > 1 or (required and not given):
            return False
    return True


def _plain_args(argv: list[str]) -> Optional[dict]:
    """vars(build_parser().parse_args(argv)) if _read can read argv, else None."""
    args: dict = {}
    return args if _read(_lookup(), argv, 0, args) else None


# ---------------------------------------------------------------------------
# Commands


def cmd_basis(args) -> int:
    if args.n < 0 or args.ell < 0:
        raise ValueError("basis needs --n >= 0 and --ell >= 0")
    betas = enumerate_compositions(
        args.n, args.ell, first=0 if args.zero_only else None
    )
    return _print_items(
        args.format,
        ((b, invariants.g_poly(b)) for b in betas),
        lambda bp: {"beta": list(bp[0]), "polynomial": render_polynomial_json(bp[1])},
        lambda bp: f"{basis_label(bp[0], 'text')} = {render_polynomial_text(bp[1])}",
        lambda bp: f"{basis_label(bp[0], 'latex')} &= {render_polynomial_latex(bp[1])} \\\\",
    )


def cmd_poly(args) -> int:
    print(render_polynomial(invariants.g_poly(args.beta), args.format))
    return 0


def cmd_product(args) -> int:
    comb = invariants.structure_constants(args.beta, args.beta2)
    print(render_combination(comb, args.format))
    return 0


def cmd_lift(args) -> int:
    if args.method == "tilde":
        poly = invariants.lift_tilde(args.beta, args.max_degree)
    else:
        poly = invariants.lift_exp(
            invariants.g_poly(args.beta), args.max_degree
        )
    print(render_polynomial(poly, args.format))
    return 0


def cmd_chern(args) -> int:
    if args.k is not None:
        poly = invariants.ch_numeric(args.k, args.max_degree)
        print(render_polynomial(poly, args.format))
        return 0

    def label(exps, latex):
        # e2^2*e3 in text, e_2^2e_3 in LaTeX; LaTeX takes one character as a
        # script, so there a script of 10 or more is braced: e_{10}^{12}
        e, times = ("e_", "") if latex else ("e", "*")
        pieces = []
        for j, k in enumerate(exps, start=2):
            if k:
                sub = f"{{{j}}}" if latex and j >= 10 else j
                sup = f"{{{k}}}" if latex and k >= 10 else k
                pieces.append(f"{e}{sub}^{sup}" if k > 1 else f"{e}{sub}")
        return times.join(pieces)

    return _print_items(
        args.format,
        invariants.chern_coefficients(args.ell, args.max_degree).items(),
        lambda ep: {"exponents": list(ep[0]), "polynomial": render_polynomial_json(ep[1])},
        lambda ep: f"{label(ep[0], False)}: {render_polynomial_text(ep[1])}",
        lambda ep: f"{label(ep[0], True)} &: {render_polynomial_latex(ep[1])} \\\\",
    )


def cmd_dims(args) -> int:
    if args.max_n < 1:
        raise ValueError("dims needs --max-n >= 1")
    dims = analysis.dimension_table(args.max_n)
    degrees = range(1, args.max_n + 1)
    # every cell keeps a space before it, however large the numbers grow
    width = max(4, 1 + len(str(max(map(max, dims.values())))))
    total_width = max(5, len(str(max(map(sum, dims.values())))))

    def text(n):
        row = dims[n] + [0] * (args.max_n - n)
        cells = "".join(f"{d:>{width}}" for d in row)
        return f"{n:>3} |{cells} | {sum(dims[n]):>{total_width}}"

    if args.format == "text":
        cells = "".join(f"{ell:>{width}}" for ell in degrees)
        header = f"  n |{cells} | {'total':>{total_width}}"
        print(header)
        print("-" * len(header))
    return _print_items(
        args.format,
        degrees,
        lambda n: {"n": n, "dims": dims[n], "total": sum(dims[n])},
        text,
        lambda n: f"\\dim J_{{{n}}} & {' & '.join(map(str, dims[n]))} & {sum(dims[n])} \\\\",
    )


def cmd_series(args) -> int:
    if args.which == "Jl" and args.ell is None:
        raise ValueError("series --which Jl needs --ell")
    if args.which == "J" and args.ell is not None:
        raise ValueError("series --which J takes no --ell")
    coeffs = analysis.poincare_series(args.order, args.ell)
    if args.format == "json":
        print(json.dumps({"order": args.order, "coeffs": coeffs}))
    elif args.format == "latex":
        terms = [(n, c) for n, c in enumerate(coeffs) if c]
        power = lambda n: "1" if n == 0 else "t" if n == 1 else f"t^{{{n}}}"
        print(_render_terms(terms, power, joiner="") + " + \\cdots")
    else:
        print(" ".join(str(c) for c in coeffs))
    return 0


def cmd_generators(args) -> int:
    if args.max_n < 1:
        raise ValueError("generators needs --max-n >= 1")
    return _print_items(
        args.format,
        analysis.generator_candidates(args.max_n),
        list,
        lambda g: f"{basis_label(g, 'text')}  (degree {weight(g)})",
        lambda g: basis_label(g, "latex"),
    )


def cmd_relations(args) -> int:
    if args.degree < 1:
        raise ValueError("relations needs --degree >= 1")
    gens = analysis.generator_candidates(args.degree)
    relations = analysis.find_relations(args.degree, gens)
    if not relations and args.format != "json":
        print(f"no relations in degree {args.degree}")
        return 0
    return _print_items(
        args.format,
        (sorted(rel.items()) for rel in relations),
        lambda rel: [{"monomial": [list(b) for b in mono], "coeff": str(c)} for mono, c in rel],
        lambda rel: " + ".join(
            f"{c}*" + "".join(basis_label(b, "text") for b in mono) for mono, c in rel
        ) + " = 0",
    )


def cmd_verify(args) -> int:
    if args.max_n < 1:
        raise ValueError("verify needs --max-n >= 1")
    results = checks.run(args.max_n)
    _print_items(
        args.format,
        results,
        lambda r: {"check": r[0], "ok": r[1]},
        lambda r: f"{'PASS' if r[1] else 'FAIL'}  {r[0]}",
    )
    for name, _, fault in results:
        if fault is not None:
            print(f"jring: {name}: raised {type(fault).__name__}: {fault}", file=sys.stderr)
    failures = sum(not ok for _, ok, _ in results)
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    plain = _plain_args(argv)
    args = build_parser().parse_args(argv) if plain is None else argparse.Namespace(**plain)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"jring: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        # the partition search recurses once per part
        print(f"jring: input too large: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"jring: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
