"""Command-line surface for the element families.

Subcommands:

    qimm            quantum immanant / Schur element in PBW normal form
    col             column Capelli bitableau in PBW normal form
    straighten      expand a polynomial bitableau over standard bitableaux
    expand-standard expand a PBW element over standard Young-Capelli elements
    verify          run a named invariant suite and emit a JSON report

Output is deterministic: two runs of the same command produce byte-identical
stdout.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .elements import (
    column_capelli,
    quantum_immanant,
    schur_element,
    standard_capelli_expansion,
)
from .enveloping import UglElement
from .polynomials import bitableau, straighten
from .tableaux import Tableau, check_partition
from .terms import json_term_list
from .verify import SUITES, phase, run


class UsageError(Exception):
    """Invalid input discovered after argument parsing."""


def _shape(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
        return check_partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a partition: {text!r} ({exc})")


def _indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated index list: {text!r}")


def _positive(text: str) -> int:
    message = f"must be a positive integer: {text!r}"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if value < 1:
        raise argparse.ArgumentTypeError(message)
    return value


def _tableau(text: str) -> Tableau:
    try:
        return Tableau.from_json(json.loads(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a JSON tableau (row arrays): {exc}")


def _expand_standard(args):
    raw = args.element if args.element is not None else sys.stdin.read()
    try:
        element = UglElement.from_json(json.loads(raw), args.n)
    except ValueError as exc:
        raise UsageError(f"bad element: {exc}")
    return standard_capelli_expansion(element)


# computing subcommand -> its element or expansion from the parsed arguments;
# each entry looks its constructors up by name when it runs, so wrappers
# installed on this module's names see the calls
COMPUTE = {
    "qimm": lambda a: (schur_element if a.schur else quantum_immanant)(a.shape, a.n),
    "col": lambda a: column_capelli(a.rows, a.cols, a.n),
    "straighten": lambda a: straighten(bitableau(a.n, a.d, a.left, a.right)),
    "expand-standard": _expand_standard,
}


def cmd_compute(args) -> int:
    """Compute the subcommand's element or expansion and print it as text or JSON."""
    with phase("compute", args.timing):
        try:
            result = COMPUTE[args.command](args)
        except ValueError as exc:
            raise UsageError(str(exc))
    with phase("render", args.timing):
        if args.format == "json":
            print(json_term_list(result.to_json()))
        else:
            print(result.text())
    return 0


def cmd_verify(args) -> int:
    report = run(args.suite, args.max_h, args.max_n, args.n, args.d, args.timing)
    print(json.dumps(report, indent=2))
    return 0 if report["status"] == "pass" else 1


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors print one line, as a UsageError does;
    the subcommand parsers are of the same class."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="capelli",
        description="Exact distinguished elements of U(gl(n)) in PBW normal form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def computing(p):
        p.set_defaults(handler=cmd_compute)
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default: text)",
        )
        p.add_argument(
            "--timing",
            action="store_true",
            help="print wall-clock per phase to stderr",
        )

    p = sub.add_parser("qimm", help="quantum immanant / Schur element")
    p.add_argument("--shape", type=_shape, required=True, help="partition, e.g. 2,1")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument(
        "--schur",
        action="store_true",
        help="divide by the hook number (Schur element normalization)",
    )
    computing(p)

    p = sub.add_parser("col", help="column Capelli bitableau")
    p.add_argument("--rows", type=_indices, required=True, help="left word, e.g. 1,2,3")
    p.add_argument("--cols", type=_indices, required=True, help="right word, e.g. 2,1,1")
    p.add_argument("--n", type=_positive, required=True)
    computing(p)

    p = sub.add_parser(
        "straighten", help="standard-basis expansion of a polynomial bitableau"
    )
    p.add_argument("--left", type=_tableau, required=True, help='rows, e.g. [[2,1],[3]]')
    p.add_argument("--right", type=_tableau, required=True)
    p.add_argument("--n", type=_positive, required=True, help="letter range")
    p.add_argument("--d", type=_positive, required=True, help="place range")
    computing(p)

    p = sub.add_parser(
        "expand-standard",
        help="standard Young-Capelli expansion of a serialized PBW element",
    )
    p.add_argument(
        "--element",
        help="element JSON (list of coeff/monomial terms); stdin when omitted",
    )
    p.add_argument("--n", type=_positive, required=True)
    computing(p)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("--max-h", type=_positive, default=2, dest="max_h")
    p.add_argument("--max-n", type=_positive, default=2, dest="max_n")
    p.add_argument("--n", type=_positive, default=2, help="gl(n) size (default 2)")
    p.add_argument("--d", type=_positive, default=2, help="place count (default 2)")
    p.add_argument("--timing", action="store_true", help="per-check wall clock on stderr")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
