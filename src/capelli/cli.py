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
import itertools
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from .elements import (
    capelli_immanant,
    column_capelli,
    column_capelli_alt,
    column_capelli_literal,
    quantum_immanant,
    schur_element,
    schur_element_dyc,
    standard_capelli_expansion,
    young_capelli,
)
from .enveloping import UglElement
from .polynomials import (
    MPoly,
    act_column_capelli_diff,
    act_ugl,
    bitableau,
    imm_operator,
    rank_exact,
    right_symmetrized,
    standard_pairs,
    straighten,
)
from .tableaux import Tableau, check_partition, hook_number, partitions_of

VERIFY_SUITES = (
    "central",
    "oracle",
    "presentations",
    "recursion",
    "bases",
    "projectors",
    "all",
)


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
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return value


def _tableau(text: str) -> Tableau:
    try:
        rows = json.loads(text)
        return Tableau(tuple(tuple(int(x) for x in row) for row in rows))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"not a JSON tableau (row arrays): {exc}")


@contextmanager
def _phase(name: str, enabled: bool):
    start = time.perf_counter()
    yield
    if enabled:
        print(f"timing: {name} {time.perf_counter() - start:.3f}s", file=sys.stderr)


def _render(obj, fmt: str) -> str:
    """An element or expansion as JSON or as text."""
    if fmt == "json":
        return json.dumps(obj.to_json(), indent=2)
    return obj.text()


def cmd_qimm(args) -> int:
    with _phase("compute", args.timing):
        if args.schur:
            element = schur_element(args.shape, args.n)
        else:
            element = quantum_immanant(args.shape, args.n)
    with _phase("render", args.timing):
        print(_render(element, args.format))
    return 0


def cmd_col(args) -> int:
    with _phase("compute", args.timing):
        try:
            element = column_capelli(args.rows, args.cols, args.n)
        except ValueError as exc:
            raise UsageError(str(exc))
    with _phase("render", args.timing):
        print(_render(element, args.format))
    return 0


def cmd_straighten(args) -> int:
    with _phase("compute", args.timing):
        try:
            polynomial = bitableau(args.n, args.d, args.left, args.right)
            expansion = straighten(polynomial)
        except ValueError as exc:
            raise UsageError(str(exc))
    with _phase("render", args.timing):
        print(_render(expansion, args.format))
    return 0


def cmd_expand_standard(args) -> int:
    raw = args.element if args.element is not None else sys.stdin.read()
    with _phase("compute", args.timing):
        try:
            element = UglElement.from_json(json.loads(raw), args.n)
        except (ValueError, TypeError, KeyError) as exc:
            raise UsageError(f"bad element: {exc}")
        expansion = standard_capelli_expansion(element)
    with _phase("render", args.timing):
        print(_render(expansion, args.format))
    return 0


# --- verification suites ----------------------------------------------------
#
# Each check walks its whole range, counts cases, and stops at the first
# counterexample.  Checks run sequentially in a fixed order so the report is
# deterministic.


def _eligible_shapes(h: int, n: int):
    # conjugate(mu)_1 = number of parts; S_mu(n) vanishes when mu has > n rows
    return [mu for mu in partitions_of(h) if len(mu) <= n]


def _check_central(max_h: int, max_n: int):
    cases = 0
    for n in range(2, max_n + 1):
        for h in range(1, max_h + 1):
            for mu in _eligible_shapes(h, n):
                if not schur_element(mu, n).is_central():
                    return cases, f"n={n} mu={mu}: nonzero commutator"
                cases += 1
    return cases, None


def _check_presentations(max_h: int, max_n: int):
    cases = 0
    for n in range(2, max_n + 1):
        for h in range(1, max_h + 1):
            for mu in _eligible_shapes(h, n):
                if schur_element(mu, n) != schur_element_dyc(mu, n):
                    return cases, f"n={n} mu={mu}: presentations differ"
                cases += 1
    return cases, None


def _monomials_up_to(n: int, d: int, degree: int):
    for total in range(degree + 1):
        for exps in itertools.product(range(total + 1), repeat=n * d):
            if sum(exps) == total:
                yield MPoly(n, d, {exps: Fraction(1)})


def _check_oracle(max_h: int, n: int, d: int):
    probes = list(_monomials_up_to(n, d, 3))
    cases = 0
    for h in range(0, max_h + 1):
        for lefts in itertools.product(range(1, n + 1), repeat=h):
            for rights in itertools.product(range(1, n + 1), repeat=h):
                element = column_capelli(lefts, rights, n)
                for probe in probes:
                    via_ugl = act_ugl(element, probe)
                    direct = act_column_capelli_diff(lefts, rights, probe)
                    if via_ugl != direct:
                        return (
                            cases,
                            f"rows={lefts} cols={rights} on {probe.text()}: "
                            f"{via_ugl.text()} != {direct.text()}",
                        )
                    cases += 1
    return cases, None


def _check_recursion(max_h: int, n: int):
    cases = 0
    for h in range(0, max_h + 1):
        for lefts in itertools.product(range(1, n + 1), repeat=h):
            for rights in itertools.product(range(1, n + 1), repeat=h):
                top = column_capelli(lefts, rights, n)
                bottom = column_capelli_alt(lefts, rights, n)
                literal = column_capelli_literal(lefts, rights, n)
                if not (top == bottom == literal):
                    return cases, f"rows={lefts} cols={rights}: routes disagree"
                # row-permutation invariance licenses the sorted memo key
                for perm in itertools.permutations(range(h)):
                    permuted = column_capelli(
                        tuple(lefts[p] for p in perm),
                        tuple(rights[p] for p in perm),
                        n,
                    )
                    if permuted != top:
                        return cases, f"rows={lefts} cols={rights} perm={perm}"
                cases += 1
    return cases, None


def _independent(vectors) -> bool:
    keys = sorted({k for vec in vectors for k in vec})
    matrix = [[vec.get(k, Fraction(0)) for vec in vectors] for k in keys]
    return rank_exact(matrix) == len(vectors)


def _check_bases(max_h: int, n: int):
    cases = 0
    accumulated = []
    for h in range(0, max_h + 1):
        pairs = standard_pairs(h, n, n)
        expected = comb(h + n * n - 1, n * n - 1)
        if len(pairs) != expected:
            return cases, f"h={h}: {len(pairs)} standard pairs, expected {expected}"
        polys = [bitableau(n, n, s, t) for s, t in pairs]
        if not _independent([p.terms for p in polys]):
            return cases, f"h={h}: standard bitableaux dependent"
        accumulated.extend(young_capelli(s, t, n) for s, t in pairs)
        if not _independent([e.terms for e in accumulated]):
            return cases, f"weight<={h}: Young-Capelli elements dependent"
        cases += 1
    return cases, None


def _check_projectors(max_h: int, n: int):
    cases = 0
    for h in range(1, max_h + 1):
        shapes = [lam for lam in partitions_of(h) if lam[0] <= n]
        for lam in shapes:
            scale = Fraction(1, hook_number(lam))
            for u, v in standard_pairs(h, n, n):
                symmetrized = right_symmetrized(n, n, u, v)
                image = imm_operator(lam, symmetrized) * scale
                want = symmetrized if u.shape == lam else MPoly.zero(n, n)
                if image != want:
                    return cases, f"lam={lam} U={u.rows} V={v.rows}"
                cases += 1
        for lam in partitions_of(h):
            for lefts in itertools.product(range(1, n + 1), repeat=h):
                for rights in itertools.product(range(1, n + 1), repeat=h):
                    element = capelli_immanant(lam, lefts, rights, n)
                    support = standard_capelli_expansion(element).shapes()
                    if not support <= {lam}:
                        return cases, f"lam={lam} rows={lefts} cols={rights}: {support}"
                    cases += 1
    return cases, None


def _run_suite(suite: str, args) -> dict:
    plan = {
        "central": ("central", lambda: _check_central(args.max_h, args.max_n)),
        "presentations": (
            "presentations",
            lambda: _check_presentations(args.max_h, args.max_n),
        ),
        "oracle": ("oracle", lambda: _check_oracle(args.max_h, args.n, args.d)),
        "recursion": ("recursion", lambda: _check_recursion(args.max_h, args.n)),
        "bases": ("bases", lambda: _check_bases(args.max_h, args.n)),
        "projectors": ("projectors", lambda: _check_projectors(args.max_h, args.n)),
    }
    names = list(plan) if suite == "all" else [suite]
    checks = []
    for name in names:
        label, runner = plan[name]
        with _phase(label, args.timing):
            cases, counterexample = runner()
        entry = {"name": label, "status": "pass" if counterexample is None else "fail"}
        entry["cases"] = cases
        if counterexample is not None:
            entry["counterexample"] = counterexample
        checks.append(entry)
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {
        "suite": suite,
        "bounds": {"max_h": args.max_h, "max_n": args.max_n, "n": args.n, "d": args.d},
        "checks": checks,
        "status": status,
    }


def cmd_verify(args) -> int:
    report = _run_suite(args.suite, args)
    print(json.dumps(report, indent=2))
    return 0 if report["status"] == "pass" else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capelli",
        description="Exact distinguished elements of U(gl(n)) in PBW normal form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
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
    common(p)
    p.set_defaults(handler=cmd_qimm)

    p = sub.add_parser("col", help="column Capelli bitableau")
    p.add_argument("--rows", type=_indices, required=True, help="left word, e.g. 1,2,3")
    p.add_argument("--cols", type=_indices, required=True, help="right word, e.g. 2,1,1")
    p.add_argument("--n", type=_positive, required=True)
    common(p)
    p.set_defaults(handler=cmd_col)

    p = sub.add_parser(
        "straighten", help="standard-basis expansion of a polynomial bitableau"
    )
    p.add_argument("--left", type=_tableau, required=True, help='rows, e.g. [[2,1],[3]]')
    p.add_argument("--right", type=_tableau, required=True)
    p.add_argument("--n", type=_positive, required=True, help="letter range")
    p.add_argument("--d", type=_positive, required=True, help="place range")
    common(p)
    p.set_defaults(handler=cmd_straighten)

    p = sub.add_parser(
        "expand-standard",
        help="standard Young-Capelli expansion of a serialized PBW element",
    )
    p.add_argument(
        "--element",
        help="element JSON (list of coeff/monomial terms); stdin when omitted",
    )
    p.add_argument("--n", type=_positive, required=True)
    common(p)
    p.set_defaults(handler=cmd_expand_standard)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite", choices=VERIFY_SUITES)
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
