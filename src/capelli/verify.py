"""The paper's claims as exhaustive checks over bounded ranges.

Each check walks its whole range, counts cases, and stops at the first
counterexample; it returns ``(cases, counterexample)``, with ``None`` for the
counterexample when every case holds.  ``SUITES`` names the checks once, in
report order, and ``run`` runs one suite (or ``"all"``) into the JSON report
that ``capelli verify`` prints.  Checks run sequentially in a fixed order, so
the report is deterministic.
"""

from __future__ import annotations

import itertools
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
    schur_element,
    schur_element_dyc,
    standard_capelli_expansion,
    young_capelli,
)
from .polynomials import (
    MPoly,
    act_column_capelli_diff,
    act_ugl,
    bitableau,
    imm_operator,
    rank_exact,
    right_symmetrized,
    standard_pairs,
)
from .tableaux import hook_number, partitions_of


@contextmanager
def phase(name: str, enabled: bool):
    """Print the wall clock of the block to stderr when enabled."""
    start = time.perf_counter()
    yield
    if enabled:
        print(f"timing: {name} {time.perf_counter() - start:.3f}s", file=sys.stderr)


def _schur_cases(max_h: int, max_n: int):
    """Every (n, μ) with 2 ≤ n ≤ max_n, 1 ≤ |μ| ≤ max_h and S_μ(n) ≠ 0."""
    for n in range(2, max_n + 1):
        for h in range(1, max_h + 1):
            for mu in partitions_of(h):
                if len(mu) <= n:  # S_mu(n) vanishes when mu has more than n rows
                    yield n, mu


def _word_pairs(h: int, n: int):
    """Every (lefts, rights) pair of length-h words over 1..n."""
    words = list(itertools.product(range(1, n + 1), repeat=h))
    return itertools.product(words, repeat=2)


def _monomials_up_to(n: int, d: int, degree: int):
    """Every monomial of degree at most ``degree``, lowest degree first and
    each degree in increasing order of exponent vectors."""
    slots = range(n * d)
    for total in range(degree + 1):
        combos = itertools.combinations_with_replacement(slots, total)
        for exps in sorted(tuple(map(combo.count, slots)) for combo in combos):
            yield MPoly(n, d, {exps: 1})


def _independent(vectors) -> bool:
    keys = sorted({k for vec in vectors for k in vec})
    matrix = [[vec.get(k, Fraction(0)) for vec in vectors] for k in keys]
    return rank_exact(matrix) == len(vectors)


def check_central(max_h: int, max_n: int):
    """Schur elements commute with every generator."""
    cases = 0
    for n, mu in _schur_cases(max_h, max_n):
        if not schur_element(mu, n).is_central():
            return cases, f"n={n} mu={mu}: nonzero commutator"
        cases += 1
    return cases, None


def check_presentations(max_h: int, max_n: int):
    """The character and double Young-Capelli presentations agree."""
    cases = 0
    for n, mu in _schur_cases(max_h, max_n):
        if schur_element(mu, n) != schur_element_dyc(mu, n):
            return cases, f"n={n} mu={mu}: presentations differ"
        cases += 1
    return cases, None


def check_oracle(max_h: int, n: int, d: int):
    """Column Capelli elements act on C[M_{n,d}] as their differential operators."""
    probes = list(_monomials_up_to(n, d, 3))
    cases = 0
    for h in range(0, max_h + 1):
        for lefts, rights in _word_pairs(h, n):
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


def check_recursion(max_h: int, n: int):
    """The three column routes agree.  Every row permutation of a pair is a
    pair of this range too, so the literal route, which sorts no rows, checks
    column_capelli's row-sorted memo key on each permutation as well."""
    cases = 0
    for h in range(0, max_h + 1):
        for lefts, rights in _word_pairs(h, n):
            top = column_capelli(lefts, rights, n)
            bottom = column_capelli_alt(lefts, rights, n)
            literal = column_capelli_literal(lefts, rights, n)
            if not (top == bottom == literal):
                return cases, f"rows={lefts} cols={rights}: routes disagree"
            cases += 1
    return cases, None


def check_bases(max_h: int, n: int):
    """Standard bitableaux and standard Young-Capelli elements are bases."""
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


def check_projectors(max_h: int, n: int):
    """Immanant operators project onto shapes, and Capelli immanants expand
    over standard Young-Capelli elements of their own shape only."""
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
            for lefts, rights in _word_pairs(h, n):
                element = capelli_immanant(lam, lefts, rights, n)
                support = standard_capelli_expansion(element).shapes()
                if not support <= {lam}:
                    return cases, f"lam={lam} rows={lefts} cols={rights}: {support}"
                cases += 1
    return cases, None


# suite name -> check over the bounds (max_h, max_n, n, d), in report order;
# each entry looks its check up by name when it runs, so a check replaced on
# this module is the one that runs
SUITES = {
    "central": lambda max_h, max_n, n, d: check_central(max_h, max_n),
    "presentations": lambda max_h, max_n, n, d: check_presentations(max_h, max_n),
    "oracle": lambda max_h, max_n, n, d: check_oracle(max_h, n, d),
    "recursion": lambda max_h, max_n, n, d: check_recursion(max_h, n),
    "bases": lambda max_h, max_n, n, d: check_bases(max_h, n),
    "projectors": lambda max_h, max_n, n, d: check_projectors(max_h, n),
}


def run(suite: str, max_h: int, max_n: int, n: int, d: int, timing: bool = False) -> dict:
    """Run one suite of ``SUITES``, or every suite for ``"all"``, into a report;
    its ``status`` is ``"pass"`` when no check found a counterexample."""
    checks = []
    for name in SUITES if suite == "all" else [suite]:
        with phase(name, timing):
            cases, counterexample = SUITES[name](max_h, max_n, n, d)
        status = "pass" if counterexample is None else "fail"
        entry = {"name": name, "status": status, "cases": cases}
        if counterexample is not None:
            entry["counterexample"] = counterexample
        checks.append(entry)
    return {
        "suite": suite,
        "bounds": {"max_h": max_h, "max_n": max_n, "n": n, "d": d},
        "checks": checks,
        "status": "pass" if all(c["status"] == "pass" for c in checks) else "fail",
    }
