"""Acceptance suite: one test per published criterion, all exact equality.

Run with -v to get one pass/fail line per criterion.
"""

import itertools
import random
from fractions import Fraction
from math import comb

from capelli.enveloping import UglElement, element_sum
from capelli.polynomials import (
    MPoly,
    act_column_capelli_diff,
    act_higher_capelli,
    act_ugl,
    bitableau,
    imm_operator,
    immanant,
    rank_exact,
    right_symmetrized,
    standard_pairs,
    straight_key,
    straighten,
)
from capelli.elements import (
    capelli_determinant,
    capelli_immanant,
    column_capelli,
    column_capelli_alt,
    column_capelli_literal,
    double_young_capelli,
    quantum_immanant,
    schur_element,
    schur_element_dyc,
    standard_capelli_expansion,
    young_capelli,
    young_capelli_basis,
)
from capelli.tableaux import Tableau, hook_number, partitions_of


def gen(n, i, j):
    return UglElement.generator(n, i, j)


def monomials_up_to(n, d, degree):
    for total in range(degree + 1):
        for exps in itertools.product(range(total + 1), repeat=n * d):
            if sum(exps) == total:
                yield MPoly(n, d, {exps: Fraction(1)})


def test_a01_schur_element_regression():
    n = 2
    e11, e12, e21, e22 = gen(n, 1, 1), gen(n, 1, 2), gen(n, 2, 1), gen(n, 2, 2)
    expected = (
        e11 * e11 * e22
        - e11 * e12 * e21
        + e11 * e22 * e22
        - e12 * e21 * e22
        - e11 * e22
        + e11 * e11
        + e12 * e21 * 2
        - e11 * 2
    )
    assert schur_element((2, 1), 2) == expected


def test_a02_column_capelli_regressions():
    n = 3
    expected = -(gen(n, 1, 2) * gen(n, 2, 1) * gen(n, 3, 1)) + gen(n, 1, 1) * gen(
        n, 3, 1
    )
    routes = [
        column_capelli((1, 2, 3), (2, 1, 1), n),
        column_capelli((3, 2, 1), (1, 1, 2), n),
        column_capelli_alt((1, 2, 3), (2, 1, 1), n),
        column_capelli_literal((1, 2, 3), (2, 1, 1), n),
    ]
    for route in routes:
        assert route == expected


def _monomial_weight(mono, n):
    # e[i,j] has gl(n) weight eps_i - eps_j
    weight = [0] * n
    for i, j in mono:
        weight[i - 1] += 1
        weight[j - 1] -= 1
    return tuple(weight)


def _assert_is_column_value(value, lefts, rights, n):
    """The characterization of a depth-h column [lefts|rights], checked
    without any column constructor: every PBW monomial has weight
    content(lefts) - content(rights), and h derivatives kill every
    polynomial of degree below h in C[M_{n,n}]."""
    want = _monomial_weight(zip(lefts, rights), n)  # sum of eps_i - eps_j
    for mono in value.terms:
        assert _monomial_weight(mono, n) == want, (lefts, rights, mono)
    for probe in monomials_up_to(n, n, len(lefts) - 1):
        assert not act_ugl(value, probe), (lefts, rights, probe.text())


def test_a03_remark_regressions():
    n = 2
    e11, e12, e21, e22 = gen(n, 1, 1), gen(n, 1, 2), gen(n, 2, 1), gen(n, 2, 2)

    got_b = column_capelli((1, 2, 1), (2, 1, 2), n)
    recorded_b = -(e12 * e21 * e12) + e12 * e22 + e11 * e12 - e12
    assert got_b == recorded_b

    # Recorded earlier as -e[1,1]e[2,2]e[1,2] + e[1,2]e[2,1] - e[1,2].  That
    # value is not a weight vector (e[1,2]e[2,1] has weight 0, the column has
    # weight eps_1 - eps_2) and sends x[2,1] to -x[1,1], although three
    # derivatives must kill it.  Reading the middle term as e[1,2]e[2,2]
    # gives the normal ordering of the column's differential operator.  Only
    # the paper's abstract is in this repo, so whether the misprint lies in
    # the paper's remark or in its transcription is not settled here.
    got_a = column_capelli((1, 2, 1), (1, 2, 2), n)
    recorded_a = -(e11 * e22 * e12) + e12 * e22 - e12
    assert got_a == recorded_a

    for lefts, rights, reference in (
        ((1, 2, 1), (2, 1, 2), recorded_b),
        ((1, 2, 1), (1, 2, 2), recorded_a),
    ):
        _assert_is_column_value(reference, lefts, rights, n)
        for route in (column_capelli_alt, column_capelli_literal):
            assert route(lefts, rights, n) == reference, (route.__name__, lefts)


def test_a04_centrality():
    for n in (2, 3):
        for h in range(1, 4):
            for mu in partitions_of(h):
                if len(mu) > n:
                    continue
                assert schur_element(mu, n).is_central(), (mu, n)


def test_a05_presentation_equivalence():
    for n in (2, 3):
        for h in range(1, 4):
            for mu in partitions_of(h):
                if len(mu) > n:
                    continue
                assert schur_element(mu, n) == schur_element_dyc(mu, n), (mu, n)
    # the worked (2,1)/n=2 collapse: each diagonal double element is a
    # rational multiple of the matching one-sided element
    s1 = Tableau(((1, 2), (1,)))
    s2 = Tableau(((1, 2), (2,)))
    assert double_young_capelli(s1, s1, 2) == young_capelli(s1, s1, 2) * Fraction(
        -3, 2
    )
    assert double_young_capelli(s2, s2, 2) == young_capelli(s2, s2, 2) * (-3)


def test_a06_capelli_determinant():
    for n in (2, 3):
        assert schur_element((1,) * n, n) == capelli_determinant(n)


def test_a07_differential_oracle():
    n = d = 2
    probes = list(monomials_up_to(n, d, 3))
    for h in range(0, 4):
        for lefts in itertools.product((1, 2), repeat=h):
            for rights in itertools.product((1, 2), repeat=h):
                element = column_capelli(lefts, rights, n)
                for probe in probes:
                    assert act_ugl(element, probe) == act_column_capelli_diff(
                        lefts, rights, probe
                    ), (lefts, rights, probe.text())


def test_a08_higher_capelli_oracle():
    cases = [(2, mu, sum(mu) + 1) for mu in ((1, 1), (2, 1))]
    cases += [(3, mu, 3) for mu in ((2,), (1, 1))]
    for n, mu, degree in cases:
        element = quantum_immanant(mu, n)
        for probe in monomials_up_to(n, n, degree):
            assert act_ugl(element, probe) == act_higher_capelli(mu, probe), (
                n,
                mu,
                probe.text(),
            )


def test_a09_vanishing_theorems():
    n = d = 2
    for lam in partitions_of(3):
        applies = lam[0] > min(n, d)
        saw_nonzero_imm = False
        saw_nonzero_cimm = False
        for lefts in itertools.product((1, 2), repeat=3):
            for rights in itertools.product((1, 2), repeat=3):
                p = immanant(n, d, lam, lefts, rights)
                x = capelli_immanant(lam, lefts, rights, n)
                if applies:
                    assert not p, (lam, lefts, rights)
                    assert not x, (lam, lefts, rights)
                else:
                    saw_nonzero_imm = saw_nonzero_imm or bool(p)
                    saw_nonzero_cimm = saw_nonzero_cimm or bool(x)
        if not applies:
            assert saw_nonzero_imm and saw_nonzero_cimm, lam


def test_a10_basis_ranks():
    n = 2
    accumulated = []
    for h in range(0, 4):
        pairs = standard_pairs(h, n, n)
        assert len(pairs) == comb(h + 3, 3)
        polys = [bitableau(n, n, s, t) for s, t in pairs]
        keys = sorted({k for p in polys for k in p.terms})
        matrix = [[p.terms.get(k, Fraction(0)) for p in polys] for k in keys]
        assert rank_exact(matrix) == len(pairs), h
        basis_pairs = young_capelli_basis(h, n)
        assert len(basis_pairs) == comb(h + 3, 3)
        accumulated.extend(young_capelli(s, t, n) for s, t in basis_pairs)
        keys = sorted({k for e in accumulated for k in e.terms})
        matrix = [[e.terms.get(k, Fraction(0)) for e in accumulated] for k in keys]
        assert rank_exact(matrix) == len(accumulated), h


def test_a11_straightening_contract():
    rng = random.Random(20260814)
    done = 0
    while done < 50:
        n = rng.randint(2, 3)
        h = rng.randint(1, 4)
        shape = rng.choice(partitions_of(h))
        left = Tableau(
            tuple(tuple(rng.randint(1, n) for _ in range(k)) for k in shape)
        )
        right = Tableau(
            tuple(tuple(rng.randint(1, n) for _ in range(k)) for k in shape)
        )
        if left.is_standard() and right.is_standard():
            continue
        p = bitableau(n, n, left, right)
        expansion = straighten(p)
        assert expansion.to_polynomial() == p
        base = straight_key(left, right)
        for s, t, _ in expansion.terms:
            assert s.content() == left.content()
            assert t.content() == right.content()
            assert straight_key(s, t) >= base
        done += 1


def test_a12_projector_and_shape_support():
    n = d = 2
    for h in range(1, 4):
        for lam in partitions_of(h):
            if lam[0] <= n:
                scale = Fraction(1, hook_number(lam))
                for u, v in standard_pairs(h, n, d):
                    symmetrized = right_symmetrized(n, d, u, v)
                    image = imm_operator(lam, symmetrized) * scale
                    if u.shape == lam:
                        assert image == symmetrized, (lam, u.rows, v.rows)
                    else:
                        assert not image, (lam, u.rows, v.rows)
            for lefts in itertools.product((1, 2), repeat=h):
                for rights in itertools.product((1, 2), repeat=h):
                    element = capelli_immanant(lam, lefts, rights, n)
                    support = standard_capelli_expansion(element).shapes()
                    assert support <= {lam}, (lam, lefts, rights, support)


def test_a13_young_capelli_action():
    n = d = 2
    for k in range(1, 4):
        for s, t in standard_pairs(k, n, n):
            element = young_capelli(s, t, n)
            # vanishing on strictly lower degrees
            for h in range(0, k):
                for u, v in standard_pairs(h, n, d):
                    assert not act_ugl(element, right_symmetrized(n, d, u, v))
            # vanishing on mismatched shapes of equal degree
            for u, v in standard_pairs(k, n, d):
                if u.shape != s.shape:
                    assert not act_ugl(element, right_symmetrized(n, d, u, v))
        # matched shapes: the pairing matrix c_{T,U} defined by
        # [S|box T] . (U|box V) = c_{T,U} (S|box V) is invertible
        for lam in sorted({s.shape for s, _ in standard_pairs(k, n, n)}):
            tabs = []
            for s, _ in standard_pairs(k, n, n):
                if s.shape == lam and s not in tabs:
                    tabs.append(s)
            anchor = tabs[0]
            target = right_symmetrized(n, d, anchor, anchor)
            matrix = []
            for t in tabs:
                element = young_capelli(anchor, t, n)
                row = []
                for u in tabs:
                    image = act_ugl(element, right_symmetrized(n, d, u, anchor))
                    if not image:
                        row.append(Fraction(0))
                        continue
                    exp0, coeff0 = target.sorted_terms()[0]
                    ratio = Fraction(image.terms.get(exp0, Fraction(0))) / coeff0
                    assert image == target * ratio, (lam, t.rows, u.rows)
                    row.append(ratio)
                matrix.append(row)
            assert rank_exact(matrix) == len(tabs), lam
