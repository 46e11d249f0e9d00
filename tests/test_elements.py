import functools
import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from capelli import elements, polynomials
from capelli.enveloping import UglElement, element_sum
from capelli.polynomials import (
    MPoly,
    _content_pairs,
    act_column_capelli_diff,
    act_generator,
    act_ugl,
    bitableau,
    column_bitableau,
    column_monomial,
    column_sign,
    immanant,
    poly_sum,
    right_symmetrized,
    solve_exact,
    standard_pairs,
)
from capelli.elements import (
    capelli_bitableau,
    capelli_determinant,
    capelli_immanant,
    column_capelli,
    column_capelli_alt,
    column_capelli_literal,
    double_young_capelli,
    koszul_inverse,
    koszul_map,
    quantum_immanant,
    schur_element,
    schur_element_dyc,
    standard_capelli_expansion,
    young_capelli,
    young_capelli_basis,
)
from capelli.characters import character
from capelli.tableaux import (
    Tableau,
    column_permuted_family,
    compositions,
    conjugate,
    enumerate_row_strict,
    hook_number,
    partitions_of,
    permutation_sign,
)


def gen(n, i, j):
    return UglElement.generator(n, i, j)


@st.composite
def column_pair_strategy(draw, max_h=3, n=2):
    h = draw(st.integers(min_value=0, max_value=max_h))
    lefts = tuple(draw(st.integers(min_value=1, max_value=n)) for _ in range(h))
    rights = tuple(draw(st.integers(min_value=1, max_value=n)) for _ in range(h))
    return lefts, rights


def test_column_capelli_degenerate_cases():
    assert column_capelli((), (), 2) == UglElement.one(2)
    assert column_capelli((1,), (2,), 2) == gen(2, 1, 2)


def test_column_capelli_validation():
    with pytest.raises(ValueError):
        column_capelli((1, 2), (1,), 2)
    with pytest.raises(ValueError):
        column_capelli((1, 3), (1, 1), 2)


_COLUMN_CONSTRUCTIONS = {
    "column_capelli": lambda l, r: column_capelli(l, r, 2),
    "column_capelli_alt": lambda l, r: column_capelli_alt(l, r, 2),
    "column_capelli_literal": lambda l, r: column_capelli_literal(l, r, 2),
    "capelli_immanant": lambda l, r: capelli_immanant((2,), l, r, 2),
    "column_monomial": lambda l, r: column_monomial(2, 2, l, r),
    "column_bitableau": lambda l, r: column_bitableau(2, 2, l, r),
    "immanant": lambda l, r: immanant(2, 2, (2,), l, r),
    "act_column_capelli_diff": lambda l, r: act_column_capelli_diff(
        l, r, MPoly.variable(2, 2, 1, 1)
    ),
}
_COLUMN_FAULTS = {
    "lengths": ((1, 2), (1,), "column words (1, 2) and (1,) differ in length"),
    "left": ((1, 5), (1, 2), "left word (1, 5) out of range 1..2"),
    "right": ((1, 2), (5, 1), "right word (5, 1) out of range 1..2"),
}


@pytest.mark.parametrize("fault", _COLUMN_FAULTS.values(), ids=list(_COLUMN_FAULTS))
@pytest.mark.parametrize(
    "build", _COLUMN_CONSTRUCTIONS.values(), ids=list(_COLUMN_CONSTRUCTIONS)
)
def test_column_constructions_give_one_message_per_fault(build, fault):
    # the words of every column are checked by polynomials._check_column, so
    # one fault reads the same in both algebras and names the word at fault
    lefts, rights, message = fault
    with pytest.raises(ValueError) as err:
        build(lefts, rights)
    assert str(err.value) == message


_BAD_LETTERS = {
    "bool": (True, "True"),
    "zero": (0, "0"),
    "n_plus_1": (3, "3"),
    "float": (1.0, "1.0"),
    "str": ("1", "'1'"),
}


@pytest.mark.parametrize("letter, shown", _BAD_LETTERS.values(), ids=list(_BAD_LETTERS))
@pytest.mark.parametrize(
    "build",
    [
        lambda l, r: column_capelli(l, r, 2),
        lambda l, r: column_capelli_alt(l, r, 2),
        lambda l, r: column_capelli_literal(l, r, 2),
        lambda l, r: act_column_capelli_diff(l, r, MPoly.variable(2, 2, 1, 1)),
    ],
    ids=[
        "column_capelli",
        "column_capelli_alt",
        "column_capelli_literal",
        "act_column_capelli_diff",
    ],
)
def test_word_check_messages_name_the_whole_word(build, letter, shown):
    with pytest.raises(ValueError) as err:
        build((1, letter), (1, 2))
    assert str(err.value) == f"left word (1, {shown}) out of range 1..2"
    with pytest.raises(ValueError) as err:
        build((1, 2), (letter, 1))
    assert str(err.value) == f"right word ({shown}, 1) out of range 1..2"


def test_bitableau_word_check_messages():
    # a tableau holds positive ints only, so n + 1 is the one bad letter that
    # reaches the word check; test_tableau_names_the_bad_entry_and_its_row
    # covers the others, which Tableau refuses itself
    one_two = Tableau(((1, 2),))
    with pytest.raises(ValueError) as err:
        bitableau(2, 2, Tableau(((1, 3),)), one_two)
    assert str(err.value) == "left word (1, 3) out of range 1..2"
    with pytest.raises(ValueError) as err:
        bitableau(2, 2, one_two, Tableau(((3, 1),)))
    assert str(err.value) == "right word (3, 1) out of range 1..2"


def test_column_capelli_depth_two():
    n = 2
    expected = -(gen(n, 1, 2) * gen(n, 2, 1)) + gen(n, 1, 1)
    assert column_capelli((1, 2), (2, 1), n) == expected


def test_column_capelli_depth_three_worked():
    n = 3
    expected = -(gen(n, 1, 2) * gen(n, 2, 1) * gen(n, 3, 1)) + gen(n, 1, 1) * gen(
        n, 3, 1
    )
    assert column_capelli((1, 2, 3), (2, 1, 1), n) == expected


@settings(deadline=None)
@given(column_pair_strategy())
def test_derivation_orders_agree(pair):
    lefts, rights = pair
    top = column_capelli(lefts, rights, 2)
    assert column_capelli_alt(lefts, rights, 2) == top
    assert column_capelli_literal(lefts, rights, 2) == top


@settings(deadline=None)
@given(column_pair_strategy(), st.permutations(tuple(range(3))))
def test_row_permutation_invariance(pair, perm):
    lefts, rights = pair
    h = len(lefts)
    perm = [p for p in perm if p < h]
    # the literal route reads the permuted rows as given; column_capelli would
    # sort them back to the same memo entry
    permuted = column_capelli_literal(
        tuple(lefts[p] for p in perm), tuple(rights[p] for p in perm), 2
    )
    assert permuted == column_capelli(lefts, rights, 2)


def test_remark_pair_regressions():
    # both depth-3 columns with repeated indices, checked against the
    # differential-operator characterization below
    n = 2
    e11, e12, e21, e22 = (
        gen(n, 1, 1),
        gen(n, 1, 2),
        gen(n, 2, 1),
        gen(n, 2, 2),
    )
    got_a = column_capelli((1, 2, 1), (1, 2, 2), n)
    want_a = -(e11 * e12 * e22) + e11 * e12 + e12 * e22 - e12
    assert got_a == want_a
    got_b = column_capelli((1, 2, 1), (2, 1, 2), n)
    want_b = -(e12 * e21 * e12) + e12 * e22 + e11 * e12 - e12
    assert got_b == want_b


@settings(deadline=None)
@given(column_pair_strategy(max_h=3, n=2))
def test_columns_match_their_differential_operator(pair):
    lefts, rights = pair
    element = column_capelli(lefts, rights, 2)
    for exps in itertools.product(range(2), repeat=4):
        probe = MPoly(2, 2, {exps: Fraction(1)})
        assert act_ugl(element, probe) == act_column_capelli_diff(
            lefts, rights, probe
        )


def test_column_annihilates_lower_degree():
    element = column_capelli((1, 2), (1, 2), 2)
    assert not act_ugl(element, MPoly.variable(2, 2, 1, 1))
    assert not act_ugl(element, MPoly.one(2, 2))


def test_capelli_bitableau_is_koszul_image():
    for n in (2, 3):
        for h in range(1, 4):
            for s, t in standard_pairs(h, n, n):
                assert capelli_bitableau(s, t, n) == koszul_inverse(
                    bitableau(n, n, s, t)
                ), (s, t)


def test_capelli_bitableau_shape_mismatch_is_zero():
    assert not capelli_bitableau(Tableau(((1, 2),)), Tableau(((1,), (2,))), 2)


def test_young_capelli_is_koszul_image_of_symmetrized():
    for n in (2, 3):
        for h in range(1, 4):
            for s, t in standard_pairs(h, n, n):
                assert young_capelli(s, t, n) == koszul_inverse(
                    right_symmetrized(n, n, s, t)
                ), (s, t)


def test_double_young_capelli_collapse():
    # [box S|S] for the two standard shape-(2,1) diagonal pairs over n=2
    n = 2
    s1 = Tableau(((1, 2), (1,)))
    s2 = Tableau(((1, 2), (2,)))
    dyc1 = double_young_capelli(s1, s1, n)
    dyc2 = double_young_capelli(s2, s2, n)
    # their sum over the row-strict family gives 3 * schur_element((2,1), 2)
    total = (dyc1 + dyc2) / 3
    assert total == schur_element((2, 1), n)


def test_capelli_immanant_identity_shape():
    # single-column character is trivial: Cimm sums plain columns
    n = 2
    got = capelli_immanant((1, 1), (1, 2), (1, 2), n)
    expected = column_capelli((1, 2), (1, 2), n) + column_capelli((2, 1), (1, 2), n)
    assert got == expected


def test_capelli_immanant_validation():
    with pytest.raises(ValueError):
        capelli_immanant((2, 1), (1, 2), (1, 2), 2)


# fault -> (shape, lefts, rights, the message both immanants give) at gl(n)
_IMMANANT_FAULTS = {
    "shape": lambda n: ((2, 3), (1, 2), (1, 2), "must weakly decrease: (2, 3)"),
    "lengths": lambda n: ((2,), (1, 2), (1,), "differ in length"),
    "weight": lambda n: ((2, 1), (1, 2), (1, 2), "index words must have length 3"),
    "letter": lambda n: ((2,), (1, n + 1), (1, 2), f"(1, {n + 1}) out of range 1..{n}"),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fault", _IMMANANT_FAULTS.values(), ids=list(_IMMANANT_FAULTS))
def test_both_immanants_reject_bad_input_with_one_message(fault, n):
    shape, lefts, rights, message = fault(n)
    with pytest.raises(ValueError) as polynomial:
        immanant(n, n, shape, lefts, rights)
    with pytest.raises(ValueError) as element:
        capelli_immanant(shape, lefts, rights, n)
    assert str(polynomial.value) == str(element.value)
    assert message in str(element.value)


def test_quantum_immanant_small():
    n = 2
    assert quantum_immanant((1,), n) == gen(n, 1, 1) + gen(n, 2, 2)
    # vanishing: more than n rows in the conjugate support
    assert not quantum_immanant((1, 1, 1), n)
    assert not schur_element((1, 1, 1), n)


def test_schur_element_regression_shape_21():
    n = 2
    e11, e12, e21, e22 = (
        gen(n, 1, 1),
        gen(n, 1, 2),
        gen(n, 2, 1),
        gen(n, 2, 2),
    )
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
    assert schur_element((2, 1), n) == expected


def test_quantum_immanants_are_central():
    for n in (2, 3):
        for h in range(1, 4):
            for mu in partitions_of(h):
                if len(mu) > n:
                    continue
                assert quantum_immanant(mu, n).is_central(), (mu, n)


def test_presentations_agree_small():
    for n in (2, 3):
        for h in range(1, 3):
            for mu in partitions_of(h):
                assert schur_element(mu, n) == schur_element_dyc(mu, n), (mu, n)


def test_capelli_determinant_known():
    n = 2
    expected = gen(n, 1, 1) * gen(n, 2, 2) - gen(n, 1, 2) * gen(n, 2, 1) + gen(n, 1, 1)
    got = capelli_determinant(2)
    assert got == expected
    assert got.is_central()


def test_capelli_determinant_is_column_schur_element():
    for n in (2, 3):
        assert capelli_determinant(n) == schur_element((1,) * n, n)


def test_koszul_round_trip_on_basis():
    n = 2
    for h in range(0, 4):
        for s, t in young_capelli_basis(h, n):
            x = young_capelli(s, t, n)
            assert koszul_inverse(koszul_map(x)) == x


def test_koszul_inverse_requires_square_ambient():
    with pytest.raises(ValueError):
        koszul_inverse(MPoly.variable(2, 3, 1, 1))


def test_standard_capelli_expansion_of_schur():
    expansion = standard_capelli_expansion(schur_element((2, 1), 2))
    s1 = Tableau(((1, 2), (1,)))
    s2 = Tableau(((1, 2), (2,)))
    assert expansion.coefficient(s1, s1) == Fraction(-1, 2)
    assert expansion.coefficient(s2, s2) == Fraction(-1)
    assert len(expansion.terms) == 2
    assert expansion.shapes() == {(2, 1)}


@settings(deadline=None)
@given(column_pair_strategy(max_h=3, n=2))
def test_standard_capelli_expansion_reconstructs(pair):
    lefts, rights = pair
    x = column_capelli(lefts, rights, 2)
    expansion = standard_capelli_expansion(x)
    rebuilt = element_sum(
        2, (young_capelli(s, t, 2) * c for s, t, c in expansion.terms)
    )
    assert rebuilt == x


def test_expansion_of_generators_is_degree_one():
    n = 2
    for i in range(1, 3):
        for j in range(1, 3):
            expansion = standard_capelli_expansion(gen(n, i, j))
            assert all(s.weight == 1 for s, _, _ in expansion.terms)


# -- the blocked expansion against one dense system per degree ----------------


def dense_expansion(x):
    """Expansion coefficients from one system over the whole weight-k basis
    per degree, with no blocking and no memo."""
    n = x.n
    coeffs = {}
    residual = x
    degree = residual.filtration_degree()
    while degree is not None:
        pairs = young_capelli_basis(degree, n)
        elems = [young_capelli(s, t, n) for s, t in pairs]
        monomials = sorted(
            {mono for elem in elems for mono in elem.terms if len(mono) == degree}
            | {mono for mono in residual.terms if len(mono) == degree}
        )
        matrix = [[elem.terms.get(mono, 0) for elem in elems] for mono in monomials]
        rhs = [residual.terms.get(mono, 0) for mono in monomials]
        solution = solve_exact(matrix, rhs)
        assert solution is not None
        for pair, elem, coeff in zip(pairs, elems, solution):
            if coeff:
                coeffs[pair] = coeff
                residual = residual - elem * coeff
        new_degree = residual.filtration_degree()
        assert new_degree is None or new_degree < degree
        degree = new_degree
    return coeffs


MIXED_WEIGHTS = [
    lambda: column_capelli((1, 2), (2, 3), 3)
    + gen(3, 3, 1) * 2
    + gen(3, 1, 1) * gen(3, 2, 2)
    - gen(3, 1, 2),
    lambda: capelli_immanant((2, 1), (1, 2, 3), (3, 1, 2), 3)
    + column_capelli((1, 1), (2, 3), 3) * Fraction(-1, 3)
    + UglElement.scalar(3, 5),
    lambda: young_capelli(Tableau(((1, 3), (2,))), Tableau(((2, 3), (3,))), 3)
    - gen(3, 2, 1) * gen(3, 1, 3),
]


@pytest.mark.parametrize("build", MIXED_WEIGHTS, ids=["column", "immanant", "young"])
def test_blocked_expansion_matches_dense_solve(build, monkeypatch):
    x = build()
    assert len({len(mono) for mono in x.terms}) > 1
    monkeypatch.setattr(polynomials, "_block_memo", {})
    cold = standard_capelli_expansion(x)
    assert polynomials._block_memo
    warm = standard_capelli_expansion(x)
    assert cold == warm
    assert {(s, t): c for s, t, c in cold.terms} == dense_expansion(x)
    rebuilt = element_sum(3, (young_capelli(s, t, 3) * c for s, t, c in cold.terms))
    assert rebuilt == x


@pytest.mark.parametrize(
    "h, n, index",
    [(2, 2, k) for k in range(len(young_capelli_basis(2, 2)))] + [(3, 3, 70)],
)
def test_expansion_raises_when_the_basis_misses_a_pair(h, n, index, monkeypatch):
    s, t = young_capelli_basis(h, n)[index]
    x = young_capelli(s, t, n)
    monkeypatch.setattr(polynomials, "_block_memo", {})
    monkeypatch.setattr(
        polynomials,
        "_content_pairs",
        lambda *args: [pair for pair in _content_pairs(*args) if pair != (s, t)],
    )
    with pytest.raises(ArithmeticError, match="inconsistent system"):
        standard_capelli_expansion(x)


def test_top_part_of_young_capelli_is_right_symmetrized():
    # the identity that lets the expansion solve against gc_coordinates' blocks
    checked = 0
    for n in range(1, 4):
        for k in range(4):
            for s, t in standard_pairs(k, n, n):
                top = MPoly.zero(n, n)
                for mono, coeff in young_capelli(s, t, n).terms.items():
                    if len(mono) == k:
                        top = top + MPoly.monomial(n, n, mono) * coeff
                assert top == right_symmetrized(n, n, s, t), (s, t)
                checked += 1
    assert checked == 259


# -- the assembled families against literal sums ------------------------------
#
# Each family is rebuilt here as the plain sum of its defining formula, one
# term per permutation, over column_capelli_literal (no row sorting, no memo,
# no merging of equal columns).  Columns are read row by row, not column by
# column as in the package; the element does not depend on the row order.

literal = functools.cache(column_capelli_literal)


def literal_bitableau(s, t, n):
    total = UglElement.zero(n)
    if s.shape != t.shape:
        return total
    for perms in itertools.product(
        *(itertools.permutations(range(len(row))) for row in s.rows)
    ):
        sign = 1
        for perm in perms:
            sign *= permutation_sign(perm)
        lefts = tuple(row[k] for row, perm in zip(s.rows, perms) for k in perm)
        total = total + literal(lefts, t.word(), n) * sign
    return total


def literal_young(s, t, n):
    total = UglElement.zero(n)
    for tbar in column_permuted_family(t):
        total = total + literal_bitableau(s, tbar, n)
    return total


def literal_double_young(s, t, n):
    total = UglElement.zero(n)
    if s.shape != t.shape:
        return total
    for perms in itertools.product(
        *(itertools.permutations(range(len(row))) for row in t.rows)
    ):
        sign = 1
        for perm in perms:
            sign *= permutation_sign(perm)
        variant = Tableau(
            tuple(tuple(row[k] for k in perm) for row, perm in zip(t.rows, perms))
        )
        total = total + literal_young(s, variant, n) * sign
    return total * column_sign(s.weight)


def literal_immanant(shape, lefts, rights, n):
    total = UglElement.zero(n)
    for sigma in itertools.permutations(range(len(lefts))):
        chi = character(shape, sigma)
        total = total + literal(tuple(lefts[k] for k in sigma), rights, n) * chi
    return total


def literal_quantum(shape, n):
    h = sum(shape)
    total = UglElement.zero(n)
    for comp in compositions(h, n):
        word = tuple(i for i, c in enumerate(comp, start=1) for _ in range(c))
        weight = Fraction(hook_number(shape))
        for c in comp:
            weight /= factorial(c)
        total = total + literal_immanant(conjugate(shape), word, word, n) * weight
    return total * column_sign(h)


SMALL = [(h, n) for h in range(1, 4) for n in range(1, 4)]


@pytest.mark.parametrize("h, n", SMALL)
def test_capelli_immanant_is_its_literal_sum(h, n):
    words = list(itertools.product(range(1, n + 1), repeat=h))
    for shape in partitions_of(h):
        for lefts in words:
            for rights in words:
                assert capelli_immanant(shape, lefts, rights, n) == literal_immanant(
                    shape, lefts, rights, n
                ), (shape, lefts, rights)


@pytest.mark.parametrize("h, n", SMALL)
def test_capelli_immanant_is_koszul_image_of_immanant(h, n):
    # K^-1 carries the polynomial sign convention to the algebra's
    words = list(itertools.product(range(1, n + 1), repeat=h))
    for shape in partitions_of(h):
        for lefts in words:
            for rights in words:
                assert koszul_inverse(
                    immanant(n, n, shape, lefts, rights)
                ) == capelli_immanant(shape, lefts, rights, n), (shape, lefts, rights)


# past the letters of a composition: at h = 4, n = 5 every composition has a
# zero part and its columns are relabeled from fewer letters
@pytest.mark.parametrize("h, n", SMALL + [(3, 4), (3, 5), (4, 4), (4, 5)])
def test_quantum_immanant_is_its_literal_sum(h, n):
    for shape in partitions_of(h):
        assert quantum_immanant(shape, n) == literal_quantum(shape, n), shape


@pytest.mark.parametrize("h, n", SMALL)
def test_bitableau_families_are_their_literal_sums(h, n):
    for shape in partitions_of(h):
        fillings = enumerate_row_strict(shape, n)
        for s in fillings:
            for t in fillings:
                assert capelli_bitableau(s, t, n) == literal_bitableau(s, t, n)
                assert young_capelli(s, t, n) == literal_young(s, t, n), (s, t)
                assert double_young_capelli(s, t, n) == literal_double_young(
                    s, t, n
                ), (s, t)


def test_bitableau_families_vanish_on_shape_mismatch():
    s, t = Tableau(((1, 2),)), Tableau(((1,), (2,)))
    assert not young_capelli(s, t, 2)
    assert not double_young_capelli(s, t, 2)


def test_column_and_determinant_coefficients_are_ints():
    n = 3
    for h in range(4):
        for lefts in itertools.product(range(1, n + 1), repeat=h):
            for rights in itertools.product(range(1, n + 1), repeat=h):
                coeffs = column_capelli(lefts, rights, n).terms.values()
                assert all(type(c) is int for c in coeffs), (lefts, rights)
    assert all(type(c) is int for c in capelli_determinant(4).terms.values())


@pytest.mark.parametrize(
    "build",
    [
        lambda: Tableau(((1.5, 2.9),)),
        lambda: UglElement(2, {((1.5, True),): 1}),
        lambda: quantum_immanant((1.9,), 2),
        lambda: column_capelli((1.7,), (2,), 2),
        lambda: MPoly(2, 2, {(1.5, 0, 0, 0): 1}),
        lambda: UglElement(True),
        lambda: MPoly(2.0, 2),
        lambda: MPoly(2, True),
        lambda: quantum_immanant((2, 1), 2.0),
        lambda: quantum_immanant((2, 1), True),
        lambda: capelli_determinant(2.0),
        lambda: capelli_determinant(True),
    ],
    ids=[
        "tableau",
        "ugl_element",
        "quantum_immanant",
        "column_capelli",
        "mpoly",
        "ugl_element_size",
        "mpoly_n",
        "mpoly_d",
        "quantum_immanant_size_float",
        "quantum_immanant_size_bool",
        "determinant_size_float",
        "determinant_size_bool",
    ],
)
def test_constructors_reject_non_integers(build):
    # a non-int index, part, exponent or ambient size (a float or a bool) is
    # rejected, not truncated, before the size reaches range()
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "family", [capelli_bitableau, young_capelli, double_young_capelli]
)
@pytest.mark.parametrize("bad_left", [True, False], ids=["left", "right"])
def test_tableau_families_range_check_words_whose_columns_cancel(family, bad_left):
    # [3 3|1 2] and [1 2|3 3] cancel in every family, so no column reaches
    # column_capelli's range check; at n = 2 both were returned as 0
    bad, good = Tableau(((3, 3),)), Tableau(((1, 2),))
    with pytest.raises(ValueError, match="out of range 1..2"):
        family(bad, good, 2) if bad_left else family(good, bad, 2)


def test_integral_fraction_is_stored_as_int():
    mono = ((1, 1),)
    from_fraction = UglElement(2, {mono: Fraction(4, 2)})
    from_int = UglElement(2, {mono: 2})
    assert type(from_fraction.terms[mono]) is int
    assert from_fraction == from_int
    assert hash(from_fraction) == hash(from_int)
    assert from_fraction.text() == from_int.text() == "2 · e[1,1]"
    assert from_fraction.to_json() == from_int.to_json()


def _x(i, phi):
    return MPoly.variable(2, 2, i, phi)


_HALF_E11 = UglElement(2, {((1, 1),): Fraction(1, 2)})
_HALF_X11 = _x(1, 1) / 2

# every producer that hands its term map to _wrap unsettled, fed Fractions
# whose results include integral coefficients
_PRODUCERS = {
    "ugl_add": lambda: _HALF_E11 + _HALF_E11,
    "ugl_mul": lambda: _HALF_E11 * (gen(2, 2, 2) * 2),
    "ugl_scale": lambda: _HALF_E11 * 2,
    "ugl_div": lambda: _HALF_E11 * 3 / Fraction(3, 2),
    "element_sum": lambda: element_sum(2, (_HALF_E11, _HALF_E11)),
    "poly_add": lambda: _HALF_X11 + _HALF_X11,
    "poly_mul": lambda: _HALF_X11 * (_x(2, 2) * 2),
    "poly_scale": lambda: _HALF_X11 * 2,
    "poly_div": lambda: _HALF_X11 * 3 / Fraction(3, 2),
    "poly_sum": lambda: poly_sum(2, 2, (_HALF_X11, _HALF_X11)),
    "diff": lambda: (_HALF_X11 * _x(1, 1)).diff(1, 1),
    "act_generator": lambda: act_generator(1, 2, _x(2, 1) * _x(2, 1) / 2),
    "act_ugl": lambda: act_ugl(gen(2, 1, 2) * 2, _x(2, 1) * _x(2, 1) / 4),
    # e[1,1] gets -1/2 from [1 2|2 1] and 3/2 from [1|1]
    "koszul_inverse": lambda: koszul_inverse(
        _x(1, 2) * _x(2, 1) / 2 + _HALF_X11 * 3
    ),
    "schur_element": lambda: schur_element((2, 1), 2),
}


@pytest.mark.parametrize("build", _PRODUCERS.values(), ids=list(_PRODUCERS))
def test_every_producer_stores_integral_coefficients_as_ints(build):
    integral = [c for c in build().terms.values() if c.denominator == 1]
    assert integral and all(type(c) is int for c in integral)


# -- the Capelli determinant against routes that share no code with its
# row-subset expansion ---------------------------------------------------------


def permutation_determinant(n):
    """sum_sigma (-1)^|sigma| a_{sigma(1),1} ... a_{sigma(n),n}, one product
    per permutation, a_ij = e_ij + delta_ij (n - i)."""
    def entry(i, j):
        return gen(n, i, j) + UglElement.scalar(n, n - i if i == j else 0)

    terms = []
    for sigma in itertools.permutations(range(n)):
        product = UglElement.one(n)
        for col, row in enumerate(sigma):
            product = product * entry(row + 1, col + 1)
        terms.append(product * permutation_sign(sigma))
    return element_sum(n, terms)


@pytest.mark.parametrize("n", range(1, 6))
def test_determinant_is_the_permutation_sum(n):
    assert capelli_determinant(n) == permutation_determinant(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_determinant_is_the_column_immanant_and_acts_as_det(n):
    det = capelli_determinant(n)
    word = tuple(range(1, n + 1))
    assert det == capelli_immanant((n,), word[::-1], word, n)
    # the Capelli identity: det acts as det(x) det(d/dx), so x_11...x_nn -> det(x)
    det_x = MPoly.zero(n, n)
    for sigma in itertools.permutations(range(n)):
        rows = (row + 1 for row in sigma)
        det_x = det_x + MPoly.monomial(n, n, zip(rows, word)) * permutation_sign(sigma)
    assert act_ugl(det, MPoly.monomial(n, n, zip(word, word))) == det_x


# -- quantum immanants: relabeled positive compositions against one column map
# per weak composition ---------------------------------------------------------


def weak_composition_columns(shape, n):
    """The merged column map of quantum_immanant, one immanant column map per
    weak composition of |shape| into n parts."""
    h = sum(shape)
    support = polynomials._character_support(conjugate(shape))
    weights = {}
    for comp in compositions(h, n):
        word = tuple(i for i, c in enumerate(comp, start=1) for _ in range(c))
        weight = Fraction(hook_number(shape) * column_sign(h))
        for c in comp:
            weight /= factorial(c)
        for key, chi in polynomials._add_columns({}, support, word, word).items():
            weights[key] = weights.get(key, 0) + chi * weight
    return weights


def relabel(mono, labels):
    """The monomial with each e_ij read as e_{labels[i-1], labels[j-1]}."""
    return tuple((labels[i - 1], labels[j - 1]) for i, j in mono)


@pytest.mark.parametrize("m", range(1, 4))
def test_columns_commute_with_increasing_relabelings(m):
    # an increasing injection L: 1..m -> 1..n keeps the bracket and the order
    # of pairs, so [L o l | L o r] is the term-by-term relabeling of [l | r];
    # the right side is the unmemoized oracle at ambient m
    for h in range(4):
        words = list(itertools.product(range(1, m + 1), repeat=h))
        for lefts in words:
            for rights in words:
                oracle = column_capelli_literal(lefts, rights, m).terms
                for n in range(m, 6):
                    for labels in itertools.combinations(range(1, n + 1), m):
                        expected = {
                            relabel(mono, labels): c for mono, c in oracle.items()
                        }
                        got = column_capelli(
                            tuple(labels[i - 1] for i in lefts),
                            tuple(labels[j - 1] for j in rights),
                            n,
                        )
                        assert got.terms == expected, (lefts, rights, labels)


@pytest.mark.parametrize("n", range(1, 6))
def test_quantum_immanant_relabels_positive_compositions(n, monkeypatch):
    # one partial map per number m of parts, over the letters 1..m; its
    # increasing relabelings into 1..n are the weak compositions' columns
    seen = []

    def capture(n, weights):
        seen.append(weights)
        return sum_columns(n, weights)

    sum_columns = elements._sum_columns
    monkeypatch.setattr(elements, "_sum_columns", capture)
    for h in range(6):
        for shape in partitions_of(h):
            expected = weak_composition_columns(shape, n)
            got = quantum_immanant(shape, n)
            relabeled, lengths = {}, []
            for weights in seen:
                m = max((i for key in weights for pair in key for i in pair), default=0)
                lengths.append(m)
                assert all(
                    {i for pair in key for i in pair} == set(range(1, m + 1))
                    for key in weights
                ), shape
                for labels in itertools.combinations(range(1, n + 1), m):
                    for key, weight in weights.items():
                        image = relabel(key, labels)
                        assert image not in relabeled, (shape, image)
                        relabeled[image] = weight
            seen.clear()
            assert len(set(lengths)) == len(lengths), shape
            assert relabeled == expected, shape
            assert got == sum_columns(n, expected), shape
