import itertools
import json
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from capelli import polynomials
from capelli.characters import character
from capelli.enveloping import UglElement, ad
from capelli.polynomials import (
    MPoly,
    StdExpansion,
    _content_pairs,
    act_column_capelli_diff,
    act_generator,
    act_higher_capelli,
    act_ugl,
    biproduct,
    bitableau,
    column_bitableau,
    column_sign,
    expand_into_columns,
    gc_coordinates,
    imm_operator,
    immanant,
    poly_sum,
    rank_exact,
    right_symmetrized,
    right_symmetrized_via_symmetrizer,
    solve_exact,
    standard_pairs,
    straight_key,
    straighten,
)
from capelli.tableaux import (
    Tableau,
    column_permuted_family,
    compositions,
    conjugate,
    enumerate_row_strict,
    hook_number,
    partitions_of,
)


def var(i, phi, n=2, d=2):
    return MPoly.variable(n, d, i, phi)


@st.composite
def poly_strategy(draw, n=2, d=2, max_terms=3, max_deg=3):
    total = MPoly.zero(n, d)
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        factor = MPoly.one(n, d)
        for _ in range(draw(st.integers(min_value=0, max_value=max_deg))):
            i = draw(st.integers(min_value=1, max_value=n))
            phi = draw(st.integers(min_value=1, max_value=d))
            factor = factor * var(i, phi, n, d)
        num = draw(st.integers(min_value=-4, max_value=4))
        den = draw(st.integers(min_value=1, max_value=3))
        total = total + factor * Fraction(num, den)
    return total


@st.composite
def filled_pair_strategy(draw, max_h=4, n=3, d=3):
    h = draw(st.integers(min_value=0, max_value=max_h))
    shape = draw(st.sampled_from(partitions_of(h)))
    left = tuple(
        tuple(draw(st.integers(min_value=1, max_value=n)) for _ in range(k))
        for k in shape
    )
    right = tuple(
        tuple(draw(st.integers(min_value=1, max_value=d)) for _ in range(k))
        for k in shape
    )
    return Tableau(left), Tableau(right)


# -- ring structure ----------------------------------------------------------


@settings(deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def _types(p):
    return {exp: type(c) for exp, c in p.terms.items()}


@settings(deadline=None)
@given(poly_strategy(), poly_strategy())
def test_integral_coefficients_are_stored_as_ints(p, q):
    halves = poly_sum(p.n, p.d, (p / 2, p / 2, q))
    half_square = var(1, 1) * var(1, 1) / 2
    assert half_square.diff(1, 1) == var(1, 1)
    polarized = act_generator(1, 2, var(2, 1) * var(2, 1) / 2)
    assert polarized == var(1, 1) * var(2, 1)
    for z in (
        p + q,
        p - q,
        p * q,
        p * 3,
        p / 2,
        p / 2 * 2,
        q * Fraction(3, 2),
        halves,
        half_square.diff(1, 1),
        (p * half_square).diff(1, 1),
        polarized,
        act_generator(1, 2, p / 2),
    ):
        for coeff in z.terms.values():
            assert type(coeff) is int or coeff.denominator != 1, z
    assert halves == p + q
    assert poly_sum(p.n, p.d, (p, -p)) == MPoly.zero(p.n, p.d)
    mixed = MPoly.one(2, 2) * 2 + var(1, 1) / 2
    assert set(_types(mixed).values()) == {int, Fraction}
    for z in (mixed, mixed + p, halves):
        for unit in (1, -1, Fraction(1), Fraction(-1)):
            scaled = z * unit
            assert scaled == (z if unit == 1 else -z)
            assert _types(scaled) == _types(z)
    # the integral families and expansions store plain ints
    s, t = Tableau(((1, 2), (3,))), Tableau(((2, 3), (1,)))
    expansion = straighten(bitableau(3, 3, s, t))
    families = (
        MPoly.one(2, 2),
        var(2, 1),
        bitableau(3, 3, s, t),
        right_symmetrized(3, 3, s, t),
        immanant(3, 3, (2, 1), (1, 2, 3), (3, 1, 2)),
        expansion.to_polynomial(),
    )
    for family in families:
        assert family and set(_types(family).values()) == {int}
    assert expansion.terms and all(type(c) is int for _, _, c in expansion.terms)
    stored = StdExpansion(3, 3, ((s, t, Fraction(2)), (t, s, Fraction(1, 2)))).terms
    assert {c: type(c) for _, _, c in stored} == {2: int, Fraction(1, 2): Fraction}


def test_variable_layout():
    p = var(2, 1) * var(1, 2)
    assert p.text() == "x[1,2]x[2,1]"
    assert p.total_degree() == 2
    assert MPoly.zero(2, 2).total_degree() is None


def test_monomial_constructor_and_powers():
    p = MPoly.monomial(2, 2, [(1, 1), (1, 1), (2, 2)])
    assert p.text() == "x[1,1]^2x[2,2]"


def test_variable_validation():
    with pytest.raises(ValueError):
        MPoly.variable(2, 2, 3, 1)
    with pytest.raises(ValueError):
        MPoly.variable(2, 2, 1, 0)


@settings(deadline=None)
@given(poly_strategy(), poly_strategy())
def test_diff_is_a_derivation(p, q):
    for i in (1, 2):
        for phi in (1, 2):
            lhs = (p * q).diff(i, phi)
            rhs = p.diff(i, phi) * q + p * q.diff(i, phi)
            assert lhs == rhs


def test_diff_rejects_out_of_range_variables():
    p = MPoly.variable(3, 2, 2, 1)
    with pytest.raises(ValueError):
        p.diff(1, 3)  # slot of (2|1) when read unchecked
    with pytest.raises(ValueError):
        p.diff(4, 1)
    with pytest.raises(ValueError):
        p.diff(0, 1)


def test_biproduct_and_bitableau_reject_out_of_range_entries():
    with pytest.raises(ValueError):
        biproduct(3, 2, (1,), (3,))
    with pytest.raises(ValueError):
        biproduct(3, 3, (4,), (1,))
    with pytest.raises(ValueError):
        biproduct(3, 3, (1, 0), (1, 2))
    with pytest.raises(ValueError):
        bitableau(3, 2, Tableau(((1,),)), Tableau(((3,),)))
    with pytest.raises(ValueError):
        bitableau(3, 3, Tableau(((4,),)), Tableau(((1,),)))
    # the range check comes before the shape comparison
    with pytest.raises(ValueError):
        bitableau(2, 2, Tableau(((1, 3),)), Tableau(((1,), (2,))))


_NON_INT_INDEX_CALLS = {
    "monomial": lambda x: MPoly.monomial(2, 2, [(x, 2)]),
    "variable": lambda x: MPoly.variable(2, 2, 1, x),
    "diff": lambda x: MPoly.variable(2, 2, 1, 1).diff(x, 1),
    "act_generator": lambda x: act_generator(x, 2, MPoly.variable(2, 2, 2, 1)),
    "biproduct": lambda x: biproduct(2, 2, (x,), (1,)),
    "column_bitableau": lambda x: column_bitableau(2, 2, (1,), (x,)),
    "immanant": lambda x: immanant(2, 2, (1,), (x,), (1,)),
    "column_operator": lambda x: act_column_capelli_diff(
        (x,), (1,), MPoly.variable(2, 2, 1, 1)
    ),
}


@pytest.mark.parametrize("value", [True, 1.5, 2.0])
@pytest.mark.parametrize(
    "call", _NON_INT_INDEX_CALLS.values(), ids=list(_NON_INT_INDEX_CALLS)
)
def test_polynomial_indices_must_be_ints(call, value):
    # True was once read as index 1, and 1.5 or 2.0 raised a bare TypeError
    with pytest.raises(ValueError, match="out of range"):
        call(value)


_INDEX_CHECK_SITES = {
    "UglElement": (
        lambda: UglElement(2, {((1, 2), (1, 3)): 1}),
        "generator e[1,3] out of range for n=2",
    ),
    "ad": (
        lambda: ad(True, 1, UglElement.generator(2, 1, 2)),
        "generator e[True,1] out of range for n=2",
    ),
    "act_generator": (
        lambda: act_generator(3, 1, MPoly.variable(2, 3, 1, 1)),
        "generator e[3,1] out of range for n=2",
    ),
    "monomial": (
        lambda: MPoly.monomial(2, 3, [(1, 1), (2, 4)]),
        "variable (2|4) out of range for (2,3)",
    ),
    "diff": (
        lambda: MPoly.variable(2, 3, 1, 1).diff(3, 1),
        "variable (3|1) out of range for (2,3)",
    ),
    "from_json": (
        lambda: MPoly.from_json([{"coeff": "1", "monomial": [[5, 1, 1]]}], 2, 3),
        "term 0: variable (5|1) out of range for (2,3)",
    ),
}


@pytest.mark.parametrize(
    "call, message", _INDEX_CHECK_SITES.values(), ids=list(_INDEX_CHECK_SITES)
)
def test_index_checks_give_one_message_per_kind(call, message):
    # generators read e[i,j] against n, variables (i|phi) against (n,d)
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_degree_part_and_homogeneity():
    p = var(1, 1) * var(2, 2) + var(1, 2) * 3 + MPoly.one(2, 2)
    assert not p.is_homogeneous()
    assert p.degree_part(2) == var(1, 1) * var(2, 2)
    assert p == poly_sum(2, 2, (p.degree_part(k) for k in range(3)))
    assert (var(1, 1) * var(2, 1)).is_homogeneous()


def test_row_and_col_degrees():
    p = var(1, 1) * var(1, 2) * var(2, 2)
    (exp,) = p.terms
    assert p.row_degrees(exp) == (2, 1)
    assert p.col_degrees(exp) == (1, 2)
    assert p.variables_of(exp) == [(1, 1), (1, 2), (2, 2)]


@settings(deadline=None)
@given(poly_strategy())
def test_poly_json_round_trip(p):
    data = json.loads(json.dumps(p.to_json()))
    assert MPoly.from_json(data, p.n, p.d) == p


_BAD_TERM_LISTS = [
    {},  # an object, not a list: was read as zero
    [{"coeff": "1/0"}],  # was a bare ZeroDivisionError
    [{"coeff": float("inf")}],  # a JSON Infinity
    [{"coeff": float("nan")}],  # a JSON NaN
    [{"coeff": 0.1}],  # was read as 3602879701896397/36028797018963968
    [{"coeff": True}],  # was read as 1
    [{"coeff": [1]}],  # was a bare TypeError
]


@pytest.mark.parametrize("data", _BAD_TERM_LISTS)
def test_poly_from_json_rejects_bad_input(data):
    if isinstance(data, list):
        data = [dict(entry, monomial=[[1, 1, 1]]) for entry in data]
    with pytest.raises(ValueError):
        MPoly.from_json(data, 2, 2)


@pytest.mark.parametrize("data", _BAD_TERM_LISTS)
def test_std_expansion_from_json_rejects_bad_input(data):
    if isinstance(data, list):
        data = [dict(entry, left=[[1]], right=[[1]]) for entry in data]
    with pytest.raises(ValueError):
        StdExpansion.from_json(data, 2, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: StdExpansion.from_json(
            [{"left": [[5]], "right": [[1]], "coeff": "1"}], 2, 2
        ),
        lambda: StdExpansion.from_json(
            [{"left": [[1]], "right": [[3]], "coeff": "0"}], 2, 2
        ),
        lambda: StdExpansion.from_json(
            [{"left": [[1]], "right": [[1, 2]], "coeff": "1"}], 2, 2
        ),
        lambda: StdExpansion(2.0, 2, ()),
        lambda: StdExpansion(2, True, ()),
    ],
    ids=[
        "json_letter",
        "json_place_of_zero_term",
        "json_two_shapes",
        "n_float",
        "d_bool",
    ],
)
def test_std_expansion_checks_sizes_and_words(build):
    # (5|1) at n = 2 was once accepted and printed; only to_polynomial() failed,
    # and (1|1 2) was accepted and printed although its polynomial is 0
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "read, data",
    [
        (MPoly.from_json, [5]),
        (MPoly.from_json, [{"coeff": "1"}]),
        (MPoly.from_json, [{"coeff": "1", "monomial": 5}]),
        (MPoly.from_json, [{"coeff": "1", "monomial": [[1, 1]]}]),
        (StdExpansion.from_json, [5]),
        (StdExpansion.from_json, [{"coeff": "1", "left": [[1]]}]),
        (StdExpansion.from_json, [{"coeff": "1", "left": 5, "right": [[1]]}]),
        (StdExpansion.from_json, [{"coeff": "1", "left": [[1]], "right": [1]}]),
        (StdExpansion.from_json, [{"coeff": "1", "left": [[5]], "right": [[1]]}]),
        (StdExpansion.from_json, [{"coeff": "1", "left": [[1]], "right": [[1, 2]]}]),
    ],
    ids=[
        "poly_not_object",
        "poly_missing_monomial",
        "poly_monomial_not_list",
        "poly_variable_too_short",
        "std_not_object",
        "std_missing_right",
        "std_left_not_list",
        "std_row_not_list",
        "std_letter_out_of_range",
        "std_two_shapes",
    ],
)
def test_from_json_names_the_malformed_term(read, data):
    # each once raised a TypeError, a KeyError or a ValueError naming no term
    with pytest.raises(ValueError, match="^term 0: "):
        read(data, 2, 2)


def test_std_expansion_merges_repeated_pairs():
    # each pair was once kept as given: (1|1) + (1|1), and a +1/-1 pair that
    # printed as (1|1) − (1|1) and compared unequal to 0
    one = Tableau(((1,),))
    doubled = StdExpansion(2, 2, ((one, one, 1), (one, one, 1)))
    assert doubled.text() == "2 · (1|1)"
    assert doubled.coefficient(one, one) == 2
    cancelled = StdExpansion(2, 2, ((one, one, 1), (one, one, -1)))
    assert cancelled == StdExpansion(2, 2, ())
    assert cancelled.text() == "0"
    halves = StdExpansion(2, 2, ((one, one, Fraction(1, 2)),) * 2)
    assert halves.terms == ((one, one, 1),)
    assert type(halves.terms[0][2]) is int
    pair = {"coeff": "1", "left": [[1]], "right": [[1]]}
    assert StdExpansion.from_json([pair, pair], 2, 2) == doubled


def test_std_expansion_reads_an_iterator_of_terms_once():
    # the checks once consumed a generator, leaving the merge nothing: 0
    one, two = Tableau(((1,),)), Tableau(((2,),))
    triples = [(one, one, 1), (one, two, Fraction(-1, 2)), (one, one, 1)]
    from_list = StdExpansion(2, 2, triples)
    from_iter = StdExpansion(2, 2, (t for t in triples))
    assert from_iter == from_list
    assert from_iter.text() == from_list.text() == "−1/2 · (1|2) + 2 · (1|1)"


@pytest.mark.parametrize("i, phi", [(0, 1), (3, 1), (1, 0), (1, 3)])
def test_poly_from_json_rejects_out_of_range_variables(i, phi):
    # (0|1) once indexed the last variable, (1|3) the next row's first one
    cancelling = [{"coeff": c, "monomial": [[i, phi, 1]]} for c in ("1", "-1")]
    with pytest.raises(ValueError):
        MPoly.from_json(cancelling, 2, 2)


@pytest.mark.parametrize("value", [1.5, True, "1"])
@pytest.mark.parametrize("slot", range(3))
def test_poly_from_json_accepts_json_integers_only(value, slot):
    # each was once read as 1, as a letter, a place or an exponent
    monomial = [1, 1, 1]
    monomial[slot] = value
    with pytest.raises(ValueError):
        MPoly.from_json([{"coeff": "1", "monomial": [monomial]}], 2, 2)


def test_poly_text_conventions():
    p = -var(1, 1) * var(1, 1) + var(2, 2) * Fraction(1, 2)
    assert p.text() == "−x[1,1]^2 + 1/2 · x[2,2]"
    assert MPoly.zero(2, 2).text() == "0"


# -- bideterminants ----------------------------------------------------------


def test_biproduct_single_cell():
    assert biproduct(2, 2, (1,), (2,)) == var(1, 2)


def test_biproduct_two_by_two():
    # sign (-1)^C(2,2) = -1 times the Leibniz expansion
    expected = -(var(1, 1) * var(2, 2) - var(1, 2) * var(2, 1))
    assert biproduct(2, 2, (1, 2), (1, 2)) == expected


def test_biproduct_alternating():
    assert not biproduct(2, 2, (1, 1), (1, 2))
    assert biproduct(3, 3, (1, 2), (1, 2)) == -biproduct(3, 3, (2, 1), (1, 2))
    assert biproduct(3, 3, (1, 2), (1, 2)) == -biproduct(3, 3, (1, 2), (2, 1))


def test_biproduct_length_mismatch_is_zero():
    assert not biproduct(2, 2, (1, 2), (1,))


def crossing_sign(shape):
    """Sign of a bitableau relative to the product of its row biproducts:
    (-1)^(sum over p > q of shape_p * shape_q)."""
    exponent = sum(
        shape[p] * shape[q] for p in range(1, len(shape)) for q in range(p)
    )
    return -1 if exponent % 2 else 1


def row_biproduct_bitableau(n, d, left, right):
    """Reference (S|T) that reads no column table: the crossing sign times the
    product of the row biproducts; zero when the shapes differ."""
    if left.shape != right.shape:
        return MPoly.zero(n, d)
    result = MPoly.one(n, d) * crossing_sign(left.shape)
    for lrow, rrow in zip(left.rows, right.rows):
        result = result * biproduct(n, d, lrow, rrow)
    return result


def test_column_bitableau_and_signs():
    assert column_sign(0) == column_sign(1) == 1
    assert column_sign(2) == -1
    assert column_sign(3) == -1
    assert column_sign(4) == 1
    assert column_bitableau(2, 2, (1, 2), (2, 1)) == -(var(1, 2) * var(2, 1))
    assert crossing_sign((2, 1)) == 1
    assert crossing_sign((1, 1, 1)) == -1
    assert crossing_sign((3,)) == 1
    assert crossing_sign((1, 1)) == -1


def test_bitableau_shape_mismatch_is_zero():
    assert not bitableau(2, 2, Tableau(((1, 2),)), Tableau(((1,), (2,))))


def test_bitableau_single_column_is_column_bitableau():
    got = bitableau(2, 2, Tableau(((1,), (2,))), Tableau(((2,), (1,))))
    assert got == column_bitableau(2, 2, (1, 2), (2, 1))


@settings(deadline=None)
@given(filled_pair_strategy())
def test_expand_into_columns_reconstructs(pair):
    left, right = pair
    n = d = 3
    total = poly_sum(
        n,
        d,
        (
            column_bitableau(n, d, ls, rs) * sign
            for sign, (ls, rs) in expand_into_columns(left, right)
        ),
    )
    assert total == row_biproduct_bitableau(n, d, left, right)


@settings(deadline=None)
@given(
    st.one_of(
        filled_pair_strategy(n=3, d=3).map(lambda pair: (3, 3, pair)),
        filled_pair_strategy(n=3, d=2).map(lambda pair: (3, 2, pair)),
    )
)
def test_bitableau_is_the_signed_product_of_row_biproducts(case):
    # bitableau reads the signed row-sum table; the reference multiplies minors
    n, d, (left, right) = case
    got, want = bitableau(n, d, left, right), row_biproduct_bitableau(n, d, left, right)
    assert got == want
    assert got.to_json() == want.to_json()


def test_right_symmetrized_worked_example():
    s = Tableau(((1, 3), (2, 4)))
    t = Tableau(((1, 2), (1, 3)))
    other = Tableau(((1, 3), (1, 2)))
    lhs = right_symmetrized(4, 3, s, t)
    assert lhs == bitableau(4, 3, s, t) * 2 + bitableau(4, 3, s, other) * 2


@settings(deadline=None)
@given(filled_pair_strategy(max_h=3, n=2, d=2))
def test_symmetrizer_route_agrees(pair):
    left, right = pair
    assert right_symmetrized(2, 2, left, right) == right_symmetrized_via_symmetrizer(
        2, 2, left, right
    )


def test_symmetrized_vanishing_for_wide_shapes():
    s = Tableau(((1, 2, 1),))
    t = Tableau(((1, 2, 2),))
    assert not right_symmetrized(2, 2, s, t)


# -- immanants ---------------------------------------------------------------


def test_row_shape_immanant_is_biproduct():
    for h in (1, 2, 3):
        for lefts in itertools.product((1, 2), repeat=h):
            for rights in itertools.product((1, 2), repeat=h):
                assert immanant(2, 2, (h,), lefts, rights) == biproduct(
                    2, 2, lefts, rights
                )


def test_immanant_invariant_under_simultaneous_permutation():
    lefts, rights = (1, 2, 2), (2, 1, 1)
    for shape in partitions_of(3):
        base = immanant(2, 2, shape, lefts, rights)
        for tau in itertools.permutations(range(3)):
            permuted = immanant(
                2,
                2,
                shape,
                tuple(lefts[t] for t in tau),
                tuple(rights[t] for t in tau),
            )
            assert permuted == base, (shape, tau)


def test_imm_operator_requires_homogeneous_input():
    mixed = var(1, 1) + MPoly.one(2, 2)
    with pytest.raises(ValueError):
        imm_operator((1,), mixed)


def test_imm_operator_on_column_monomial():
    # the operator sends each signed column to its immanant
    p = column_bitableau(2, 2, (1, 2), (1, 2))
    assert imm_operator((2,), p) == immanant(2, 2, (2,), (1, 2), (1, 2))


def test_families_range_check_entries_that_build_no_column():
    # the shapes differ, so the column map is empty
    with pytest.raises(ValueError):
        right_symmetrized(2, 2, Tableau(((3,),)), Tableau(((1,), (2,))))
    # every column cancels
    with pytest.raises(ValueError):
        immanant(2, 2, (2,), (3, 3), (1, 2))


# -- the group-algebra tables behind the column maps ---------------------------


def group_product(x, y):
    """The product xy of two group-algebra elements {pi: w}: x after y."""
    out = {}
    for pi, a in x.items():
        for sigma, b in y.items():
            key = tuple(pi[k] for k in sigma)
            out[key] = out.get(key, 0) + a * b
    return {g: w for g, w in out.items() if w}


def scaled(x, c):
    return {g: c * w for g, w in x.items()}


@pytest.mark.parametrize("shape", [s for h in range(1, 6) for s in partitions_of(h)])
def test_column_tables_are_quasi_idempotent(shape):
    rows = prod(map(factorial, shape))
    cols = prod(map(factorial, conjugate(shape)))
    hooks = hook_number(shape)
    a = polynomials._bitableau_table(shape)
    y = polynomials._young_table(shape)
    d = polynomials._double_young_table(shape)
    assert len(a) == rows and len(y) == rows * cols
    assert group_product(a, a) == scaled(a, rows)
    assert group_product(y, y) == scaled(y, hooks)
    assert group_product(d, d) == scaled(d, column_sign(sum(shape)) * rows * hooks)


def reference_add_columns(weights, table, lefts, rights, coeff=1):
    """The column map with one sorted key per permutation of the table."""
    for pi, w in table.items():
        key = tuple(sorted(zip([lefts[k] for k in pi], rights)))
        weights[key] = weights.get(key, 0) + w * coeff
    return weights


COLUMN_TABLES = (
    polynomials._bitableau_table,
    polynomials._young_table,
    polynomials._double_young_table,
    polynomials._character_support,
)


@st.composite
def table_and_words_strategy(draw):
    """A cached column table for |shape| <= 4 and two pairs of words over
    one or two letters, so that letters repeat."""
    shape = draw(st.sampled_from([s for h in range(5) for s in partitions_of(h)]))
    table = draw(st.sampled_from(COLUMN_TABLES))(shape)
    h = sum(shape)
    word = st.lists(st.integers(1, draw(st.integers(1, 2))), min_size=h, max_size=h)
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    return table, [(draw(word), draw(word), draw(coeff)) for _ in range(2)]


@settings(deadline=None, max_examples=300)
@given(table_and_words_strategy())
@example((polynomials._bitableau_table((2,)), [([1, 1], [1, 2], 1)] * 2))
@example((polynomials._character_support((2, 1)), [([1, 1, 2], [2, 1, 1], 1)] * 2))
def test_add_columns_matches_one_sort_per_permutation(case):
    table, calls = case
    got, want = {}, {}
    for lefts, rights, coeff in calls:
        polynomials._add_columns(got, table, lefts, rights, coeff)
        reference_add_columns(want, table, lefts, rights, coeff)
    assert list(got.items()) == list(want.items())


def test_add_columns_keeps_a_key_whose_weight_cancels():
    # both row permutations of (2,) give the word (1, 1), with signs +1 and -1
    table = polynomials._bitableau_table((2,))
    assert polynomials._add_columns({}, table, [1, 1], [1, 2]) == {((1, 1), (1, 2)): 0}


# -- literal references for the column-map families --------------------------
#
# The families by their defining formulas, sharing no code with the merged
# column maps: right_symmetrized as a sum of bitableau products (products of
# signed row minors), immanant as one column bitableau per permutation.


def literal_right_symmetrized(n, d, left, right):
    return poly_sum(
        n, d, (bitableau(n, d, left, rbar) for rbar in column_permuted_family(right))
    )


def literal_immanant(n, d, shape, lefts, rights):
    terms = []
    for sigma in itertools.permutations(range(len(lefts))):
        chi = character(shape, sigma)
        if chi:
            permuted = tuple(lefts[k] for k in sigma)
            terms.append(column_bitableau(n, d, permuted, rights) * chi)
    return poly_sum(n, d, terms)


def literal_imm_operator(shape, p):
    sign = column_sign(sum(shape))
    terms = []
    for exp, coeff in p.terms.items():
        pairs = p.variables_of(exp)
        lefts = tuple(i for i, _ in pairs)
        rights = tuple(phi for _, phi in pairs)
        terms.append(literal_immanant(p.n, p.d, shape, lefts, rights) * (coeff * sign))
    return poly_sum(p.n, p.d, terms)


LITERAL_CASES = [(h, n, d) for h in range(1, 4) for n, d in ((2, 2), (3, 3), (3, 2))]


@pytest.mark.parametrize("h, n, d", LITERAL_CASES + [(4, 4, 4), (5, 5, 5)])
def test_right_symmetrized_is_its_literal_sum(h, n, d):
    for shape in partitions_of(h):
        if h > 3:
            # the distinct-letter row-major filling, S = T: each column key
            # fixes its permutation, so every entry of the Young table is read
            s = Tableau.from_word(shape, range(1, h + 1))
            pairs = [(s, s)]
        else:
            pairs = itertools.product(
                enumerate_row_strict(shape, n), enumerate_row_strict(shape, d)
            )
        for s, t in pairs:
            assert right_symmetrized(n, d, s, t) == literal_right_symmetrized(
                n, d, s, t
            ), (s, t)


@pytest.mark.parametrize("h, n, d", LITERAL_CASES)
def test_immanant_and_imm_operator_are_their_literal_sums(h, n, d):
    lefts_all = list(itertools.product(range(1, n + 1), repeat=h))
    rights_all = list(itertools.product(range(1, d + 1), repeat=h))
    for shape in partitions_of(h):
        for lefts in lefts_all:
            for rights in rights_all:
                assert immanant(n, d, shape, lefts, rights) == literal_immanant(
                    n, d, shape, lefts, rights
                ), (shape, lefts, rights)
    # homogeneous polynomials whose monomials have different contents
    rng = random.Random(h * 100 + n * 10 + d)
    for _ in range(5):
        p = poly_sum(
            n,
            d,
            (
                column_bitableau(n, d, rng.choice(lefts_all), rng.choice(rights_all))
                * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(4)
            ),
        )
        for shape in partitions_of(h):
            assert imm_operator(shape, p) == literal_imm_operator(shape, p), (shape, p)


# -- exact linear algebra ----------------------------------------------------


def rational(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_rank_exact_known():
    assert rank_exact([]) == 0
    assert rank_exact([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert rank_exact([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2
    assert rank_exact(rational([[0, 1], [0, 2]])) == 1  # a zero column is skipped
    assert rank_exact(rational([[1, 2], [2, 4], [0, 1]])) == 2  # tall
    # wide: every row holds a pivot before the columns run out
    assert rank_exact(rational([[1, 2, 3]])) == 1
    assert rank_exact(rational([[0, 0, 1], [0, 1, 1]])) == 2


def test_solve_exact_unique_solution():
    matrix = [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(3)]]
    rhs = [Fraction(4), Fraction(5)]
    x, y = solve_exact(matrix, rhs)
    assert (x, y) == (Fraction(2), Fraction(1))


def test_solve_exact_consistent_overdetermined_system():
    matrix = rational([[1, 0], [0, 1], [1, 1]])
    rhs = [Fraction(2), Fraction(-1, 3), Fraction(5, 3)]
    assert solve_exact(matrix, rhs) == [Fraction(2), Fraction(-1, 3)]


def test_solve_exact_inconsistent_returns_none():
    matrix = [[Fraction(1)], [Fraction(1)]]
    assert solve_exact(matrix, [Fraction(1), Fraction(2)]) is None


def test_solve_exact_rejects_rank_deficient_columns():
    matrix = [[Fraction(1), Fraction(1)]]
    with pytest.raises(ArithmeticError):
        solve_exact(matrix, [Fraction(1)])
    zero_column = rational([[0, 1], [0, 2], [0, 0]])
    with pytest.raises(ArithmeticError):
        solve_exact(zero_column, rational([[1, 2, 0]])[0])


# -- standard basis and straightening ----------------------------------------


def test_standard_pairs_counts():
    assert [len(standard_pairs(h, 2, 2)) for h in range(4)] == [1, 4, 10, 20]


def test_standard_pairs_sorted_and_standard():
    pairs = standard_pairs(3, 2, 2)
    keys = [straight_key(s, t) for s, t in pairs]
    assert keys == sorted(keys)
    assert all(s.is_standard() and t.is_standard() for s, t in pairs)
    assert all(s.shape == t.shape and s.shape[0] <= 2 for s, t in pairs)


@pytest.mark.parametrize(
    "h, n, d", [(h, 3, 3) for h in range(5)] + [(3, 2, 3), (3, 3, 2)]
)
def test_content_pairs_are_the_standard_pairs_of_one_content(h, n, d):
    def content(word, size):
        return tuple(word.count(k) for k in range(1, size + 1))

    groups = {}
    for s, t in standard_pairs(h, n, d):
        key = (content(s.word(), n), content(t.word(), d))
        groups.setdefault(key, set()).add((s, t))
    rows = [c for c in itertools.product(range(h + 1), repeat=n) if sum(c) == h]
    cols = [c for c in itertools.product(range(h + 1), repeat=d) if sum(c) == h]
    found = []
    for key in itertools.product(rows, cols):
        block = _content_pairs(n, d, key)
        assert set(block) == groups.get(key, set()), key
        found.extend(block)
    # every standard pair in exactly one block
    assert sorted(found, key=lambda st: straight_key(*st)) == standard_pairs(h, n, d)


def matrix_count(rows, cols):
    """Nonnegative integer matrices with row sums rows and column sums cols,
    counted row by row."""
    if not rows:
        return int(not any(cols))
    count = 0
    for first in itertools.product(*(range(c + 1) for c in cols)):
        if sum(first) == rows[0]:
            rest = tuple(c - k for c, k in zip(cols, first))
            count += matrix_count(rows[1:], rest)
    return count


@pytest.mark.parametrize("n, d, h", [(4, 4, 4), (3, 4, 4), (4, 3, 4), (3, 3, 5)])
def test_every_block_has_the_size_rsk_predicts(n, d, h):
    # RSK (Knuth 1970): pairs of semistandard tableaux of one shape with
    # contents (rows, cols) match the matrices with those row and column
    # sums; transposing makes them the standard pairs of that block
    for rows in compositions(h, n):
        for cols in compositions(h, d):
            block = _content_pairs(n, d, (rows, cols))
            assert len(block) == matrix_count(rows, cols), (rows, cols)


def test_straighten_fixes_standard_pairs():
    for h in range(1, 4):
        for s, t in standard_pairs(h, 2, 2):
            expansion = straighten(bitableau(2, 2, s, t))
            assert expansion.terms == ((s, t, Fraction(1)),)


@settings(deadline=None)
@given(filled_pair_strategy(max_h=4, n=3, d=3))
def test_straighten_reconstructs_and_preserves_content(pair):
    left, right = pair
    p = bitableau(3, 3, left, right)
    expansion = straighten(p)
    assert expansion.to_polynomial() == p
    # contents survive straightening; shapes may climb in the straight order
    for s, t, _ in expansion.terms:
        assert s.content() == left.content()
        assert t.content() == right.content()
        assert s.shape == t.shape


def test_straighten_support_dominates_input():
    random.seed(0)
    seen = 0
    while seen < 25:
        h = random.randint(1, 4)
        shape = random.choice(partitions_of(h))
        left = Tableau(
            tuple(tuple(random.randint(1, 3) for _ in range(k)) for k in shape)
        )
        right = Tableau(
            tuple(tuple(random.randint(1, 3) for _ in range(k)) for k in shape)
        )
        if left.is_standard() and right.is_standard():
            continue
        p = bitableau(3, 3, left, right)
        if not p:
            continue
        base = straight_key(left, right)
        for s, t, _ in straighten(p).terms:
            assert straight_key(s, t) >= base
        seen += 1


def test_bitableau_vanishes_on_repeated_row_entries():
    # a repeated place inside a row kills that row's minor
    assert not bitableau(3, 3, Tableau(((2, 1), (3,))), Tableau(((1, 1), (2,))))


def test_gc_coordinates_inverts_symmetrized_combinations():
    pairs = standard_pairs(3, 3, 3)
    blocks = {}
    for s, t in pairs:
        blocks.setdefault((s.content(), t.content()), []).append((s, t))
    # five one-pair blocks and two blocks of several pairs each
    chosen = pairs[:5] + blocks[(((1, 1), (2, 1), (3, 1)),) * 2] + blocks[
        (((1, 2), (2, 1)), ((1, 1), (2, 1), (3, 1)))
    ]
    assert sum(len(b) > 1 for b in blocks.values() if set(b) <= set(chosen)) >= 2
    coeffs = [Fraction(k - 2, 3) for k in range(len(chosen))]
    combo = poly_sum(
        3,
        3,
        (right_symmetrized(3, 3, s, t) * c for (s, t), c in zip(chosen, coeffs)),
    )
    expected = {(s, t): c for (s, t), c in zip(chosen, coeffs) if c}
    assert gc_coordinates(combo) == expected


def test_straighten_mixed_contents_is_linear():
    parts = [
        (bitableau(3, 3, Tableau(((1, 2), (3,))), Tableau(((2, 3), (1,)))), 1),
        (bitableau(3, 3, Tableau(((2, 1), (1,))), Tableau(((3, 1), (2,)))), -2),
        (
            bitableau(3, 3, Tableau(((3,), (1,), (3,))), Tableau(((2,), (2,), (1,)))),
            Fraction(1, 2),
        ),
    ]
    assert all(b for b, _ in parts)
    contents = {
        (b.row_degrees(exp), b.col_degrees(exp)) for b, _ in parts for exp in b.terms
    }
    assert len(contents) == 3
    p = poly_sum(3, 3, (b * c for b, c in parts))
    separate = {}
    for b, c in parts:
        for s, t, k in straighten(b).terms:
            separate[(s, t)] = separate.get((s, t), 0) + c * k
    expansion = straighten(p)
    summed = tuple((s, t, k) for (s, t), k in separate.items())
    assert expansion == StdExpansion(3, 3, summed)
    assert expansion.to_polynomial() == p


@pytest.mark.parametrize("index", range(len(standard_pairs(2, 2, 2))))
def test_straightening_raises_when_the_basis_misses_a_pair(index, monkeypatch):
    s, t = standard_pairs(2, 2, 2)[index]
    monkeypatch.setattr(polynomials, "_block_memo", {})
    monkeypatch.setattr(
        polynomials,
        "_content_pairs",
        lambda *args: [pair for pair in _content_pairs(*args) if pair != (s, t)],
    )
    with pytest.raises(ArithmeticError, match="inconsistent system"):
        straighten(bitableau(2, 2, s, t))
    with pytest.raises(ArithmeticError, match="inconsistent system"):
        gc_coordinates(right_symmetrized(2, 2, s, t))


def test_block_memo_keeps_the_two_families_apart(monkeypatch):
    # every letter and every place once: a block of several standard pairs
    block = _content_pairs(3, 3, ((1, 1, 1), (1, 1, 1)))
    assert len(block) > 1
    coeffs = {st: Fraction(k + 1, 2) for k, st in enumerate(block)}
    p = poly_sum(3, 3, (bitableau(3, 3, s, t) * c for (s, t), c in coeffs.items()))
    q = poly_sum(
        3, 3, (right_symmetrized(3, 3, s, t) * c for (s, t), c in coeffs.items())
    )
    assert p != q
    expected = StdExpansion(3, 3, tuple((s, t, c) for (s, t), c in coeffs.items()))
    for straighten_first in (True, False):
        monkeypatch.setattr(polynomials, "_block_memo", {})
        if straighten_first:
            assert straighten(p) == expected
            assert gc_coordinates(q) == coeffs
        else:
            assert gc_coordinates(q) == coeffs
            assert straighten(p) == expected
        assert len(polynomials._block_memo) == 2
        assert straighten(p) == expected  # warm


def test_straighten_multi_term_example():
    p = bitableau(3, 3, Tableau(((1, 2), (3,))), Tableau(((2, 3), (1,))))
    expansion = straighten(p)
    assert expansion.text() == (
        "(1 2;3|1 3;2) − (1 2;3|1 2;3) + (1 2 3|1 2 3)"
    )


def test_std_expansion_round_trip_and_text():
    pairs = standard_pairs(2, 2, 2)
    expansion = StdExpansion(
        2, 2, ((pairs[0][0], pairs[0][1], Fraction(-3, 2)),)
    )
    data = json.loads(json.dumps(expansion.to_json()))
    assert StdExpansion.from_json(data, 2, 2) == expansion
    assert expansion.text().startswith("−3/2 · (")


# -- polarization actions ----------------------------------------------------


@settings(deadline=None)
@given(poly_strategy(), poly_strategy())
def test_act_generator_is_a_derivation(p, q):
    for i, j in itertools.product((1, 2), repeat=2):
        lhs = act_generator(i, j, p * q)
        rhs = act_generator(i, j, p) * q + p * act_generator(i, j, q)
        assert lhs == rhs


@settings(deadline=None)
@given(poly_strategy(n=3, d=2), st.integers(1, 3), st.integers(1, 3))
def test_act_generator_matches_the_polarization_sum(p, i, j):
    # reference: sum_phi (i|phi) * d/d(j|phi), on Fraction coefficients
    for a, b in ((i, j), (j, j)):
        expected = MPoly.zero(3, 2)
        for phi in (1, 2):
            expected = expected + MPoly.variable(3, 2, a, phi) * p.diff(b, phi)
        assert act_generator(a, b, p) == expected


@settings(deadline=None)
@given(
    poly_strategy(max_terms=2, max_deg=2),
    st.lists(
        st.tuples(
            st.lists(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]), max_size=3),
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
        ),
        max_size=5,
    ),
)
def test_act_ugl_matches_the_plain_right_to_left_loop(p, raw):
    # reference: each generator as its polarization sum, no kernel
    x = UglElement(2, {tuple(mono): coeff for mono, coeff in raw})
    expected = MPoly.zero(2, 2)
    for mono, coeff in x.terms.items():
        q = p
        for i, j in reversed(mono):
            q = sum(
                (MPoly.variable(2, 2, i, phi) * q.diff(j, phi) for phi in (1, 2)),
                MPoly.zero(2, 2),
            )
        expected = expected + q * coeff
    assert act_ugl(x, p) == expected


def _full_column_operator(lefts, rights, p):
    # reference: every one of the d^h place words, derivatives first
    total = MPoly.zero(p.n, p.d)
    for phibar in itertools.product(range(1, p.d + 1), repeat=len(lefts)):
        q = p
        for j, phi in zip(rights, phibar):
            q = q.diff(j, phi)
        total = total + MPoly.monomial(p.n, p.d, zip(lefts, phibar)) * q
    return total * column_sign(len(lefts))


@settings(deadline=None)
@given(
    poly_strategy(n=2, d=3, max_terms=4, max_deg=3),
    st.integers(0, 3).flatmap(
        lambda h: st.tuples(
            st.lists(st.integers(1, 2), min_size=h, max_size=h),
            st.lists(st.integers(1, 2), min_size=h, max_size=h),
        )
    ),
)
def test_pruned_column_operator_matches_every_place_word(p, words):
    lefts, rights = words
    zero = MPoly.zero(2, 3)
    assert act_column_capelli_diff(lefts, rights, zero) == zero
    assert act_column_capelli_diff(lefts, rights, p) == _full_column_operator(
        lefts, rights, p
    )


@pytest.mark.parametrize(
    "lefts, rights, probe",
    [
        ((4,), (1,), MPoly.variable(3, 3, 1, 1)),
        ((1,), (4,), MPoly.variable(3, 3, 2, 1)),
        ((4,), (1,), MPoly.variable(3, 3, 2, 1)),
        ((1, 2), (0, 1), MPoly.variable(3, 3, 3, 3)),
        ((1,), (4,), MPoly.zero(3, 3)),
    ],
)
def test_column_operator_rejects_out_of_range_letters(lefts, rights, probe):
    # a letter outside 1..n raises even when every derivative vanishes
    with pytest.raises(ValueError, match="out of range"):
        act_column_capelli_diff(lefts, rights, probe)


def _poly_and_rows(n, d):
    return st.tuples(
        poly_strategy(n=n, d=d, max_terms=4, max_deg=3),
        st.lists(st.integers(1, n), min_size=1, max_size=3).map(tuple),
    )


@settings(deadline=None)
@given(st.one_of(_poly_and_rows(3, 3), _poly_and_rows(2, 4)))
@example((var(1, 1, 3, 3) * Fraction(2, 3) + var(2, 3, 3, 3) * var(1, 2, 3, 3), (1, 2)))
@example((var(1, 4, 2, 4) * var(1, 2, 2, 4) * Fraction(-1, 2), (1, 1)))
def test_place_derivatives_are_the_nonzero_ones_in_lexicographic_order(case):
    # reference: every one of the d^h place words, kept where the derivative
    # is nonzero
    p, rows = case
    expected = []
    for phibar in itertools.product(range(1, p.d + 1), repeat=len(rows)):
        q = p
        for row, phi in zip(rows, phibar):
            q = q.diff(row, phi)
        if q:
            expected.append((phibar, q))
    assert list(polynomials._place_derivatives(p, rows)) == expected
    zero = MPoly.zero(p.n, p.d)
    assert list(polynomials._place_derivatives(zero, rows)) == []


@settings(deadline=None)
@given(poly_strategy(n=3, d=2, max_terms=3, max_deg=3))
def test_act_ugl_of_generators_is_act_generator_composed(p):
    # one generator is one kernel call; a PBW monomial g1·g2 acts as g1(g2(p))
    idx = range(1, 4)
    for i, j in itertools.product(idx, repeat=2):
        assert act_ugl(UglElement.generator(3, i, j), p) == act_generator(i, j, p)
    for (a, b), (c, e) in itertools.combinations_with_replacement(
        itertools.product(idx, repeat=2), 2
    ):
        # (a, b) <= (c, e), so the product is the single normal monomial
        x = UglElement(3, {((a, b), (c, e)): 1})
        assert act_ugl(x, p) == act_generator(a, b, act_generator(c, e, p))


def test_act_generator_on_variables():
    # e_ij sends (j|phi) to (i|phi) and kills other rows
    assert act_generator(1, 2, var(2, 1)) == var(1, 1)
    assert act_generator(1, 2, var(1, 1)) == MPoly.zero(2, 2)


@settings(deadline=None)
@given(poly_strategy(max_terms=2, max_deg=2))
def test_act_ugl_is_an_algebra_action(p):
    n = 2
    x = UglElement.generator(n, 1, 2) * UglElement.generator(n, 2, 1)
    y = UglElement.generator(n, 2, 2) + UglElement.one(n) * 2
    assert act_ugl(x * y, p) == act_ugl(x, act_ugl(y, p))
    assert act_ugl(y * x, p) == act_ugl(y, act_ugl(x, p))


def test_act_ugl_respects_commutators():
    # the defining relations hold in the polynomial model
    n = 2
    p = var(1, 1) * var(2, 2) + var(2, 1) * 3
    for a, b, c, d in itertools.product((1, 2), repeat=4):
        x = UglElement.generator(n, a, b)
        y = UglElement.generator(n, c, d)
        lhs = act_ugl(x, act_ugl(y, p)) - act_ugl(y, act_ugl(x, p))
        assert lhs == act_ugl(x.commutator(y), p)


def test_column_differential_small_case():
    lefts, rights = (1, 2), (2, 1)
    probe = var(2, 1) * var(1, 2)
    from capelli.elements import column_capelli

    element = column_capelli(lefts, rights, 2)
    assert act_ugl(element, probe) == act_column_capelli_diff(lefts, rights, probe)


def test_act_higher_capelli_degree_one():
    # shape (1): plain polarization sum over the diagonal
    p = var(1, 1)
    expected = act_generator(1, 1, p) + act_generator(2, 2, p)
    assert act_higher_capelli((1,), p) == expected
