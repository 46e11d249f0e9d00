import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from capelli.enveloping import UglElement, _normalize, ad, element_sum
from capelli.polynomials import MPoly, StdExpansion
from capelli.tableaux import Tableau, partitions_of
from capelli.terms import json_term_list, scale_terms


def gen(n, i, j):
    return UglElement.generator(n, i, j)


@st.composite
def element_strategy(draw, n=2, max_terms=3, max_len=3):
    total = UglElement.zero(n)
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        length = draw(st.integers(min_value=0, max_value=max_len))
        factor = UglElement.one(n)
        for _ in range(length):
            i = draw(st.integers(min_value=1, max_value=n))
            j = draw(st.integers(min_value=1, max_value=n))
            factor = factor * gen(n, i, j)
        num = draw(st.integers(min_value=-4, max_value=4))
        den = draw(st.integers(min_value=1, max_value=3))
        total = total + factor * Fraction(num, den)
    return total


def test_generator_validation():
    with pytest.raises(ValueError):
        gen(2, 0, 1)
    with pytest.raises(ValueError):
        gen(2, 1, 3)


def test_bracket_fidelity():
    # e_ab e_cd - e_cd e_ab == delta_bc e_ad - delta_da e_cb
    for n in (2, 3):
        idx = range(1, n + 1)
        for a, b, c, d in itertools.product(idx, repeat=4):
            lhs = gen(n, a, b).commutator(gen(n, c, d))
            rhs = UglElement.zero(n)
            if b == c:
                rhs = rhs + gen(n, a, d)
            if d == a:
                rhs = rhs - gen(n, c, b)
            assert lhs == rhs, (a, b, c, d)


def test_normal_form_monomials_weakly_increase():
    n = 3
    x = gen(n, 3, 1) * gen(n, 1, 2) * gen(n, 2, 2) * gen(n, 3, 3)
    for mono in x.terms:
        assert all(mono[k] <= mono[k + 1] for k in range(len(mono) - 1))


def test_known_product():
    n = 2
    assert gen(n, 2, 1) * gen(n, 1, 2) == (
        gen(n, 1, 2) * gen(n, 2, 1) + gen(n, 2, 2) - gen(n, 1, 1)
    )
    assert (gen(n, 2, 1) * gen(n, 1, 2)).text() == "e[1,2]e[2,1] − e[1,1] + e[2,2]"


def test_ad_known():
    n = 2
    assert ad(1, 2, gen(n, 2, 1)) == gen(n, 1, 1) - gen(n, 2, 2)
    assert ad(1, 2, gen(n, 1, 2)) == UglElement.zero(n)


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: element_strategy(n=n, max_terms=3, max_len=3)
    )
)
def test_ad_matches_the_commutator_through_products(x):
    # the derivation rule against e_ij·x − x·e_ij, diagonal generators included
    idx = range(1, x.n + 1)
    for i, j in itertools.product(idx, repeat=2):
        g = gen(x.n, i, j)
        assert ad(i, j, x) == g * x - x * g, (i, j)


@pytest.mark.parametrize("i, j", [(0, 1), (1, 5)])
def test_ad_rejects_generators_out_of_range(i, j):
    with pytest.raises(ValueError) as info:
        ad(i, j, gen(2, 1, 2))
    assert str(info.value) == f"generator e[{i},{j}] out of range for n=2"


@settings(deadline=None)
@given(element_strategy(), element_strategy(), element_strategy())
def test_associativity(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(deadline=None)
@given(element_strategy(), element_strategy())
def test_commutator_antisymmetry(x, y):
    assert x.commutator(y) == -(y.commutator(x))


@settings(deadline=None)
@given(element_strategy(), element_strategy(), element_strategy())
def test_jacobi_identity(x, y, z):
    a = x.commutator(y.commutator(z))
    b = y.commutator(z.commutator(x))
    c = z.commutator(x.commutator(y))
    assert a + b + c == UglElement.zero(2)


@settings(deadline=None)
@given(element_strategy(), element_strategy())
def test_filtration_degree_bound(x, y):
    dx, dy = x.filtration_degree(), y.filtration_degree()
    dxy = (x * y).filtration_degree()
    if dx is None or dy is None:
        assert dxy is None
    elif dxy is not None:
        assert dxy <= dx + dy


def test_degree_part_splits_element():
    n = 2
    x = gen(n, 2, 1) * gen(n, 1, 2) + gen(n, 1, 1) * 3
    deg = x.filtration_degree()
    rebuilt = element_sum(n, (x.degree_part(k) for k in range(deg + 1)))
    assert rebuilt == x
    assert all(len(m) == 2 for m in x.degree_part(2).terms)


def test_scalar_arithmetic():
    n = 2
    x = gen(n, 1, 2)
    assert x * 2 + x == 3 * x
    assert (x / 2) * 2 == x
    assert x - x == UglElement.zero(n)
    assert not UglElement.zero(n)
    assert UglElement.scalar(n, Fraction(5, 3)) * 3 == UglElement.one(n) * 5


@settings(deadline=None)
@given(element_strategy(), element_strategy())
def test_integral_coefficients_are_stored_as_ints(x, y):
    halves = element_sum(x.n, (x / 2, x / 2, y))
    for z in (x + y, x - y, x * y, x * 3, x / 2, x / 2 * 2, y * Fraction(3, 2), halves):
        for coeff in z.terms.values():
            assert type(coeff) is int or coeff.denominator != 1, z
    assert halves == x + y
    assert element_sum(x.n, (x, -x)) == UglElement.zero(x.n)
    mixed = UglElement.scalar(x.n, 2) + gen(x.n, 1, 1) / 2
    assert {type(c) for c in mixed.terms.values()} == {int, Fraction}
    for z in (mixed, mixed + x, halves):
        types = {mono: type(c) for mono, c in z.terms.items()}
        for unit in (1, -1, Fraction(1), Fraction(-1)):
            scaled = z * unit
            assert scaled == (z if unit == 1 else -z)
            assert {mono: type(c) for mono, c in scaled.terms.items()} == types


def test_casimir_elements_are_central():
    for n in (2, 3):
        linear = element_sum(n, (gen(n, i, i) for i in range(1, n + 1)))
        quadratic = element_sum(
            n,
            (
                gen(n, i, j) * gen(n, j, i)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
            ),
        )
        assert linear.is_central()
        assert quadratic.is_central()
        assert not gen(n, 1, 2).is_central()
    # commutes with every e_ii and with e_12, but not with e_23
    assert not (gen(3, 1, 1) + gen(3, 2, 2)).is_central()


@st.composite
def near_central_strategy(draw):
    # a combination of the two Casimir elements, sometimes perturbed
    n = draw(st.integers(min_value=1, max_value=3))
    idx = range(1, n + 1)
    linear = element_sum(n, (gen(n, i, i) for i in idx))
    quadratic = element_sum(n, (gen(n, i, j) * gen(n, j, i) for i in idx for j in idx))
    x = linear * draw(st.integers(-2, 2)) + quadratic * draw(st.integers(-2, 2))
    if draw(st.booleans()):
        x = x + draw(element_strategy(n=n, max_terms=2, max_len=2))
    return x


@settings(deadline=None)
@given(near_central_strategy())
@example(gen(3, 1, 1) + gen(3, 2, 2))
@example(gen(3, 1, 2) * gen(3, 2, 1) + gen(3, 2, 1) * gen(3, 1, 2))
def test_is_central_agrees_with_every_generator(x):
    # the definition: [e_ij, x] = 0 for all n^2 generators
    idx = range(1, x.n + 1)
    expected = all(not (gen(x.n, i, j) * x - x * gen(x.n, i, j)) for i in idx for j in idx)
    assert x.is_central() == expected


def commutes_with_every_generator(x):
    idx = range(1, x.n + 1)
    return all(not (gen(x.n, i, j) * x - x * gen(x.n, i, j)) for i in idx for j in idx)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_raising_generators_alone_do_not_decide_centrality(n):
    # e_1n, its square and its product with the central e_11 + ... + e_nn are
    # killed by every raising generator e_{k,k+1}; only their nonzero weight
    # shows that they are not central
    linear = element_sum(n, (gen(n, i, i) for i in range(1, n + 1)))
    top = gen(n, 1, n)
    for x in (top, top * top, top * linear):
        assert all(not ad(k, k + 1, x) for k in range(1, n))
        assert not x.is_central()
        assert not commutes_with_every_generator(x)


@st.composite
def weight_zero_strategy(draw):
    # Casimir combinations plus products e_{i_1 j_1}...e_{i_k j_k} whose right
    # indices are a permutation of their left ones: weight zero, sometimes
    # central
    n = draw(st.sampled_from([3, 4]))
    idx = range(1, n + 1)
    linear = element_sum(n, (gen(n, i, i) for i in idx))
    quadratic = element_sum(n, (gen(n, i, j) * gen(n, j, i) for i in idx for j in idx))
    x = linear * draw(st.integers(-2, 2)) + quadratic * draw(st.integers(-2, 2))
    for _ in range(draw(st.integers(0, 2))):
        lefts = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
        rights = draw(st.permutations(lefts))
        factor = UglElement.one(n)
        for i, j in zip(lefts, rights):
            factor = factor * gen(n, i, j)
        num = draw(st.integers(min_value=-3, max_value=3))
        den = draw(st.integers(min_value=1, max_value=3))
        x = x + factor * Fraction(num, den)
    return x


@settings(deadline=None)
@given(weight_zero_strategy())
@example(gen(3, 1, 1) - gen(3, 2, 2))
@example(gen(4, 1, 2) * gen(4, 2, 1) + gen(4, 2, 1) * gen(4, 1, 2))
@example(gen(4, 1, 2) * gen(4, 2, 3) * gen(4, 3, 1))
def test_is_central_of_weight_zero_elements_agrees_with_every_generator(x):
    for mono in x.terms:
        assert sorted(i for i, _ in mono) == sorted(j for _, j in mono)
    assert x.is_central() == commutes_with_every_generator(x)


def test_mixed_size_arithmetic_is_rejected():
    with pytest.raises(ValueError):
        gen(2, 1, 1) + gen(3, 1, 1)


def test_elements_are_immutable_and_hashable():
    x = gen(2, 1, 2)
    with pytest.raises(AttributeError):
        x.n = 3
    assert hash(gen(2, 1, 2)) == hash(x)
    assert gen(2, 1, 2) != gen(3, 1, 2)


def test_text_rendering_conventions():
    n = 2
    zero = UglElement.zero(n)
    assert zero.text() == "0"
    assert UglElement.one(n).text() == "1"
    assert (UglElement.one(n) * Fraction(-3, 2)).text() == "−3/2"
    x = gen(n, 1, 1) * gen(n, 2, 2) - gen(n, 1, 2) * gen(n, 2, 1) + gen(n, 1, 1) * 2
    # higher filtration degree first, then PBW monomials lexicographically
    assert x.text() == "e[1,1]e[2,2] − e[1,2]e[2,1] + 2 · e[1,1]"
    assert (-x).text() == "−e[1,1]e[2,2] + e[1,2]e[2,1] − 2 · e[1,1]"


def test_text_uses_real_minus_sign():
    # U+2212, not the ASCII hyphen
    rendered = (-UglElement.one(2)).text()
    assert rendered == "−1"
    assert "-" not in rendered


@settings(deadline=None)
@given(element_strategy())
def test_json_round_trip(x):
    data = json.loads(json.dumps(x.to_json()))
    assert UglElement.from_json(data, x.n) == x


coeff_strategy = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def term_list_owner_strategy(draw):
    """A random UglElement, MPoly or StdExpansion: the three owners of to_json."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("ugl", "mpoly", "std")))
    if kind == "ugl":
        return draw(element_strategy(n=n))
    if kind == "mpoly":
        exps = st.tuples(*[st.integers(0, 2)] * (n * d))
        return MPoly(n, d, draw(st.dictionaries(exps, coeff_strategy, max_size=4)))
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        shape = draw(st.sampled_from(partitions_of(draw(st.integers(0, 3)))))
        left, right = (
            Tableau(tuple(
                tuple(draw(st.integers(1, size)) for _ in range(k)) for k in shape
            ))
            for size in (n, d)
        )
        terms.append((left, right, draw(coeff_strategy)))
    return StdExpansion(n, d, tuple(terms))


@settings(deadline=None)
@given(term_list_owner_strategy())
@example(UglElement.zero(2))
@example(UglElement.scalar(2, Fraction(-3, 2)))
@example(gen(3, 3, 1) * gen(3, 1, 2) * Fraction(-7, 4) + UglElement.scalar(3, 5))
@example(MPoly.zero(2, 3))
@example(MPoly.one(2, 2) * -2)
@example(StdExpansion(2, 2, ()))
@example(StdExpansion(2, 2, ((Tableau(()), Tableau(()), Fraction(1, 2)),)))
def test_json_term_list_is_the_indented_json_dump(x):
    entries = x.to_json()
    assert json_term_list(entries) == json.dumps(entries, indent=2)


def reference_normalize(raw):
    """The PBW worklist with each search for a descent starting at 0."""
    normal = {}
    stack = [item for item in raw if item[1]]
    while stack:
        mono, coeff = stack.pop()
        k = next((k for k in range(len(mono) - 1) if mono[k] > mono[k + 1]), -1)
        if k < 0:
            normal[mono] = normal.get(mono, 0) + coeff
            if not normal[mono]:
                del normal[mono]
            continue
        (a, b), (c, d) = mono[k], mono[k + 1]
        head, tail = mono[:k], mono[k + 2 :]
        stack.append((head + ((c, d), (a, b)) + tail, coeff))
        if b == c:
            stack.append((head + ((a, d),) + tail, coeff))
        if d == a:
            stack.append((head + ((c, b),) + tail, -coeff))
    return normal


@st.composite
def raw_bag_strategy(draw):
    """Unsorted (monomial, coeff) pairs at n <= 3 of length <= 5, including
    zero coefficients, negated repeats and reorderings of the same factors."""
    n = draw(st.integers(1, 3))
    letter = st.integers(1, n)
    mono = st.lists(st.tuples(letter, letter), max_size=5).map(tuple)
    bag = draw(st.lists(st.tuples(mono, coeff_strategy), max_size=4))
    for m, c in list(bag):
        if draw(st.booleans()):
            bag.append((m, -c))
        if draw(st.booleans()):
            bag.append((tuple(draw(st.permutations(m))), draw(coeff_strategy)))
    return bag


@settings(deadline=None)
@given(raw_bag_strategy())
@example([(((2, 1), (1, 2)), 1), (((1, 2), (2, 1)), -1)])
@example([(((3, 3), (2, 3), (1, 2), (3, 1), (1, 1)), Fraction(-1, 2))])
def test_normalize_matches_the_scan_from_zero(raw):
    assert _normalize(raw) == reference_normalize(raw)


def test_scale_terms_by_one_and_minus_one():
    terms = {((1, 2),): 3, ((1, 1), (2, 1)): Fraction(-1, 2)}
    before = dict(terms)
    assert scale_terms(terms, 1) is terms
    negated = scale_terms(terms, -1)
    assert negated is not terms
    assert negated == {((1, 2),): -3, ((1, 1), (2, 1)): Fraction(1, 2)}
    assert terms == before


def test_json_coefficients_are_ascii_fractions():
    x = gen(2, 1, 1) * Fraction(-1, 2)
    payload = x.to_json()
    assert payload == [{"coeff": "-1/2", "monomial": [[1, 1]]}]


@pytest.mark.parametrize("index", [1.5, True, "1"])
def test_from_json_accepts_json_integer_indices_only(index):
    # each was once read as the index 1
    with pytest.raises(ValueError):
        UglElement.from_json([{"coeff": "1", "monomial": [[index, 1]]}], 2)
    with pytest.raises(ValueError):
        UglElement.from_json([{"coeff": "1", "monomial": [[1, index]]}], 2)


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        UglElement.from_json([{"coeff": "1"}], 2)
    with pytest.raises(ValueError):
        UglElement.from_json([{"coeff": "1", "monomial": [[0, 1]]}], 2)
