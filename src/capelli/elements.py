"""Distinguished elements of U(gl(n)) built from column Capelli bitableaux.

The workhorse is ``column_capelli``, a closed two-term recursion producing
the PBW normal form of the depth-h column element [i_1...i_h | j_1...j_h].
Everything else is a finite rational combination of these columns: Capelli
bitableaux, (double) Young-Capelli bitableaux, Capelli immanants, quantum
immanants and Schur elements, and the classical Capelli determinant.  The
module also realizes both directions of the correspondence between
C[M_{n,n}] and U(gl(n)) and the expansion of an element over the standard
Young-Capelli basis.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial, prod

# unused here; test_wrappers_cover_every_binding_and_time_spans asserts it
from .characters import character
from .enveloping import Monomial, UglElement, element_sum
from .polynomials import (
    ColumnKey,
    MPoly,
    StdExpansion,
    _add_columns,
    _add_tableau_columns,
    _bitableau_table,
    _character_support,
    _check_column,
    _columns_polynomial,
    _double_young_table,
    _immanant_columns,
    _young_table,
    column_sign,
    gc_coordinates,
    poly_sum,
    # unused here; test_wrappers_cover_every_binding_and_time_spans asserts it
    solve_exact,
    standard_pairs,
)
from .tableaux import (
    Tableau,
    check_partition,
    compositions,
    conjugate,
    enumerate_row_strict,
    hook_number,
)
from .terms import Coeff, add_terms, check_size, exact

_column_memo: dict[tuple, UglElement] = {}


def column_capelli(lefts, rights, n: int) -> UglElement:
    """PBW normal form of the column element [i_1...i_h | j_1...j_h].

    Top-row recursion: with h rows,

        [ibar|jbar] = (-1)^(h-1) e_{i1,j1} [i2...ih | j2...jh]
                    + (-1)^(h-2) sum_{k>=2} delta_{ik,j1}
                      [i1 i2 ... (omit row k) | jk j2 ... (omit row k)]

    i.e. each contraction deletes row k and substitutes j_1 <- j_k in the
    first row.  The element only depends on the rows as a multiset, so the
    memo table is keyed by the row-sorted form.
    """
    lefts, rights = _check_column(n, n, lefts, rights)
    return _column_sorted(tuple(sorted(zip(lefts, rights))), n)


def _column_sorted(pairs: tuple[tuple[int, int], ...], n: int) -> UglElement:
    key = (pairs, n)
    cached = _column_memo.get(key)
    if cached is not None:
        return cached
    h = len(pairs)
    if h == 0:
        result = UglElement.one(n)
    elif h == 1:
        result = UglElement.generator(n, *pairs[0])
    else:
        (i1, j1), rest = pairs[0], pairs[1:]
        # the product's term map is fresh, so it is signed and merged in
        # place: (-1)^(h-1) on the product, (-1)^h on each contraction
        result = _column_sorted(pairs[:1], n) * _column_sorted(rest, n)
        terms = result.terms
        sign = -1 if h % 2 else 1
        if sign == 1:
            for mono, coeff in terms.items():
                terms[mono] = -coeff
        for k, (ik, jk) in enumerate(rest):
            if ik == j1:
                reduced = tuple(sorted(((i1, jk),) + rest[:k] + rest[k + 1 :]))
                contraction = _column_sorted(reduced, n).terms.items()
                add_terms(terms, ((mono, sign * coeff) for mono, coeff in contraction))
    _column_memo[key] = result
    return result


def column_capelli_alt(lefts, rights, n: int) -> UglElement:
    """Oracle: checks column_capelli by the independent bottom-row recursion:

        [ibar|jbar] = (-1)^(h-1) [i1...i_{h-1} | j1...j_{h-1}] e_{ih,jh}
                    + (-1)^(h-2) sum_{k<h} delta_{ih,jk}
                      [rows l not in {k,h}, then row (ik, jh)]

    The words are checked once here; the recursion is memoized on the
    literal word pair so the route stays independent of column_capelli's
    row-sorting.
    """
    lefts, rights = _check_column(n, n, lefts, rights)
    return _column_bottom(lefts, rights, n)


@functools.cache
def _column_bottom(lefts: tuple[int, ...], rights: tuple[int, ...], n: int) -> UglElement:
    h = len(lefts)
    if h == 0:
        return UglElement.one(n)
    if h == 1:
        return UglElement.generator(n, lefts[0], rights[0])
    top_sign = -1 if (h - 1) % 2 else 1
    result = (
        _column_bottom(lefts[:-1], rights[:-1], n)
        * UglElement.generator(n, lefts[-1], rights[-1])
        * top_sign
    )
    contract_sign = -1 if (h - 2) % 2 else 1
    for k in range(h - 1):
        if lefts[-1] == rights[k]:
            kept = [l for l in range(h - 1) if l != k]
            new_lefts = tuple(lefts[l] for l in kept) + (lefts[k],)
            new_rights = tuple(rights[l] for l in kept) + (rights[-1],)
            result = result + _column_bottom(new_lefts, new_rights, n) * contract_sign
    return result


def column_capelli_literal(lefts, rights, n: int) -> UglElement:
    """Oracle: the top-row recursion on the words exactly as given, checking
    column_capelli's row-sorted memo.

    No row sorting and no memoization; exponential but tiny at desk scale.
    That every derivation order yields the same element licenses the memo.
    """
    lefts, rights = _check_column(n, n, lefts, rights)
    h = len(lefts)
    if h == 0:
        return UglElement.one(n)
    if h == 1:
        return UglElement.generator(n, lefts[0], rights[0])
    top_sign = -1 if (h - 1) % 2 else 1
    result = (
        UglElement.generator(n, lefts[0], rights[0])
        * column_capelli_literal(lefts[1:], rights[1:], n)
        * top_sign
    )
    contract_sign = -1 if (h - 2) % 2 else 1
    for k in range(1, h):
        if lefts[k] == rights[0]:
            new_lefts = (lefts[0],) + lefts[1:k] + lefts[k + 1 :]
            new_rights = (rights[k],) + rights[1:k] + rights[k + 1 :]
            result = result + column_capelli_literal(
                new_lefts, new_rights, n
            ) * contract_sign
    return result


# -- families assembled over distinct columns (see polynomials' column maps) --


def _sum_columns(n: int, weights: dict[ColumnKey, Coeff]) -> UglElement:
    """Sum of weight * [lefts | rights] over a merged column map."""
    acc: dict[Monomial, Coeff] = {}
    for key, weight in weights.items():
        weight = exact(weight)  # an int weight keeps the products in int arithmetic
        if weight:
            column = column_capelli(
                tuple(i for i, _ in key), tuple(j for _, j in key), n
            )
            add_terms(acc, ((mono, c * weight) for mono, c in column.terms.items()))
    return UglElement.zero(n)._wrap(acc)


def capelli_bitableau(left: Tableau, right: Tableau, n: int) -> UglElement:
    """Image [S|T] of the bitableau (S|T): the signed sum of column Capelli
    elements over the multipermutation expansion.  Zero when shapes differ."""
    weights = _add_tableau_columns({}, _bitableau_table, n, n, left, right)
    return _sum_columns(n, weights)


def young_capelli(left: Tableau, right: Tableau, n: int) -> UglElement:
    """Right symmetrized element [S|box T]: sum of [S|Tbar] over all column
    permutations Tbar of T, with multiplicity."""
    weights = _add_tableau_columns({}, _young_table, n, n, left, right)
    return _sum_columns(n, weights)


def double_young_capelli(left: Tableau, right: Tableau, n: int) -> UglElement:
    """Two-sided symmetrized element [box S|T]:

        (-1)^C(h,2) sum_sigma (-1)^|sigma| [S|box T^sigma]

    summed over all tuples sigma of within-row permutations of T (a signed
    multiset: repeated row entries contribute repeated variants)."""
    weights = _add_tableau_columns({}, _double_young_table, n, n, left, right)
    return _sum_columns(n, weights)


def capelli_immanant(shape, lefts, rights, n: int) -> UglElement:
    """Character-weighted sum of column Capelli elements:

        Cimm_shape[ibar; jbar] = sum_sigma chi_shape(sigma) [ibar o sigma | jbar]
    """
    return _sum_columns(n, _immanant_columns(shape, n, n, lefts, rights))


def _diagonal_word(comp: tuple[int, ...]) -> tuple[int, ...]:
    """The weakly increasing word 1^{h_1} 2^{h_2} ... n^{h_n}."""
    return tuple(
        i for i, count in enumerate(comp, start=1) for _ in range(count)
    )


def quantum_immanant(shape, n: int) -> UglElement:
    """The central element attached to the shape:

        (-1)^C(h,2) sum_{h_1+...+h_n=h} (H(shape)/prod h_p!)
                    Cimm_{conjugate(shape)}[diag; diag]

    with diag the weakly increasing diagonal word of each composition.  A
    composition with m nonzero parts is a positive one over the letters 1..m
    relabeled increasingly into 1..n (0! = 1).  So the positive compositions
    of each length m are summed once, into P_m, and P_m is added under each
    of the C(n, m) increasing relabelings: e_ij -> e_{L(i) L(j)} keeps the
    bracket and the order of pairs, so it sends normal monomials to normal
    monomials and each column over 1..m to its relabeled column."""
    shape, n = check_partition(shape), check_size("n", n)
    h = sum(shape)
    support = _character_support(conjugate(shape))
    signed_hooks = hook_number(shape) * column_sign(h)
    by_length: dict[int, dict[ColumnKey, Fraction]] = {}
    for comp in compositions(h, n):
        m = n - comp.count(0)
        if 0 in comp[:m]:
            continue  # a relabeling of the positive composition comp[:m]
        word = _diagonal_word(comp)
        weight = Fraction(signed_hooks, prod(map(factorial, comp)))
        weights = by_length.setdefault(m, {})
        # int sums per key first, so the Fraction weight multiplies once per key
        for key, chi in _add_columns({}, support, word, word).items():
            weights[key] = chi * weight
    acc: dict[Monomial, Coeff] = {}
    for m, weights in by_length.items():
        partial = _sum_columns(n, weights).terms.items()
        for labels in itertools.combinations(range(1, n + 1), m):
            image = {
                (i, j): (labels[i - 1], labels[j - 1])
                for i in range(1, m + 1)
                for j in range(1, m + 1)
            }.__getitem__
            add_terms(acc, ((tuple(map(image, mono)), c) for mono, c in partial))
    return UglElement.zero(n)._wrap(acc)


def schur_element(shape, n: int) -> UglElement:
    """Same combination as quantum_immanant scaled by 1/H(shape):

        (-1)^C(h,2) sum_{h_1+...+h_n=h} (1/prod h_p!)
                    Cimm_{conjugate(shape)}[diag; diag]
    """
    shape = check_partition(shape)
    return quantum_immanant(shape, n) / hook_number(shape)


def schur_element_dyc(shape, n: int) -> UglElement:
    """Oracle: checks schur_element by its character-free presentation:

        (1/H(shape)) sum_S [box S|S]

    summed over all row-strictly-increasing tableaux S of the conjugate
    shape with entries in 1..n."""
    shape = check_partition(shape)
    weights: dict[ColumnKey, int] = {}
    for s in enumerate_row_strict(conjugate(shape), n):
        _add_tableau_columns(weights, _double_young_table, n, n, s, s)
    return _sum_columns(n, weights) / hook_number(shape)


def capelli_determinant(n: int) -> UglElement:
    """Column determinant of the matrix [e_ij + delta_ij (n-i)]:

        cdet(A) = sum_sigma (-1)^|sigma| a_{sigma(1),1} a_{sigma(2),2} ...

    with the column-1 factor leftmost, normalized to PBW form.  Expanded by
    row subsets, n 2^(n-1) products: from P({}) = 1, column k = |S| + 1 adds
    (-1)^#{s in S : s > i} P(S) a_{i,k} to P(S + {i}); cdet = P({1..n})."""
    layer = {0: UglElement.one(n)}  # P(S) by row subset: bit i is row i + 1
    entries = [
        [
            UglElement.generator(n, i, j)
            + (UglElement.scalar(n, n - i) if i == j else UglElement.zero(n))
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    for col in range(n):
        parts: dict[int, list[UglElement]] = {}
        for rows, minor in layer.items():
            for i in range(n):
                if not rows >> i & 1:
                    sign = -1 if (rows >> (i + 1)).bit_count() % 2 else 1
                    product = minor * entries[i][col] * sign
                    parts.setdefault(rows | 1 << i, []).append(product)
        layer = {rows: element_sum(n, terms) for rows, terms in parts.items()}
    return layer[(1 << n) - 1]


# -- the correspondence between C[M_{n,n}] and U(gl(n)) ----------------------


def koszul_inverse(p: MPoly) -> UglElement:
    """Linear map sending each degree-h monomial (i_1|j_1)...(i_h|j_h) to
    (-1)^C(h,2) [i_1...i_h | j_1...j_h]; sends (S|T) to [S|T]."""
    if p.n != p.d:
        raise ValueError("the correspondence needs square ambient n = d")
    # variables_of lists the pairs sorted, so a monomial is its column key
    weights: dict[ColumnKey, Fraction] = {}
    for exp, coeff in p.terms.items():
        pairs = tuple(p.variables_of(exp))
        weights[pairs] = coeff * column_sign(len(pairs))
    return _sum_columns(p.n, weights)


def young_capelli_basis(h: int, n: int) -> list[tuple[Tableau, Tableau]]:
    """Standard pairs indexing the Young-Capelli basis of filtration weight
    exactly h, in increasing straightening order."""
    return standard_pairs(h, n, n)


def standard_capelli_expansion(x: UglElement) -> StdExpansion:
    """Unique expansion of x over standard Young-Capelli elements [S|box T]
    of weight at most the filtration degree of x.

    Solved degree by degree from the top.  The length-k part of a weight-k
    element [S|box T] is the right symmetrized bitableau (S|box T) read with
    (i|j) -> e_ij, so the Gordan-Capelli coordinates of the length-k part of
    the residual are the degree-k coefficients; their elements are
    subtracted and the process repeats on the lower-degree remainder.
    """
    n = x.n
    terms: list[tuple[Tableau, Tableau, Fraction]] = []
    residual = x
    degree = residual.filtration_degree()
    while degree is not None:
        top = poly_sum(
            n,
            n,
            (
                MPoly.monomial(n, n, mono) * coeff
                for mono, coeff in residual.terms.items()
                if len(mono) == degree
            ),
        )
        found = [residual]
        for (s, t), coeff in gc_coordinates(top).items():
            terms.append((s, t, coeff))
            found.append(young_capelli(s, t, n) * -coeff)
        residual = element_sum(n, found)
        new_degree = residual.filtration_degree()
        if new_degree is not None and new_degree >= degree:
            raise ArithmeticError(
                f"residual degree did not drop below {degree}: basis bug"
            )
        degree = new_degree
    return StdExpansion(n, n, tuple(terms))


def koszul_map(x: UglElement) -> MPoly:
    """Forward correspondence K: expand x over standard Young-Capelli
    elements and replace each [S|box T] by the polynomial (S|box T)."""
    weights: dict[ColumnKey, Fraction] = {}
    for s, t, c in standard_capelli_expansion(x).terms:
        _add_tableau_columns(weights, _young_table, x.n, x.n, s, t, c)
    return _columns_polynomial(x.n, x.n, weights)
