"""The polynomial algebra C[M_{n,d}] and the polarization action of U(gl(n)).

Variables are (i|phi) for a row index i in 1..n and a place index phi in
1..d; a monomial is a dense exponent vector of length n*d with variable
(i|phi) at slot (i-1)*d + (phi-1).  On top of plain arithmetic the module
provides biproducts (signed minors), bitableaux, right symmetrized
bitableaux, immanants, straightening into the standard bitableau basis, and
the polarization operators that realize U(gl(n)) as differential operators —
the independent model every enveloping-algebra construction is checked
against.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from numbers import Rational
from typing import Iterable, Mapping, Sequence

from .characters import character, dim_irrep
from .tableaux import (
    Tableau,
    check_partition,
    conjugate,
    enumerate_standard,
    partitions_of,
    permutation_sign,
)
from .terms import Coeff, add_terms, check_generator, check_size, exact, parse_coeff
from .terms import read_monomial, read_terms, scale_terms, settle, signed_text

ExpVec = tuple[int, ...]


def _check_variable(n: int, d: int, i, phi) -> None:
    """A variable (i|phi) of C[M_{n,d}]: ints (not bools), i in 1..n, phi in 1..d."""
    if not (type(i) is type(phi) is int and 1 <= i <= n and 1 <= phi <= d):
        raise ValueError(f"variable ({i}|{phi}) out of range for ({n},{d})")


class MPoly:
    """A polynomial in the variables (i|phi) with exact rational coefficients."""

    __slots__ = ("n", "d", "terms")

    def __init__(self, n: int, d: int, terms: Mapping[ExpVec, Rational] | None = None):
        object.__setattr__(self, "n", check_size("n", n))
        object.__setattr__(self, "d", check_size("d", d))
        size = n * d
        raw = []
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != size or any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for n*d={size}")
            raw.append((exp, exact(coeff)))
        object.__setattr__(self, "terms", settle(add_terms({}, raw)))

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, d: int) -> "MPoly":
        return cls(n, d)

    @classmethod
    def one(cls, n: int, d: int) -> "MPoly":
        exp = (0,) * (n * d)
        return cls(n, d, {exp: 1})

    @classmethod
    def variable(cls, n: int, d: int, i: int, phi: int) -> "MPoly":
        return cls.monomial(n, d, ((i, phi),))

    @classmethod
    def monomial(cls, n: int, d: int, pairs: Iterable[tuple[int, int]]) -> "MPoly":
        """The product of the variables (i|phi) over the given pairs."""
        exp = [0] * (n * d)
        for i, phi in pairs:
            _check_variable(n, d, i, phi)
            exp[(i - 1) * d + (phi - 1)] += 1
        return cls(n, d, {tuple(exp): 1})

    def _wrap(self, terms: dict[ExpVec, Coeff]) -> "MPoly":
        # Internal fast path: terms are already merged and pruned; settled here.
        poly = object.__new__(MPoly)
        object.__setattr__(poly, "n", self.n)
        object.__setattr__(poly, "d", self.d)
        object.__setattr__(poly, "terms", settle(terms))
        return poly

    # -- arithmetic --------------------------------------------------------

    def _check_ambient(self, other: "MPoly") -> None:
        if self.n != other.n or self.d != other.d:
            raise ValueError(
                f"ambient mismatch: ({self.n},{self.d}) vs ({other.n},{other.d})"
            )

    def __add__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_ambient(other)
        return self._wrap(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._wrap({exp: -coeff for exp, coeff in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MPoly):
            self._check_ambient(other)
            out = add_terms(
                {},
                (
                    (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
                    for ea, ca in self.terms.items()
                    for eb, cb in other.terms.items()
                ),
            )
            return self._wrap(out)
        if isinstance(other, Rational):
            return self._wrap(scale_terms(self.terms, other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, Rational):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.n, self.d, self.terms) == (other.n, other.d, other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash((self.n, self.d, frozenset(self.terms.items())))

    # -- calculus and structure --------------------------------------------

    def diff(self, i: int, phi: int) -> "MPoly":
        """Partial derivative with respect to the variable (i|phi)."""
        _check_variable(self.n, self.d, i, phi)
        idx = (i - 1) * self.d + (phi - 1)
        out: dict[ExpVec, Coeff] = {}
        # inline merge, not add_terms: the differential operators' innermost loop
        for exp, coeff in self.terms.items():
            e = exp[idx]
            if e:
                key = exp[:idx] + (e - 1,) + exp[idx + 1 :]
                acc = out.get(key, 0) + coeff * e
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return self._wrap(out)

    def total_degree(self) -> int | None:
        """Maximum monomial degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(exp) for exp in self.terms)

    def is_homogeneous(self) -> bool:
        return len({sum(exp) for exp in self.terms}) <= 1

    def degree_part(self, k: int) -> "MPoly":
        return self._wrap(
            {exp: coeff for exp, coeff in self.terms.items() if sum(exp) == k}
        )

    def row_degrees(self, exp: ExpVec) -> tuple[int, ...]:
        """Degree in each letter row 1..n of one exponent vector."""
        d = self.d
        return tuple(sum(exp[(i - 1) * d : i * d]) for i in range(1, self.n + 1))

    def col_degrees(self, exp: ExpVec) -> tuple[int, ...]:
        """Degree in each place column 1..d of one exponent vector."""
        d = self.d
        return tuple(sum(exp[phi - 1 :: d]) for phi in range(1, d + 1))

    def variables_of(self, exp: ExpVec) -> list[tuple[int, int]]:
        """The (i|phi) pairs of one exponent vector, with multiplicity."""
        d = self.d
        pairs = []
        for idx, e in enumerate(exp):
            if e:
                pairs.extend([(idx // d + 1, idx % d + 1)] * e)
        return pairs

    def sorted_terms(self) -> list[tuple[ExpVec, Coeff]]:
        # degree down, then the repeated-index word of the variables up: at one
        # degree, the first slot where two exponent vectors differ decides both
        return sorted(
            self.terms.items(), key=lambda item: (-sum(item[0]), [-e for e in item[0]])
        )

    # -- rendering and serialization ----------------------------------------

    def text(self) -> str:
        """Readable form like "x[1,1]x[2,2] − x[1,2]x[2,1]"; same term order
        and sign conventions as UglElement.text()."""
        d = self.d
        return signed_text(
            (
                "".join(
                    f"x[{idx // d + 1},{idx % d + 1}]" + (f"^{e}" if e > 1 else "")
                    for idx, e in enumerate(exp)
                    if e
                ),
                coeff,
            )
            for exp, coeff in self.sorted_terms()
        )

    def to_json(self) -> list[dict]:
        d = self.d
        out = []
        for exp, coeff in self.sorted_terms():
            mono = [
                [idx // d + 1, idx % d + 1, e] for idx, e in enumerate(exp) if e
            ]
            out.append({"coeff": str(coeff), "monomial": mono})
        return out

    @classmethod
    def from_json(cls, data: list[dict], n: int, d: int) -> "MPoly":
        def term(entry) -> "MPoly":
            exp = [0] * (n * d)
            variables = read_monomial(entry["monomial"], "variable", ("i", "phi", "e"))
            for i, phi, e in variables:
                _check_variable(n, d, i, phi)
                exp[(i - 1) * d + (phi - 1)] += e
            return cls(n, d, {tuple(exp): parse_coeff(entry["coeff"])})

        # one checked polynomial per entry, so a term that cancels is still checked
        return poly_sum(n, d, read_terms(data, ("monomial",), term))

    def __repr__(self) -> str:
        return f"MPoly(n={self.n}, d={self.d}, {self.text()})"


def poly_sum(n: int, d: int, polys: Iterable[MPoly]) -> MPoly:
    """Exact sum of many polynomials without quadratic re-merging."""
    acc: dict[ExpVec, Coeff] = {}
    for p in polys:
        if p.n != n or p.d != d:
            raise ValueError(f"ambient mismatch: ({n},{d}) vs ({p.n},{p.d})")
        add_terms(acc, p.terms.items())
    return MPoly.zero(n, d)._wrap(acc)


# -- bideterminants and bitableaux ------------------------------------------


def _check_words(n: int, d: int, lefts: Sequence[int], rights: Sequence[int]) -> None:
    # plain loops, not any(genexpr): this runs once per oracle call
    for i in lefts:
        if type(i) is not int or not 1 <= i <= n:
            raise ValueError(f"left word {tuple(lefts)} out of range 1..{n}")
    for j in rights:
        if type(j) is not int or not 1 <= j <= d:
            raise ValueError(f"right word {tuple(rights)} out of range 1..{d}")


def _check_column(n, d, lefts, rights) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The words of a column [i_1...i_h | j_1...j_h] or (i_1...i_h | j_1...j_h)
    as tuples, checked to have one length and to lie in 1..n and 1..d."""
    lefts, rights = tuple(lefts), tuple(rights)
    if len(lefts) != len(rights):
        raise ValueError(f"column words {lefts} and {rights} differ in length")
    _check_words(n, d, lefts, rights)
    return lefts, rights


def biproduct(n: int, d: int, letters: Sequence[int], places: Sequence[int]) -> MPoly:
    """The signed minor (-1)^C(p,2) det[(letters_r | places_s)].

    Zero when the words have different lengths.
    """
    letters, places = tuple(letters), tuple(places)
    _check_words(n, d, letters, places)
    if len(letters) != len(places):
        return MPoly.zero(n, d)
    p = len(letters)
    sign = column_sign(p)
    terms = []
    for perm in itertools.permutations(range(p)):
        exp = [0] * (n * d)
        for s in range(p):
            exp[(letters[perm[s]] - 1) * d + (places[s] - 1)] += 1
        terms.append((tuple(exp), sign * permutation_sign(perm)))
    return MPoly.zero(n, d)._wrap(add_terms({}, terms))


def column_monomial(n: int, d: int, lefts: Sequence[int], rights: Sequence[int]) -> MPoly:
    """The plain product (i_1|j_1)...(i_h|j_h)."""
    lefts, rights = _check_column(n, d, lefts, rights)
    return MPoly.monomial(n, d, zip(lefts, rights))


def column_sign(h: int) -> int:
    return -1 if comb(h, 2) % 2 else 1


def column_bitableau(n: int, d: int, lefts: Sequence[int], rights: Sequence[int]) -> MPoly:
    """Depth-h column bitableau: (-1)^C(h,2) (i_1|j_1)...(i_h|j_h)."""
    return column_monomial(n, d, lefts, rights) * column_sign(len(lefts))


def expand_into_columns(
    left: Tableau, right: Tableau
) -> list[tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Expansion of a bitableau into full-depth column pairs.

    One term per row permutation alpha of _bitableau_table, with weight
    sgn alpha; the cells are read column by column, top to bottom.  The
    table is bitableau's own, so summing sign * column_bitableau over the
    result gives bitableau(left, right) by construction.
    """
    if left.shape != right.shape:
        return []
    _, cols = _row_major_blocks(left.shape)
    cells = [k for col in cols for k in col]
    lword, rword = left.word(), right.word()
    rights = tuple(rword[k] for k in cells)
    return [
        (sign, (tuple(lword[alpha[k]] for k in cells), rights))
        for alpha, sign in _bitableau_table(left.shape).items()
    ]


# -- column maps: each family merges its columns into row-sorted key -> weight;
# _columns_polynomial realizes a map here, elements._sum_columns in U(gl(n)).
# A family is a group-algebra table {pi: w} adding w * (lefts o pi | rights): pi
# permutes the cells 0..h-1 in row-major order, R and C are the row and column
# groups of that filling, and a product xy of permutations is x after y.

ColumnKey = tuple[tuple[int, int], ...]
Table = dict[tuple[int, ...], int]


def _add_columns(weights: dict, table: Table, lefts, rights, coeff=1) -> dict:
    """Add w * coeff at the column key of (lefts o pi | rights) for each
    pi -> w of the table, keeping a key whose weight cancels; returns weights.

    The key depends on pi only through the word lefts o pi, so the weights
    are summed per word first and each distinct word is sorted once.
    """
    by_word: dict[tuple[int, ...], int] = {}
    for pi, w in table.items():
        word = tuple([lefts[k] for k in pi])
        by_word[word] = by_word.get(word, 0) + w
    for word, w in by_word.items():
        key = tuple(sorted(zip(word, rights)))
        weights[key] = weights.get(key, 0) + w * coeff
    return weights


def _add_tableau_columns(
    weights: dict, table_fn, n: int, d: int, left: Tableau, right: Tableau, coeff=1
) -> dict:
    """Add coeff times the table_fn(shape) family of (left|right), nothing when
    the shapes differ; the words are checked against 1..n and 1..d first.
    Returns weights."""
    lword, rword = left.word(), right.word()
    _check_words(n, d, lword, rword)
    if left.shape == right.shape:
        _add_columns(weights, table_fn(left.shape), lword, rword, coeff)
    return weights


def _immanant_columns(shape, n: int, d: int, lefts, rights) -> dict:
    """The immanant's column map sum_sigma chi_shape(sigma) (lefts o sigma |
    rights), after checking the shape, the words and their length |shape|."""
    shape = check_partition(shape)
    h = sum(shape)
    lefts, rights = _check_column(n, d, lefts, rights)
    if len(lefts) != h:
        raise ValueError(f"index words must have length {h}")
    return _add_columns({}, _character_support(shape), lefts, rights)


def _row_major_blocks(shape: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Row and column blocks of cell positions 0..h-1 under row-major filling."""
    rows, offset = [], 0
    for k in shape:
        rows.append(list(range(offset, offset + k)))
        offset += k
    cols = [
        [rows[r][c] for r, k in enumerate(shape) if c < k]
        for c in range(shape[0] if shape else 0)
    ]
    return rows, cols


def _block_permutations(blocks: list[list[int]], h: int):
    """All permutations of 0..h-1 preserving each block, as image tuples."""
    for images in itertools.product(
        *(itertools.permutations(block) for block in blocks)
    ):
        g = list(range(h))
        for block, image in zip(blocks, images):
            for src, dst in zip(block, image):
                g[src] = dst
        yield tuple(g)


@functools.cache
def _bitableau_table(shape: tuple[int, ...]) -> Table:
    """(S|T): the signed row sum A = {alpha: sgn alpha} over R."""
    rows, _ = _row_major_blocks(shape)
    alphas = _block_permutations(rows, sum(shape))
    return {alpha: permutation_sign(alpha) for alpha in alphas}


@functools.cache
def _young_table(shape: tuple[int, ...]) -> Table:
    """(S|box T): the Young symmetrizer AC = {alpha beta: sgn alpha} over R x C;
    R and C meet only in the identity, so no two products coincide."""
    _, cols = _row_major_blocks(shape)
    betas = list(_block_permutations(cols, sum(shape)))
    return {
        tuple(alpha[k] for k in beta): sign
        for alpha, sign in _bitableau_table(shape).items()
        for beta in betas
    }


@functools.cache
def _double_young_table(shape: tuple[int, ...]) -> Table:
    """[box S|T]: (-1)^C(h,2) ACA, merged and without zero weights."""
    sign = column_sign(sum(shape))
    table: Table = {}
    for y, wy in _young_table(shape).items():
        for alpha, wa in _bitableau_table(shape).items():
            key = tuple(y[k] for k in alpha)
            table[key] = table.get(key, 0) + sign * wy * wa
    return {pi: w for pi, w in table.items() if w}


@functools.cache
def _character_support(shape: tuple[int, ...]) -> Table:
    """The immanant's table {sigma: chi_shape(sigma)} where chi is nonzero."""
    support = {}
    for sigma in itertools.permutations(range(sum(shape))):
        chi = character(shape, sigma)
        if chi:
            support[sigma] = chi
    return support


def _columns_polynomial(n: int, d: int, weights: dict[ColumnKey, Rational]) -> MPoly:
    """Sum of weight * column_bitableau over a merged column map.  Every key,
    even one whose weight cancelled to 0, is range-checked by MPoly.monomial."""
    columns = (
        MPoly.monomial(n, d, key) * (w * column_sign(len(key)))
        for key, w in weights.items()
    )
    return poly_sum(n, d, columns)


def bitableau(n: int, d: int, left: Tableau, right: Tableau) -> MPoly:
    """(S|T): the signed row sum of column bitableaux; zero when the shapes
    differ."""
    weights = _add_tableau_columns({}, _bitableau_table, n, d, left, right)
    return _columns_polynomial(n, d, weights)


def right_symmetrized(n: int, d: int, left: Tableau, right: Tableau) -> MPoly:
    """Sum of bitableau(left, rbar) over all column permutations rbar of right,
    counted with multiplicity."""
    weights = _add_tableau_columns({}, _young_table, n, d, left, right)
    return _columns_polynomial(n, d, weights)


def right_symmetrized_via_symmetrizer(
    n: int, d: int, left: Tableau, right: Tableau
) -> MPoly:
    """Oracle: checks right_symmetrized by the Young symmetrizer route.

    Both tableaux are written as specializations of the row-major filling D
    with 1..h; the symmetrizer sum over the row group of D (signed) and the
    column group of D (unsigned) is applied to the left-entry positions of
    the full-depth column pair, the right entries staying put.
    """
    if left.shape != right.shape:
        return MPoly.zero(n, d)
    shape = left.shape
    h = sum(shape)
    if h == 0:
        return MPoly.one(n, d)
    rows, cols = _row_major_blocks(shape)
    lword, rword = left.word(), right.word()
    terms = []
    for sigma in _block_permutations(rows, h):
        sign = permutation_sign(sigma)
        for tau in _block_permutations(cols, h):
            lefts = tuple(lword[sigma[tau[k]]] for k in range(h))
            terms.append(column_bitableau(n, d, lefts, rword) * sign)
    return poly_sum(n, d, terms)


# -- immanants ---------------------------------------------------------------


def immanant(
    n: int, d: int, shape: Sequence[int], lefts: Sequence[int], rights: Sequence[int]
) -> MPoly:
    """Character-weighted sum of column bitableaux over left permutations."""
    return _columns_polynomial(n, d, _immanant_columns(shape, n, d, lefts, rights))


def imm_operator(shape: Sequence[int], p: MPoly) -> MPoly:
    """Linear extension of column_bitableau -> immanant over p's monomials."""
    shape = check_partition(shape)
    h = sum(shape)
    if not p.is_homogeneous() or (p and p.total_degree() != h):
        raise ValueError(f"input must be homogeneous of degree {h}")
    support = _character_support(shape)
    sign = column_sign(h)
    weights: dict[ColumnKey, Coeff] = {}
    for exp, coeff in p.terms.items():
        pairs = p.variables_of(exp)
        lefts = tuple(i for i, _ in pairs)
        rights = tuple(phi for _, phi in pairs)
        _add_columns(weights, support, lefts, rights, coeff * sign)
    return _columns_polynomial(p.n, p.d, weights)


# -- exact linear algebra -----------------------------------------------------


def _reduce(work: list[list[Fraction]], ncols: int) -> list[int]:
    """Fraction-exact Gauss-Jordan elimination on the first ncols columns of
    work, in place; any further columns (a right-hand side) ride along.

    Returns the pivot columns: row r of the result has a 1 in column
    pivots[r] and zeros above and below it, and the rows past the last
    pivot are zero on the first ncols columns.
    """
    m = len(work)
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == m:
            break
        pivot = next((r for r in range(row, m) if work[r][col]), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = Fraction(1) / work[row][col]
        work[row] = [v * inv for v in work[row]]
        for r in range(m):
            if r != row and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[row])]
        pivots.append(col)
    return pivots


def rank_exact(matrix: list[list[Fraction]]) -> int:
    """Rank of a rational matrix by fraction-exact Gaussian elimination."""
    if not matrix:
        return 0
    return len(_reduce([row[:] for row in matrix], len(matrix[0])))


def solve_exact(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Solve A x = b exactly; A is m x k with full column rank.

    Returns None when the system is inconsistent; raises ArithmeticError when
    the columns are dependent (callers treat that as an internal basis bug).
    """
    m = len(matrix)
    k = len(matrix[0]) if m else 0
    work = [matrix[r][:] + [rhs[r]] for r in range(m)]
    if len(_reduce(work, k)) < k:
        raise ArithmeticError("column-deficient system: basis enumeration bug")
    if any(work[r][k] for r in range(k, m)):
        return None
    return [work[r][k] for r in range(k)]


# -- the standard basis and straightening ------------------------------------


def straight_key(left: Tableau, right: Tableau):
    """Sort key realizing the straightening order on same-weight pairs.

    Pairs compare first by shape (lexicographically), then by the
    concatenated row words compared reverse-lexicographically: a pair is
    larger when its word is lexicographically smaller.
    """
    word = left.word() + right.word()
    return (left.shape, tuple(-x for x in word))


def standard_pairs(h: int, n: int, d: int) -> list[tuple[Tableau, Tableau]]:
    """All standard bitableau pairs of weight h, left over 1..n, right over
    1..d, listed in increasing straightening order."""
    pairs = []
    for shape in partitions_of(h):
        lefts = enumerate_standard(shape, n)
        rights = lefts if d == n else enumerate_standard(shape, d)
        pairs.extend(itertools.product(lefts, rights))
    pairs.sort(key=lambda st: straight_key(*st))
    return pairs


@dataclass(frozen=True)
class StdExpansion:
    """Rational combination of standard bitableau pairs, merged by pair and sorted."""

    n: int
    d: int
    terms: tuple[tuple[Tableau, Tableau, Coeff], ...]

    def __post_init__(self):
        check_size("n", self.n)
        check_size("d", self.d)
        terms = tuple(self.terms)  # read once: the terms may be an iterator
        for s, t, _ in terms:
            if s.shape != t.shape:
                raise ValueError(f"({s.compact()}|{t.compact()}): shapes differ")
            _check_words(self.n, self.d, s.word(), t.word())
        merged = settle(add_terms({}, (((s, t), exact(c)) for s, t, c in terms)))
        ordered = sorted(merged.items(), key=lambda item: straight_key(*item[0]))
        object.__setattr__(self, "terms", tuple((s, t, c) for (s, t), c in ordered))

    def coefficient(self, left: Tableau, right: Tableau) -> Coeff:
        for s, t, c in self.terms:
            if s == left and t == right:
                return c
        return 0

    def shapes(self) -> set[tuple[int, ...]]:
        return {s.shape for s, _, _ in self.terms}

    def to_polynomial(self) -> MPoly:
        return poly_sum(
            self.n,
            self.d,
            (bitableau(self.n, self.d, s, t) * c for s, t, c in self.terms),
        )

    def to_json(self) -> list[dict]:
        return [
            {"left": s.to_json(), "right": t.to_json(), "coeff": str(c)}
            for s, t, c in self.terms
        ]

    @classmethod
    def from_json(cls, data: list[dict], n: int, d: int) -> "StdExpansion":
        def term(entry) -> tuple[tuple[Tableau, Tableau, Coeff], ...]:
            left, right = (Tableau.from_json(entry[key]) for key in ("left", "right"))
            return cls(n, d, ((left, right, parse_coeff(entry["coeff"])),)).terms

        # one checked expansion per entry, so a term that cancels is still checked
        entries = read_terms(data, ("left", "right"), term)
        return cls(n, d, tuple(itertools.chain.from_iterable(entries)))

    def text(self) -> str:
        return signed_text(
            (f"({s.compact()}|{t.compact()})", c) for s, t, c in self.terms
        )


Content = tuple[tuple[int, ...], tuple[int, ...]]

# (build, n, d, content) -> the standard pairs of that content, the sorted
# monomials of their polynomials build(n, d, S, T) and the matrix of their
# coefficients
_block_memo: dict[tuple, tuple] = {}


def _content_pairs(n: int, d: int, content: Content) -> list[tuple[Tableau, Tableau]]:
    """The standard pairs (S|T) of the block (content(S), content(T)) = content."""
    rows, cols = content
    pairs = []
    for shape in partitions_of(sum(rows)):
        lefts = enumerate_standard(shape, n, rows)
        if (n, rows) == (d, cols):
            rights = lefts
        else:
            rights = enumerate_standard(shape, d, cols)
        pairs.extend(itertools.product(lefts, rights))
    return pairs


def _family_block(build, n: int, d: int, content: Content) -> tuple:
    key = (build, n, d, content)
    block = _block_memo.get(key)
    if block is None:
        pairs = _content_pairs(n, d, content)
        polys = [build(n, d, s, t) for s, t in pairs]
        monomials = sorted({exp for poly in polys for exp in poly.terms})
        matrix = [
            [poly.terms.get(exp, 0) for poly in polys] for exp in monomials
        ]
        block = _block_memo[key] = (pairs, monomials, matrix)
    return block


def _solve_against_family(p: MPoly, build) -> dict[tuple[Tableau, Tableau], Fraction]:
    """Expand a homogeneous p over the polynomials build(n, d, S, T) of the
    standard pairs, solving one exact system per (row content, column
    content) block.

    build(n, d, S, T) has row content content(S) and column content
    content(T), so only the blocks p meets are solved; each block is built
    once per process and reused by later calls.
    """
    targets: dict[Content, dict[ExpVec, Coeff]] = {}
    for exp, coeff in p.terms.items():
        key = (p.row_degrees(exp), p.col_degrees(exp))
        targets.setdefault(key, {})[exp] = coeff
    result: dict[tuple[Tableau, Tableau], Fraction] = {}
    for key, target in targets.items():
        pairs, monomials, matrix = _family_block(build, p.n, p.d, key)
        rhs = [target.pop(exp, 0) for exp in monomials]
        # a monomial left in target occurs in no polynomial of the block
        solution = None if target else solve_exact(matrix, rhs)
        if solution is None:
            raise ArithmeticError(
                f"inconsistent system for content {key}: basis enumeration bug"
            )
        for st, coeff in zip(pairs, solution):
            if coeff:
                result[st] = coeff
    return result


def straighten(p: MPoly) -> StdExpansion:
    """Unique expansion of a homogeneous polynomial over standard bitableaux."""
    if not p.is_homogeneous():
        raise ValueError("straighten requires a homogeneous polynomial")
    coeffs = _solve_against_family(p, bitableau)
    return StdExpansion(
        p.n, p.d, tuple((s, t, c) for (s, t), c in coeffs.items())
    )


def gc_coordinates(p: MPoly) -> dict[tuple[Tableau, Tableau], Fraction]:
    """Coordinates of a homogeneous polynomial in the basis of standard right
    symmetrized bitableaux (the Gordan-Capelli basis)."""
    if not p.is_homogeneous():
        raise ValueError("gc_coordinates requires a homogeneous polynomial")
    return _solve_against_family(p, right_symmetrized)


# -- polarization: the differential-operator model of U(gl(n)) ---------------


def _shift(terms: dict[ExpVec, Coeff], src: int, dst: int, d: int) -> dict[ExpVec, Coeff]:
    """The exponent shift of act_generator on a raw term map, unsettled: from
    slot src + phi to slot dst + phi, for phi in 0..d-1."""
    out: dict[ExpVec, Coeff] = {}
    # inline merge, not add_terms: the polarization action's innermost loop
    for exp, coeff in terms.items():
        for phi in range(d):
            a = exp[src + phi]
            if a:
                shifted = list(exp)
                shifted[src + phi] = a - 1
                shifted[dst + phi] += 1
                key = tuple(shifted)
                acc = out.get(key, 0) + coeff * a
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return out


def act_generator(i: int, j: int, p: MPoly) -> MPoly:
    """Polarization e_ij = sum_phi (i|phi) d/d(j|phi), as one exponent shift:
    each term moves one unit from (j|phi) to (i|phi) for every phi with
    a = exp[(j|phi)] > 0, weighted by a.  For i = j every monomial stays in
    place, weighted by its row-j degree (the Euler operator).  Shares no code
    with MPoly.diff, which the oracles below use."""
    check_generator(p.n, i, j)
    d = p.d
    return p._wrap(_shift(p.terms, (j - 1) * d, (i - 1) * d, d))


def act_ugl(x, p: MPoly) -> MPoly:
    """Action of a PBW element: each monomial acts with its rightmost
    generator first, weighted by its coefficient; a monomial stops at the
    first generator that sends its image to 0.  The generators shift raw term
    maps, each image is merged into the sum inline, and only the sum is
    wrapped."""
    if x.n != p.n:
        raise ValueError(f"ambient mismatch: n={x.n} vs n={p.n}")
    d = p.d
    out: dict[ExpVec, Coeff] = {}
    for mono, coeff in x.terms.items():
        q = p.terms
        for i, j in reversed(mono):
            q = _shift(q, (j - 1) * d, (i - 1) * d, d)
            if not q:
                break
        # inline merge, not add_terms: one merge per PBW monomial and probe
        for exp, c in q.items():
            acc = out.get(exp, 0) + c * coeff
            if acc:
                out[exp] = acc
            else:
                del out[exp]
    return p._wrap(out)


def _place_derivatives(
    p: MPoly, rows: tuple[int, ...]
) -> list[tuple[tuple[int, ...], MPoly]]:
    """Oracle helper: (phibar, d/d(rows_1|phi_1)...d/d(rows_h|phi_h) p) for
    every place word phibar whose derivative is nonzero, in lexicographic
    order.  Level by level: one scan of each current derivative's terms
    collects the live places phi_k, those where some term has a positive
    exponent at (rows_k|phi_k), and only they are tried, in increasing
    order; elsewhere the derivative, and every one below it, is 0.  The
    rows must be in 1..n."""
    d = p.d
    level = [((), p)]
    for row in rows:
        base = (row - 1) * d
        deeper = []
        for places, q in level:
            live = set()
            for exp in q.terms:
                for phi in range(d):
                    if exp[base + phi]:
                        live.add(phi)
            for phi in sorted(live):
                deeper.append((places + (phi + 1,), q.diff(row, phi + 1)))
        level = deeper
    return level


def _add_placed(
    out: dict[ExpVec, Coeff],
    letters: Sequence[int],
    places: Sequence[int],
    q: MPoly,
    coeff: Coeff,
) -> None:
    """Oracle helper: add coeff (letters_1|places_1)...(letters_h|places_h) q
    into the term map out, by adding the place word's exponent vector to
    each term of q and merging inline."""
    d = q.d
    slots = [(i - 1) * d + phi - 1 for i, phi in zip(letters, places)]
    for exp, c in q.terms.items():
        key = list(exp)
        for slot in slots:
            key[slot] += 1
        key = tuple(key)
        acc = out.get(key, 0) + c * coeff
        if acc:
            out[key] = acc
        else:
            del out[key]


def act_column_capelli_diff(
    lefts: Sequence[int], rights: Sequence[int], p: MPoly
) -> MPoly:
    """Oracle: checks column_capelli (via act_ugl) by one differential operator:

        (-1)^C(h,2) sum_phibar (i_1|phi_1)...(i_h|phi_h)
                              d/d(j_1|phi_1) ... d/d(j_h|phi_h)

    with all differentiations applied before the multiplications, over the
    place words whose derivative is nonzero.  Built from MPoly.diff and
    exponent-vector additions only, never from the polarization kernel.
    """
    lefts, rights = _check_column(p.n, p.n, lefts, rights)
    sign = column_sign(len(lefts))
    out: dict[ExpVec, Coeff] = {}
    for phibar, q in _place_derivatives(p, rights):
        _add_placed(out, lefts, phibar, q, sign)
    return p._wrap(out)


def act_higher_capelli(shape: Sequence[int], p: MPoly) -> MPoly:
    """Oracle: checks quantum_immanant (via act_ugl) by its differential operator:

        (1/dim) sum_ibar sum_sigma chi(sigma) sum_phibar
            (i_1|phi_1)...(i_h|phi_h) d/d(i_sigma(1)|phi_1)...d/d(i_sigma(h)|phi_h)

    where chi is the package-convention character of the conjugate shape and
    dim is the dimension of the irreducible of the given shape.  The place
    words run over those whose derivative is nonzero.  Built from MPoly.diff
    and exponent-vector additions only, never from the polarization kernel.
    """
    shape = check_partition(shape)
    h = sum(shape)
    conj = conjugate(shape)
    n = p.n
    out: dict[ExpVec, Coeff] = {}
    for sigma in itertools.permutations(range(h)):
        chi = character(conj, sigma)
        if not chi:
            continue
        for ibar in itertools.product(range(1, n + 1), repeat=h):
            rows = tuple(ibar[sigma[k]] for k in range(h))
            for phibar, q in _place_derivatives(p, rows):
                _add_placed(out, ibar, phibar, q, chi)
    return p._wrap(scale_terms(out, Fraction(1, dim_irrep(shape))))
