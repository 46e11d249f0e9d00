"""The universal enveloping algebra U(gl(n)) in PBW normal form.

Elements are finite rational combinations of normal-ordered monomials in the
generators e_ij, where a monomial is a tuple of (i, j) pairs weakly
increasing in the lexicographic order on pairs.  Products are rewritten to
normal form with the commutation relation

    [e_ab, e_cd] = delta_bc e_ad - delta_da e_cb

applied to adjacent out-of-order factors until none remain.  Coefficients
follow the rule of ``capelli.terms`` (an ``int`` when integral, a
``Fraction`` otherwise), so the column recursion never leaves the integers.
Zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, Mapping

from .terms import Coeff, add_terms, check_generator, check_size, exact, parse_coeff
from .terms import read_monomial, read_terms, scale_terms, settle, signed_text

Generator = tuple[int, int]
Monomial = tuple[Generator, ...]


def _normalize(raw: Iterable[tuple[Monomial, Coeff]]) -> dict[Monomial, Coeff]:
    """Rewrite a bag of (monomial, coeff) pairs into the PBW term map.

    Worklist algorithm: each out-of-order adjacent pair e_ab e_cd is replaced
    by e_cd e_ab plus the (shorter) bracket terms, which are pushed back.
    Termination: every step either lowers the inversion count at fixed
    length or lowers the length.
    """
    normal: dict[Monomial, Coeff] = {}
    stack = [(mono, coeff) for mono, coeff in raw if coeff]
    while stack:
        mono, coeff = stack.pop()
        last = len(mono) - 1
        k = 0
        while k < last and mono[k] <= mono[k + 1]:
            k += 1
        if k >= last:
            # inline merge, not add_terms: this is the innermost PBW loop
            acc = normal.get(mono, 0) + coeff
            if acc:
                normal[mono] = acc
            else:
                normal.pop(mono, None)
            continue
        (a, b), (c, d) = mono[k], mono[k + 1]
        head, tail = mono[:k], mono[k + 2 :]
        stack.append((head + ((c, d), (a, b)) + tail, coeff))
        if b == c:
            stack.append((head + ((a, d),) + tail, coeff))
        if d == a:
            stack.append((head + ((c, b),) + tail, -coeff))
    return normal


def _term_sort_key(mono: Monomial) -> tuple[int, Monomial]:
    # Highest filtration degree first, then lexicographic on the generator
    # sequence; matches the order PBW expressions are conventionally written.
    return (-len(mono), mono)


class UglElement:
    """An immutable element of U(gl(n)), always in PBW normal form."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, Rational] | None = None):
        object.__setattr__(self, "n", check_size("n", n))
        raw = []
        for mono, coeff in (terms or {}).items():
            mono = tuple((i, j) for i, j in mono)
            for i, j in mono:
                check_generator(n, i, j)
            raw.append((mono, exact(coeff)))
        object.__setattr__(self, "terms", settle(_normalize(raw)))

    def __setattr__(self, name, value):
        raise AttributeError("UglElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "UglElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "UglElement":
        return cls(n, {(): 1})

    @classmethod
    def generator(cls, n: int, i: int, j: int) -> "UglElement":
        return cls(n, {((i, j),): 1})

    @classmethod
    def scalar(cls, n: int, value) -> "UglElement":
        return cls(n, {(): value})

    # -- ring structure ----------------------------------------------------

    def _check_ambient(self, other: "UglElement") -> None:
        if self.n != other.n:
            raise ValueError(f"ambient mismatch: n={self.n} vs n={other.n}")

    def __add__(self, other):
        if not isinstance(other, UglElement):
            return NotImplemented
        self._check_ambient(other)
        return self._wrap(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, UglElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._wrap({mono: -coeff for mono, coeff in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, UglElement):
            self._check_ambient(other)
            raw = [
                (ma + mb, ca * cb)
                for ma, ca in self.terms.items()
                for mb, cb in other.terms.items()
            ]
            return self._wrap(_normalize(raw))
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

    def _wrap(self, normal_terms: dict[Monomial, Coeff]) -> "UglElement":
        # Internal fast path: terms are already normalized and pruned; settled here.
        elem = object.__new__(UglElement)
        object.__setattr__(elem, "n", self.n)
        object.__setattr__(elem, "terms", settle(normal_terms))
        return elem

    def __eq__(self, other):
        if not isinstance(other, UglElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- structure queries -------------------------------------------------

    def filtration_degree(self) -> int | None:
        """Length of the longest monomial; None for the zero element."""
        if not self.terms:
            return None
        return max(map(len, self.terms))

    def degree_part(self, k: int) -> "UglElement":
        """The sum of terms whose monomials have length exactly k."""
        return self._wrap(
            {mono: coeff for mono, coeff in self.terms.items() if len(mono) == k}
        )

    def commutator(self, other: "UglElement") -> "UglElement":
        return self * other - other * self

    def is_central(self) -> bool:
        """True iff the element commutes with every generator e_ij.

        First the weight: ad(e_ii) scales a PBW monomial by the number of
        its left indices equal to i minus the number of its right indices
        equal to i, so self commutes with every e_ii iff each monomial has
        the same multiset of left and right indices.  Then only the n - 1
        raising generators e_{k,k+1} are tried.  The elements of gl(n) whose
        bracket with self vanishes form a Lie subalgebra (by the Jacobi
        identity), so killing the e_{k,k+1} is killing all of n+.  U(gl(n))
        under ad is locally finite and completely reducible (Dixmier,
        Enveloping Algebras): each filtration piece is a finite-dimensional
        sl(n)-module, and the centre of gl(n) acts by 0.  A weight-zero
        vector killed by n+ lies in the trivial isotypic part, so it is
        killed by every e_ij.  At n = 1 every element is central.
        """
        for mono in self.terms:
            if sorted([i for i, _ in mono]) != sorted([j for _, j in mono]):
                return False
        return all(not ad(k, k + 1, self) for k in range(1, self.n))

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        return sorted(self.terms.items(), key=lambda item: _term_sort_key(item[0]))

    # -- rendering and serialization ----------------------------------------

    def text(self) -> str:
        """Human-readable form, e.g. "−e[1,2]e[2,1] + e[1,1]".

        Terms appear by decreasing filtration degree, ties broken
        lexicographically on the generator sequence.  Unit coefficients are
        suppressed; signs are folded into the separators (U+2212 minus).
        """
        return signed_text(
            ("".join(f"e[{i},{j}]" for i, j in mono), coeff)
            for mono, coeff in self.sorted_terms()
        )

    def to_json(self) -> list[dict]:
        return [
            {"coeff": str(coeff), "monomial": [[i, j] for i, j in mono]}
            for mono, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, data: list[dict], n: int) -> "UglElement":
        """The element of a list of {"coeff", "monomial"} terms; a ValueError
        naming the term's index for anything else."""
        def term(entry) -> "UglElement":
            mono = tuple(read_monomial(entry["monomial"], "generator", ("i", "j")))
            return cls(n, {mono: parse_coeff(entry["coeff"])})

        # one checked element per entry, so a term that cancels is still checked
        return element_sum(n, read_terms(data, ("monomial",), term))

    def __repr__(self) -> str:
        return f"UglElement(n={self.n}, {self.text()})"


def ad(i: int, j: int, x: UglElement) -> UglElement:
    """Adjoint action of the generator e_ij: e_ij·x − x·e_ij.

    By the derivation rule [e_ij, g_1...g_L] = sum_k g_1...[e_ij, g_k]...g_L
    with [e_ij, e_ab] = delta_ja e_ib − delta_bi e_aj, normalized once, so the
    top-degree parts of e_ij·x and x·e_ij, which cancel, are never built.
    """
    check_generator(x.n, i, j)
    raw = []
    for mono, coeff in x.terms.items():
        for k, (a, b) in enumerate(mono):
            if a == j:
                raw.append((mono[:k] + ((i, b),) + mono[k + 1 :], coeff))
            if b == i:
                raw.append((mono[:k] + ((a, j),) + mono[k + 1 :], -coeff))
    return x._wrap(_normalize(raw))


def element_sum(n: int, elements: Iterator[UglElement] | Iterable[UglElement]) -> UglElement:
    """Exact sum of many elements without quadratic re-merging.

    A sum of PBW term maps is a PBW term map, so the result is not
    normalized again.
    """
    acc: dict[Monomial, Coeff] = {}
    for elem in elements:
        if elem.n != n:
            raise ValueError(f"ambient mismatch: n={n} vs n={elem.n}")
        add_terms(acc, elem.terms.items())
    return UglElement.zero(n)._wrap(acc)
