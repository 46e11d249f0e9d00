"""Sparse exact term maps, the representation shared by every algebra here.

A U(gl(n)) element, a polynomial in C[M_{n,d}] and a standard expansion are
each a map from basis items (PBW monomials, exponent vectors, standard
pairs) to nonzero coefficients: an ``int`` when integral, a ``Fraction``
otherwise (the two compare and hash alike).  This module holds what the
three have in common: that rule, merging and scaling terms, rendering with
folded signs, writing and reading JSON term lists and checking sizes and generators.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as quote
from numbers import Rational
from typing import Callable, Hashable, Iterable

Coeff = int | Fraction


def exact(value: Rational) -> Coeff:
    """The coefficient as an int when integral, as a Fraction otherwise."""
    if type(value) is int:
        return value
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def settle(terms: dict) -> dict:
    """Store the integral Fraction coefficients of a term map as ints, in place;
    only the constructors of UglElement, MPoly and StdExpansion run it."""
    for key, coeff in terms.items():
        if type(coeff) is not int and coeff.denominator == 1:
            terms[key] = coeff.numerator
    return terms


def scale_terms(terms: dict, factor: Rational) -> dict:
    """The term map times a rational factor, unsettled; by 1 it is the map
    itself (term maps are never mutated once built)."""
    q = exact(factor)
    if not q:
        return {}
    if q == 1:
        return terms
    return {key: coeff * q for key, coeff in terms.items()}


def add_terms(acc: dict, items: Iterable[tuple[Hashable, Rational]]) -> dict:
    """Add each (key, coeff) pair into acc in place, dropping every key whose
    sum becomes zero; returns acc."""
    for key, coeff in items:
        total = acc.get(key, 0) + coeff
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)
    return acc


def signed_text(pairs: Iterable[tuple[str, Rational]]) -> str:
    """Render (body, coeff) pairs as "body − 2 · body + 3", or "0" if empty.

    Unit coefficients are suppressed, an empty body is a constant term, and
    signs are folded into the separators (U+2212 minus).
    """
    pieces = []
    for body, coeff in pairs:
        mag = abs(coeff)
        if not body:
            chunk = str(mag)
        elif mag == 1:
            chunk = body
        else:
            chunk = f"{mag} · {body}"
        if pieces:
            pieces.append((" + " if coeff > 0 else " − ") + chunk)
        else:
            pieces.append(chunk if coeff > 0 else "−" + chunk)
    return "".join(pieces) or "0"


def parse_coeff(raw) -> Fraction:
    """A JSON coefficient ("3", "-1/2", 2) as a Fraction; ValueError unless it
    is a string or an integer (not 0.1 or true) naming a finite rational."""
    if type(raw) is not int and not isinstance(raw, str):
        raise ValueError(f"coefficient {raw!r} is not a string or an integer")
    try:
        return Fraction(raw)
    except ArithmeticError:  # "1/0"
        raise ValueError(f"coefficient {raw!r} is not a finite rational") from None


def parse_int(raw) -> int:
    """A JSON index or exponent as an int; ValueError for anything but a JSON
    integer (1.5, true and "1" are not read as 1)."""
    if type(raw) is not int:
        raise ValueError(f"expected an integer, got {raw!r}")
    return raw


def read_terms(data, fields: tuple[str, ...], read: Callable) -> list:
    """read(entry) of each entry, an object holding "coeff" and the fields, of
    a JSON term list; a ValueError naming the term's index for anything else."""
    if not isinstance(data, list):
        raise ValueError(f"expected a list of terms, got {type(data).__name__}")
    *init, end = (f'"{key}"' for key in ("coeff", *fields))
    out = []
    for index, entry in enumerate(data):
        try:
            if not (isinstance(entry, dict) and {"coeff", *fields} <= entry.keys()):
                raise ValueError(f"expected an object with {', '.join(init)} and {end}")
            out.append(read(entry))
        except ValueError as exc:
            raise ValueError(f"term {index}: {exc}") from None
    return out


def json_term_list(entries: list[dict]) -> str:
    """json.dumps(entries, indent=2) for a JSON term list, the output of every
    to_json: flat dicts whose values are strings or lists of integer rows.

    The standard encoder falls back to its pure-Python loop under indent; here
    each distinct row is rendered once per call.
    """
    if not entries:
        return "[]"
    rows: dict[tuple[int, ...], str] = {}

    def value(v) -> str:
        if isinstance(v, str):
            return quote(v)
        if not v:
            return "[]"
        parts = []
        for row in v:
            row = tuple(row)
            text = rows.get(row)
            if text is None:
                text = rows[row] = (
                    "[\n        " + ",\n        ".join(map(str, row)) + "\n      ]"
                    if row
                    else "[]"
                )
            parts.append(text)
        return "[\n      " + ",\n      ".join(parts) + "\n    ]"

    objects = (
        "{\n    "
        + ",\n    ".join(f"{quote(key)}: {value(v)}" for key, v in entry.items())
        + "\n  }"
        for entry in entries
    )
    return "[\n  " + ",\n  ".join(objects) + "\n]"


def read_monomial(raw, item: str, slots: tuple[str, ...]) -> list[tuple[int, ...]]:
    """A JSON monomial: a list of items, each a list of len(slots) integers."""
    if not isinstance(raw, list):
        raise ValueError(f"monomial {raw!r} is not a list of {item}s")
    for g in raw:
        if not (isinstance(g, list) and len(g) == len(slots)):
            form = ("pair", "triple")[len(slots) - 2]
            raise ValueError(f"{item} {g!r} is not an [{', '.join(slots)}] {form}")
    return [tuple(map(parse_int, g)) for g in raw]


def check_generator(n: int, i, j) -> None:
    """A generator e_ij of gl(n): i and j ints (not bools) in 1..n."""
    if not (type(i) is type(j) is int and 1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"generator e[{i},{j}] out of range for n={n}")


def check_size(name: str, value) -> int:
    """An ambient size n or d: a positive int (a bool is not one)."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value
