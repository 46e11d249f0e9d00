"""Partitions, Young tableaux, and permutations.

Conventions used throughout the package:

* A partition is a tuple of weakly decreasing positive integers; the empty
  tuple is the (legal) empty partition of weight 0.
* A tableau stores its rows as a tuple of tuples of positive integers; cells
  are indexed 0..h-1 in row-major reading order.
* A tableau is *standard* when its rows strictly increase left to right and
  its columns weakly increase top to bottom.  (Note the transposed roles of
  strict/weak compared with the usual semistandard convention.)
* A permutation of degree h is a tuple ``p`` of length h with
  ``p[k] = image of k`` on 0..h-1, as produced by ``itertools.permutations``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .terms import parse_int


# ---------------------------------------------------------------------------
# partitions


def check_partition(parts) -> tuple[int, ...]:
    """A partition as a tuple, validated; a part that is not an int is rejected."""
    parts = tuple(parts)
    if any(type(p) is not int or p <= 0 for p in parts):
        raise ValueError(f"partition parts must be positive integers: {parts}")
    if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
        raise ValueError(f"partition parts must weakly decrease: {parts}")
    return parts


def conjugate(parts) -> tuple[int, ...]:
    """Transpose of the Ferrers diagram: column lengths become rows."""
    parts = check_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > c) for c in range(parts[0]))


def hook_number(parts) -> int:
    """Product of the hook lengths of all cells of the diagram."""
    parts = check_partition(parts)
    cols = conjugate(parts)
    result = 1
    for r, row_len in enumerate(parts):
        for c in range(row_len):
            result *= (row_len - c) + (cols[c] - r) - 1
    return result


def partitions_of(h: int) -> list[tuple[int, ...]]:
    """All partitions of weight h, in lexicographic order."""
    if h < 0:
        raise ValueError("weight must be nonnegative")

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(1, min(remaining, cap) + 1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return sorted(gen(h, h))


# ---------------------------------------------------------------------------
# tableaux


@dataclass(frozen=True)
class Tableau:
    """A Young tableau given by its rows."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        check_partition(tuple(len(row) for row in rows))
        for row in rows:
            for e in row:
                if type(e) is not int or e <= 0:
                    raise ValueError(
                        f"tableau entry {e!r} in row {row} is not a positive integer"
                    )

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    @property
    def weight(self) -> int:
        return sum(len(row) for row in self.rows)

    def word(self) -> tuple[int, ...]:
        """Row word: entries in row-major reading order."""
        return tuple(e for row in self.rows for e in row)

    def content(self) -> tuple[tuple[int, int], ...]:
        """Multiplicity of each symbol, as sorted (symbol, count) pairs."""
        counts: dict[int, int] = {}
        for e in self.word():
            counts[e] = counts.get(e, 0) + 1
        return tuple(sorted(counts.items()))

    def columns(self) -> tuple[tuple[int, ...], ...]:
        shape = self.shape
        if not shape:
            return ()
        return tuple(
            tuple(self.rows[r][c] for r in range(len(shape)) if shape[r] > c)
            for c in range(shape[0])
        )

    def is_standard(self) -> bool:
        """Rows strictly increasing, columns weakly increasing."""
        for row in self.rows:
            if any(row[k] >= row[k + 1] for k in range(len(row) - 1)):
                return False
        for col in self.columns():
            if any(col[k] > col[k + 1] for k in range(len(col) - 1)):
                return False
        return True

    def is_row_strict(self) -> bool:
        """Rows strictly increasing; no column condition."""
        return all(
            row[k] < row[k + 1] for row in self.rows for k in range(len(row) - 1)
        )

    def compact(self) -> str:
        """One-line form: rows separated by ';', entries by spaces."""
        return ";".join(" ".join(map(str, row)) for row in self.rows)

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    @classmethod
    def from_json(cls, data) -> "Tableau":
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ValueError(f"tableau must be a list of row lists: {data!r}")
        return cls(tuple(tuple(map(parse_int, row)) for row in data))

    @classmethod
    def from_word(cls, shape, word) -> "Tableau":
        shape = check_partition(shape)
        word = tuple(word)
        if len(word) != sum(shape):
            raise ValueError("word length does not match shape weight")
        rows, pos = [], 0
        for row_len in shape:
            rows.append(word[pos : pos + row_len])
            pos += row_len
        return cls(tuple(rows))


def enumerate_standard(shape, n: int, content=None) -> list[Tableau]:
    """All standard tableaux of the shape over 1..n, in row-word order.

    The tableaux are filled directly, rows top to bottom and each row left
    to right: cell (r, c) takes the letters from max(left neighbour + 1,
    entry above) to n, so rows come out strictly increasing and columns
    weakly increasing.  With ``content`` (content[k-1] copies of letter k)
    only the tableaux of that content are listed: letter k is placed only
    while fewer than content[k-1] copies of it are placed, and a content
    whose total is not the weight of the shape gives [].
    """
    shape = check_partition(shape)
    h = sum(shape)
    if content is None:
        # no letter can run out
        spare = [h] * n
    else:
        spare = list(content)
        if len(spare) != n:
            raise ValueError(f"content needs one entry per letter 1..{n}: {content}")
        if any(type(k) is not int or k < 0 for k in spare):
            raise ValueError(f"content entries must be nonnegative ints: {content}")
        if sum(spare) != h:
            return []
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]
    rows = [[0] * row_len for row_len in shape]
    found = []

    def fill(pos):
        if pos == h:
            found.append(Tableau(tuple(map(tuple, rows))))
            return
        r, c = cells[pos]
        row = rows[r]
        low = max(row[c - 1] + 1 if c else 1, rows[r - 1][c] if r else 1)
        # leave room for the larger letters right of this cell
        for k in range(low, n - len(row) + c + 2):
            if spare[k - 1]:
                spare[k - 1] -= 1
                row[c] = k
                fill(pos + 1)
                spare[k - 1] += 1

    fill(0)
    return found


def enumerate_row_strict(shape, n: int) -> list[Tableau]:
    """All row-strictly-increasing tableaux over 1..n, in row-word order."""
    shape = check_partition(shape)
    if shape and shape[0] > n:
        return []
    choices = [itertools.combinations(range(1, n + 1), row_len) for row_len in shape]
    return [Tableau(rows) for rows in itertools.product(*choices)]


def column_permuted_family(t: Tableau) -> list[Tableau]:
    """Every tableau obtained by permuting each column independently.

    Returns the full multiset: repeated entries in a column contribute
    duplicate tableaux, so the result always has prod(len(col)!) members.
    """
    cols = t.columns()
    shape = t.shape
    family = []
    for perm_cols in itertools.product(*(itertools.permutations(c) for c in cols)):
        rows = tuple(
            tuple(perm_cols[c][r] for c in range(shape[r])) for r in range(len(shape))
        )
        family.append(Tableau(rows))
    return family


def compositions(h: int, n: int) -> list[tuple[int, ...]]:
    """Weak compositions of h into n parts, lexicographically ascending."""
    if h < 0 or n < 1:
        raise ValueError("need h >= 0 and n >= 1")

    def gen(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in gen(remaining - first, slots - 1):
                yield (first,) + rest

    return list(gen(h, n))


# ---------------------------------------------------------------------------
# permutations (0-based image tuples)


def permutation_sign(p: tuple[int, ...]) -> int:
    """(-1) ** (number of inversions)."""
    inversions = sum(
        1 for a, b in itertools.combinations(range(len(p)), 2) if p[a] > p[b]
    )
    return -1 if inversions % 2 else 1


def cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths, as a partition; p is an image tuple on 0..h-1."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length, k = 0, start
        while not seen[k]:
            seen[k] = True
            k = p[k]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))
