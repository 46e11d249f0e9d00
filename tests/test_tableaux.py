import itertools
from math import factorial

import pytest
from hypothesis import given, strategies as st

from capelli.tableaux import (
    Tableau,
    check_partition,
    column_permuted_family,
    compositions,
    conjugate,
    cycle_type,
    enumerate_row_strict,
    enumerate_standard,
    hook_number,
    partitions_of,
    permutation_sign,
)


@st.composite
def partition_strategy(draw, max_h=8):
    h = draw(st.integers(min_value=0, max_value=max_h))
    choices = partitions_of(h)
    return draw(st.sampled_from(choices))


@st.composite
def tableau_strategy(draw, max_h=6, max_entry=4):
    shape = draw(partition_strategy(max_h=max_h))
    word = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_entry),
            min_size=sum(shape),
            max_size=sum(shape),
        )
    )
    return Tableau.from_word(shape, word)


def test_check_partition_accepts_weakly_decreasing():
    assert check_partition((3, 3, 1)) == (3, 3, 1)
    assert check_partition(()) == ()


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_conjugate_known():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate((1, 1, 1)) == (3,)
    assert conjugate(()) == ()


@given(partition_strategy())
def test_conjugate_is_an_involution(shape):
    assert conjugate(conjugate(shape)) == shape


def test_hook_number_known():
    assert hook_number((2, 1)) == 3
    assert hook_number((2, 2)) == 12
    assert hook_number((3,)) == 6
    assert hook_number(()) == 1


@given(partition_strategy())
def test_hook_number_symmetric_under_conjugation(shape):
    assert hook_number(shape) == hook_number(conjugate(shape))


def test_partitions_of_small():
    assert partitions_of(0) == [()]
    assert partitions_of(3) == [(1, 1, 1), (2, 1), (3,)]
    assert len(partitions_of(6)) == 11


def test_tableau_basics():
    t = Tableau(((1, 2), (3,)))
    assert t.shape == (2, 1)
    assert t.weight == 3
    assert t.word() == (1, 2, 3)
    assert t.columns() == ((1, 3), (2,))
    assert t.content() == ((1, 1), (2, 1), (3, 1))
    assert t.compact() == "1 2;3"


def test_tableau_rejects_ragged_or_nonpositive():
    with pytest.raises(ValueError):
        Tableau(((1,), (1, 2)))
    with pytest.raises(ValueError):
        Tableau(((0, 1),))


@pytest.mark.parametrize("entry", [True, 0, -1, 1.0, "1"])
def test_tableau_names_the_bad_entry_and_its_row(entry):
    with pytest.raises(ValueError) as err:
        Tableau(((1, 2), (1, entry)))
    assert str(err.value) == (
        f"tableau entry {entry!r} in row (1, {entry!r}) is not a positive integer"
    )


def test_standard_means_rows_strict_columns_weak():
    assert Tableau(((1, 2), (1,))).is_standard()
    assert Tableau(((1, 1), (2,))).is_row_strict() is False
    assert Tableau(((1, 2), (2,))).is_standard()
    assert not Tableau(((2, 1),)).is_standard()
    # columns must not decrease
    assert not Tableau(((2, 3), (1,))).is_standard()


def test_tableau_json_round_trip():
    t = Tableau(((1, 3, 3), (2, 4)))
    assert Tableau.from_json(t.to_json()) == t


@pytest.mark.parametrize("entry", [1.5, True, "1"])
def test_tableau_from_json_accepts_json_integers_only(entry):
    # each was once read as the entry 1
    with pytest.raises(ValueError):
        Tableau.from_json([[entry]])


@given(tableau_strategy())
def test_from_word_round_trip(t):
    assert Tableau.from_word(t.shape, t.word()) == t


def standard_by_filter(shape, n):
    """Every filling of the shape over 1..n, in row-word order, kept when
    standard."""
    fillings = (
        Tableau.from_word(shape, word)
        for word in itertools.product(range(1, n + 1), repeat=sum(shape))
    )
    return [t for t in fillings if t.is_standard()]


def letter_counts(t, n):
    return tuple(t.word().count(k) for k in range(1, n + 1))


@pytest.mark.parametrize("h", range(5))
@pytest.mark.parametrize("n", range(1, 4))
def test_enumerate_standard_matches_filter_over_all_fillings(h, n):
    for shape in partitions_of(h):
        assert enumerate_standard(shape, n) == standard_by_filter(shape, n)


@pytest.mark.parametrize("h", range(5))
@pytest.mark.parametrize("n", range(1, 4))
def test_content_directed_list_is_the_filters_list(h, n):
    for shape in partitions_of(h):
        standard = standard_by_filter(shape, n)
        for content in compositions(h, n):
            expected = [t for t in standard if letter_counts(t, n) == content]
            assert enumerate_standard(shape, n, content) == expected, content


@pytest.mark.parametrize("h", range(7))
@pytest.mark.parametrize("n", range(1, 6))
def test_contents_partition_the_standard_tableaux(h, n):
    for shape in partitions_of(h):
        pieces = []
        for content in compositions(h, n):
            piece = enumerate_standard(shape, n, content)
            assert all(letter_counts(t, n) == content for t in piece)
            pieces.extend(piece)
            # Kostka symmetry: the count depends on the content only up to
            # the order of its parts
            ordered = tuple(sorted(content, reverse=True))
            assert len(piece) == len(enumerate_standard(shape, n, ordered))
        assert sorted(pieces, key=Tableau.word) == enumerate_standard(shape, n)


def test_content_of_another_total_gives_no_tableaux():
    assert enumerate_standard((2, 1), 3, (1, 1, 0)) == []
    assert enumerate_standard((2, 1), 3, (1, 1, 2)) == []
    assert enumerate_standard((), 2, (0, 0)) == [Tableau(())]


@pytest.mark.parametrize(
    "content",
    [(1, 2), (1, 1, 1, 0), (4, -1, 0), (1.0, 2, 0), (True, 2, 0), ("1", 2, 0)],
    ids=["short", "long", "negative", "float", "bool", "str"],
)
def test_bad_content_is_rejected_in_one_line(content):
    with pytest.raises(ValueError) as err:
        enumerate_standard((2, 1), 3, content)
    assert "\n" not in str(err.value)


def test_enumerate_standard_counts():
    # columns rise weakly, so a single column over {1,2} has h+1 fillings
    assert len(enumerate_standard((1, 1, 1), 2)) == 4
    assert len(enumerate_standard((1, 1), 2)) == 3
    assert [t.rows for t in enumerate_standard((2, 1), 2)] == [
        ((1, 2), (1,)),
        ((1, 2), (2,)),
    ]


def test_enumerate_row_strict_values():
    got = [t.rows for t in enumerate_row_strict((2, 1), 2)]
    assert got == [((1, 2), (1,)), ((1, 2), (2,))]
    assert len(enumerate_row_strict((2, 2), 3)) == 9


@given(tableau_strategy(max_h=5))
def test_column_permuted_family_size(t):
    size = 1
    for col in t.columns():
        size *= factorial(len(col))
    family = column_permuted_family(t)
    assert len(family) == size
    assert all(f.shape == t.shape for f in family)


def test_column_permuted_family_keeps_multiplicity():
    # repeated column entries give repeated members, one per permutation
    t = Tableau(((1,), (1,)))
    family = column_permuted_family(t)
    assert family == [t, t]


def test_compositions_order():
    assert compositions(3, 2) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert compositions(0, 2) == [(0, 0)]


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=4))
def test_compositions_sum_and_count(h, n):
    combos = compositions(h, n)
    assert all(sum(c) == h and len(c) == n for c in combos)
    assert len(combos) == len(set(combos))


def test_permutation_sign_and_cycle_type():
    # permutations are image tuples on 0..h-1
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    assert cycle_type(()) == ()


@given(st.permutations(tuple(range(6))))
def test_sign_matches_cycle_type(p):
    p = tuple(p)
    expected = 1
    for c in cycle_type(p):
        expected *= (-1) ** (c - 1)
    assert permutation_sign(p) == expected
