"""Seeded property tests of the problem-file parser on arbitrary JSON-like input."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from sdgames.probio import ProblemFormatError, problem_from_dict

NUMBERS = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions().map(str),
    st.sampled_from(["1e400", "-1e308", "1e-400", "1e99999", "2.5e-3", "-7/3"]),
)

ENTRIES = st.one_of(
    NUMBERS,
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=8),
    st.sampled_from(["1/0", "0x10", "inf", "1_0", "1/2/3"]),
)

JSON_LIKE = st.recursive(
    ENTRIES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=4), kids, max_size=4)
    ),
    max_leaves=8,
)


def _symmetric(n):
    """n x n matrices of arbitrary entries that mirror their upper triangle."""

    def fill(upper):
        it = iter(upper)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = next(it)
        return rows

    k = n * (n + 1) // 2
    return st.lists(st.one_of(NUMBERS, NUMBERS, ENTRIES), min_size=k, max_size=k).map(fill)


@st.composite
def _near_valid(draw):
    """Documents with every field present and mostly numeric entries, so that
    parsing reaches the entry, symmetry and pair checks."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    doc = {
        "n": draw(st.one_of(st.just(n), st.just(n), JSON_LIKE)),
        "m": draw(st.one_of(st.just(m), st.just(m), JSON_LIKE)),
        "C": draw(st.one_of(_symmetric(n), _symmetric(n), JSON_LIKE)),
        "A": draw(st.one_of(st.lists(_symmetric(n), min_size=m, max_size=m), JSON_LIKE)),
        "b": draw(st.one_of(st.lists(NUMBERS, min_size=m, max_size=m), JSON_LIKE)),
    }
    if draw(st.booleans()):
        doc["name"] = draw(JSON_LIKE)
    return doc


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(JSON_LIKE, _near_valid()))
def test_problem_from_dict_raises_only_format_errors(doc):
    try:
        pair, _ = problem_from_dict(doc)
    except ProblemFormatError:
        return
    pair.to_float()  # every accepted entry fits a float
