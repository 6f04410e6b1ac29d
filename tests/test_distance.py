import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indicscore.distance import ErrorRate, cer, levenshtein, wer
from indicscore.errors import DataError
from indicscore.textnorm import STRICT_NORM


def oracle_levenshtein(a, b):
    """Textbook recursion, memoized; only safe for short inputs."""

    @functools.lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(rec(i - 1, j) + 1, rec(i, j - 1) + 1, rec(i - 1, j - 1) + cost)

    return rec(len(a), len(b))


def dp_levenshtein(a, b):
    """Two-row dynamic program, the reference for inputs of any length."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


# Telugu letters, vowel signs (Mn/Mc) and the virama, plus a space.
TELUGU_CHARS = st.characters(min_codepoint=0x0C00, max_codepoint=0x0C7F) | st.just(" ")
TELUGU_POOL = "అఆకగచటతనపమయరలవసహ ాిీుూెేైొోౌ్ంః"
# Few distinct tokens, so lists repeat them; most are several characters.
TOKENS = st.sampled_from(["a", "ab", "ba", "abc", "పిన్", "కోడ్", "500081"])
# Pattern lengths on both sides of CPython's 30-bit int digits and of 64 bits.
DIGIT_BOUNDARY_LENGTHS = [1, 29, 30, 31, 59, 60, 61, 63, 64, 65, 129]


def test_kitten_sitting():
    assert levenshtein("kitten", "sitting") == 3


def test_trivial_cases():
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "abc") == 0


def test_works_on_token_lists():
    assert levenshtein(["a", "b", "c"], ["a", "x", "c"]) == 1
    assert levenshtein(["ab"], ["a", "b"]) == 2


def test_matches_oracle_on_random_pairs():
    rng = random.Random(2024)
    for _ in range(10_000):
        a = "".join(rng.choice("abc") for _ in range(rng.randrange(7)))
        b = "".join(rng.choice("abc") for _ in range(rng.randrange(7)))
        assert levenshtein(a, b) == oracle_levenshtein(a, b)


@given(st.text(alphabet="abcd", max_size=8), st.text(alphabet="abcd", max_size=8))
def test_matches_oracle_property(a, b):
    assert levenshtein(a, b) == oracle_levenshtein(a, b)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["ab", "abc", "abcd"]).flatmap(
        lambda alphabet: st.tuples(st.text(alphabet, max_size=300), st.text(alphabet, max_size=300))
    )
)
def test_matches_dp_on_long_small_alphabet_strings(pair):
    a, b = pair
    assert levenshtein(a, b) == dp_levenshtein(a, b)


@settings(max_examples=60, deadline=None)
@given(st.text(TELUGU_CHARS, max_size=300), st.text(TELUGU_CHARS, max_size=300))
def test_matches_dp_on_long_telugu_strings(a, b):
    assert levenshtein(a, b) == dp_levenshtein(a, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(TOKENS, max_size=150), st.lists(TOKENS, max_size=150))
def test_matches_dp_on_repeated_multichar_tokens(a, b):
    assert levenshtein(a, b) == dp_levenshtein(a, b)


# A shared prefix and suffix around two differing middles: the ends are
# trimmed before the bit-parallel loop, and the middles may repeat the ends'
# elements, so a greedy trim could cut into what an optimal alignment needs.
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([
        st.text("abc", max_size=40),
        st.text(TELUGU_CHARS, max_size=40),
        st.lists(TOKENS, max_size=20),
    ]).flatmap(lambda parts: st.tuples(parts, parts, parts, parts))
)
def test_shared_ends_match_dp(parts):
    prefix, middle_a, middle_b, suffix = parts
    a, b = prefix + middle_a + suffix, prefix + middle_b + suffix
    expected = dp_levenshtein(a, b)
    assert levenshtein(a, b) == expected
    assert levenshtein(b, a) == expected
    assert levenshtein(a, a + suffix) == len(suffix)
    assert levenshtein(prefix + a, a) == len(prefix)


def test_trimmed_ends_may_overlap():
    # the shorter sequence is all prefix, and all suffix too
    assert levenshtein("aaa", "aaaaa") == 2
    assert levenshtein("abab", "ab") == 2
    assert levenshtein(["x", "y", "x"], ["x"]) == 2
    assert levenshtein("abcba", "abba") == 1


def test_multichar_tokens_compare_whole():
    assert levenshtein(["ab", "ab", "ab"], ["ab", "ab"]) == 1
    assert levenshtein(["ab", "ba"], ["ba", "ab"]) == 2
    assert levenshtein(["abc"], ["ab", "c"]) == 2


@pytest.mark.parametrize("m", DIGIT_BOUNDARY_LENGTHS)
def test_pattern_lengths_at_int_digit_boundaries(m):
    rng = random.Random(m)
    for alphabet in ("ab", "abcd", TELUGU_POOL):
        pattern = "".join(rng.choice(alphabet) for _ in range(m))
        edited = list(pattern)
        for _ in range(max(1, m // 10)):
            edited[rng.randrange(m)] = rng.choice(alphabet)
        texts = [
            pattern,
            pattern[::-1],
            "".join(edited),
            pattern + "".join(rng.choice(alphabet) for _ in range(m + 3)),
            "".join(rng.choice(alphabet) for _ in range(2 * m + 1)),
            "".join(rng.choice(alphabet) for _ in range(max(0, m - 2))),
            alphabet[0] * (m + 5),
            "",
        ]
        for text in texts:
            expected = dp_levenshtein(pattern, text)
            assert levenshtein(pattern, text) == expected, (pattern, text)
            assert levenshtein(text, pattern) == expected, (text, pattern)
    assert levenshtein("a" * m, "a" * (m + 7)) == 7
    assert levenshtein("a" * m, "b" * m) == m


@given(st.text(max_size=30), st.text(max_size=30))
def test_symmetry(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(st.text(max_size=30))
def test_identity(a):
    assert levenshtein(a, a) == 0


@given(st.text(max_size=20), st.text(max_size=20), st.text(max_size=20))
def test_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(st.text(max_size=25), st.text(max_size=25))
def test_length_difference_lower_bound(a, b):
    assert levenshtein(a, b) >= abs(len(a) - len(b))
    assert levenshtein(a, b) <= max(len(a), len(b))


def test_error_rate_value():
    assert ErrorRate(3, 10).rate == 0.3
    assert ErrorRate(0, 10).rate == 0.0


def test_error_rate_zero_reference():
    with pytest.raises(DataError):
        _ = ErrorRate(0, 0).rate


def test_wer_counts_token_edits():
    assert wer("the cat sat", "the cat sat").rate == 0.0
    assert wer("the cat sat", "the bat sat").rate == pytest.approx(1 / 3)
    # insertions can push WER past 1.0
    assert wer("hi", "a b c").rate == 3.0


def test_wer_normalizes_by_default():
    assert wer("The cat.", "the cat").rate == 0.0
    assert wer("The cat.", "the cat", STRICT_NORM).rate == 1.0


def test_wer_empty_reference_rejected():
    with pytest.raises(DataError):
        wer("", "anything")
    with pytest.raises(DataError):
        wer("...", "anything")  # no tokens survive normalization


def test_cer_counts_spaces():
    # "ab cd" vs "abcd": one deletion
    assert cer("ab cd", "abcd").distance == 1
    assert cer("ab cd", "ab cd").rate == 0.0


def test_cer_whitespace_collapsed_first():
    assert cer("ab   cd", "ab cd").rate == 0.0


def test_cer_empty_reference_rejected():
    with pytest.raises(DataError):
        cer("", "x")


def test_cer_on_telugu():
    ref = "ఐదు లక్షలు"
    assert cer(ref, ref).rate == 0.0
    assert cer(ref, "ఐదు లక్షలూ").distance == 1
