import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from indicscore.errors import ConfigurationError
from indicscore.textnorm import (
    DEFAULT_NORM,
    STRICT_NORM,
    NormConfig,
    casefold_normalize,
    collapse_whitespace,
    fold_digits,
    norm_config_from_label,
    nfkc_normalize,
    normalize_for_scoring,
    token_count,
    tokenize,
    tokens_for_scoring,
)


def test_tokenize_preserves_interior_punctuation():
    # edge punctuation and symbols go, interior separators stay
    text = 'The "total", near 8-2-293/82, was ₹50,000.'
    assert tokenize(text) == ["The", "total", "near", "8-2-293/82", "was", "50,000"]


def test_tokenize_strips_nested_edge_punctuation():
    assert tokenize("('(hello!)')") == ["hello"]


def test_tokenize_drops_tokens_that_are_all_punctuation():
    assert tokenize("wait - ... ok") == ["wait", "ok"]


def test_casefold_handles_compatibility_forms():
    # fullwidth digits and the Kelvin sign normalize to plain forms
    assert casefold_normalize("５０") == "50"
    assert casefold_normalize("KM") == "km"


def test_collapse_whitespace():
    assert collapse_whitespace("  a\t b\n\nc ") == "a b c"


def test_norm_config_labels():
    assert DEFAULT_NORM.label == "default"
    assert STRICT_NORM.label == "strict"
    with pytest.raises(ConfigurationError):
        NormConfig("custom")
    assert norm_config_from_label("default") == DEFAULT_NORM
    assert norm_config_from_label("strict") == STRICT_NORM
    with pytest.raises(ConfigurationError):
        norm_config_from_label("fancy")


def test_strict_config_keeps_case_and_edges():
    text = "Visit (Paytm)."
    assert tokens_for_scoring(text, STRICT_NORM) == ("Visit", "(Paytm).")
    assert tokens_for_scoring(text, DEFAULT_NORM) == ("visit", "paytm")
    assert normalize_for_scoring("A  B", STRICT_NORM) == "A B"


@given(st.text(max_size=80))
def test_casefold_normalize_is_idempotent(s):
    once = casefold_normalize(s)
    assert casefold_normalize(once) == once


@given(st.text(max_size=80))
def test_casefold_normalize_output_is_nfkc(s):
    assert unicodedata.is_normalized("NFKC", casefold_normalize(s))


@given(st.text(max_size=80))
def test_tokenize_output_tokens_have_no_whitespace(s):
    for token in tokenize(s):
        assert token == token.strip()
        assert " " not in token


@given(st.text(max_size=80))
def test_tokenize_never_returns_empty_tokens(s):
    assert all(tokenize(s))


@given(st.text(max_size=80))
def test_collapse_whitespace_idempotent(s):
    once = collapse_whitespace(s)
    assert collapse_whitespace(once) == once


# Pieces built from edge punctuation and symbols (P*, S*), combining marks,
# letters, digits and every kind of Unicode space, so that pieces that strip
# to nothing, to part of themselves, or not at all all occur.
EDGY_TEXT = st.text(
    st.one_of(
        st.characters(categories=("P", "S", "M", "L", "N")),
        st.characters(categories=("Zs", "Zl", "Zp", "Cc")),
        st.sampled_from(" \t\n.,!?-/()₹%@#…।॥"),
    ),
    max_size=40,
)


@given(st.one_of(EDGY_TEXT, st.text(max_size=80)))
def test_token_count_is_the_length_of_tokenize(s):
    assert token_count(nfkc_normalize(s)) == len(tokenize(s))


# Text where the scoring forms could part from their definitions: combining
# marks, tab, NBSP and ideographic spaces, fullwidth digits, compatibility
# letters and punctuation at token edges.
SCORING_TEXT = st.text(
    st.one_of(
        st.characters(categories=("L", "M", "N", "P", "S")),
        st.sampled_from(" \t\n\u00a0\u3000０５９.,!?()\"'₹…।KßİſＡ\u0301\u0c4d"),
    ),
    max_size=40,
)


@given(SCORING_TEXT, st.sampled_from([DEFAULT_NORM, STRICT_NORM]))
def test_scoring_forms_equal_their_definitions(text, config):
    # each form as it was defined before both were computed together and kept
    if config.mode == "default":
        chars = collapse_whitespace(casefold_normalize(text))
        tokens = tokenize(casefold_normalize(text))
    else:
        chars = collapse_whitespace(nfkc_normalize(text))
        tokens = nfkc_normalize(text).split()
    assert normalize_for_scoring(text, config) == chars
    first = tokens_for_scoring(text, config)
    assert first == tuple(tokens)
    assert tokens_for_scoring(text, config) == first


@given(st.one_of(SCORING_TEXT, EDGY_TEXT, st.text(max_size=80)), st.sampled_from([DEFAULT_NORM, STRICT_NORM]))
def test_scoring_tokens_are_nfkc_stable(text, config):
    # the number scan reads scoring tokens as numerals without normalizing them again
    for tok in tokens_for_scoring(text, config):
        assert unicodedata.normalize("NFKC", tok) == tok


def test_fold_digits_reads_indic_and_fullwidth_digits_as_ascii():
    assert fold_digits("पिन ५०००८१") == "पिन 500081"
    assert fold_digits("పిన్ ౫౦౦౦౮౧") == "పిన్ 500081"
    assert fold_digits("பின் ௫௦௦௦௮௧") == "பின் 500081"
    assert fold_digits("５０") == "50"
    assert fold_digits("x² ½ ௰") == "x² ½ ௰"  # numbers that are not decimal digits (No) stay
    ascii_text = "pin 500081"
    assert fold_digits(ascii_text) is ascii_text


@given(st.characters(categories=["Nd"]))
def test_fold_digits_maps_every_decimal_digit_to_its_value(char):
    assert fold_digits(char) == str(unicodedata.decimal(char))


@given(st.text(st.characters(exclude_categories=["Nd"])))
def test_fold_digits_leaves_everything_else(text):
    assert fold_digits(text) == text
