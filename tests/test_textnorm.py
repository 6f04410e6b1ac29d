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
    norm_config_from_label,
    normalize_for_scoring,
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


def test_tokenize_can_keep_edges():
    assert tokenize("(hello)", strip_edge_punctuation=False) == ["(hello)"]


def test_casefold_handles_compatibility_forms():
    # fullwidth digits and the Kelvin sign normalize to plain forms
    assert casefold_normalize("５０") == "50"
    assert casefold_normalize("KM") == "km"


def test_collapse_whitespace():
    assert collapse_whitespace("  a\t b\n\nc ") == "a b c"


def test_norm_config_labels():
    assert DEFAULT_NORM.label == "default"
    assert STRICT_NORM.label == "strict"
    assert NormConfig(casefold=False, strip_edge_punctuation=True).label == "custom"
    assert norm_config_from_label("default") == DEFAULT_NORM
    assert norm_config_from_label("strict") == STRICT_NORM
    with pytest.raises(ConfigurationError):
        norm_config_from_label("fancy")


def test_strict_config_keeps_case_and_edges():
    text = "Visit (Paytm)."
    assert tokens_for_scoring(text, STRICT_NORM) == ["Visit", "(Paytm)."]
    assert tokens_for_scoring(text, DEFAULT_NORM) == ["visit", "paytm"]
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
