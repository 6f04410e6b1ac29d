import random
import sys
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from indicscore.errors import ConfigurationError, DataError
from indicscore.script import (
    SCRIPT_BLOCKS,
    SfrResult,
    aggregate_sfr,
    script_block,
    script_purity_check,
    sfr,
)

TELUGU = "నమస్కారం"  # 9 letters, all in-block
TAMIL = "வணக்கம்"
HINDI = "नमस्ते"


def test_blocks_cover_expected_ranges():
    assert script_block("te") == (0x0C00, 0x0C7F)
    assert script_block("ta") == (0x0B80, 0x0BFF)
    assert script_block("hi") == (0x0900, 0x097F)
    with pytest.raises(ConfigurationError):
        script_block("en")


def test_sfr_pure_telugu():
    result = sfr(TELUGU, "te")
    assert result.in_block_count == result.letter_count > 0
    assert result.value == 1.0


def test_sfr_mixed_script():
    # 8 Telugu letters plus "ok" = 10 letters, 8 in block
    result = sfr("చెల్లింపు జరిగింది ok", "te")
    assert result.letter_count == 10
    assert result.in_block_count == 8
    assert result.value == 0.8


def test_sfr_counts_letters_only():
    base = sfr(TELUGU, "te")
    noisy = sfr(TELUGU + " 123 !!! ₹₹ 456", "te")
    assert noisy == base


def test_isalpha_is_the_letter_category_on_every_code_point():
    # sfr counts letters with str.isalpha; this pins it to general category
    # L* for the interpreter's own UCD version.
    differ = [
        cp
        for cp in range(sys.maxunicode + 1)
        if chr(cp).isalpha() != unicodedata.category(chr(cp)).startswith("L")
    ]
    assert differ == [], f"UCD {unicodedata.unidata_version}"


def test_sfr_excludes_combining_marks_from_both_counts():
    # Devanagari ке = KA (Lo) + vowel sign E (Mn); only KA counts
    result = sfr("के", "hi")
    assert result.letter_count == 1
    assert result.in_block_count == 1


def test_sfr_empty_and_letterless_are_undefined():
    assert sfr("", "te").value is None
    assert sfr("1234 !!", "te").value is None


def test_sfr_cross_script_counts_zero_in_block():
    result = sfr(HINDI, "te")
    assert result.in_block_count == 0
    assert result.value == 0.0


def test_aggregate_sfr_pools_counts():
    parts = [sfr(TELUGU, "te"), sfr("ok ok", "te"), sfr("1234", "te")]
    pooled = aggregate_sfr(parts)
    assert pooled.letter_count == sum(p.letter_count for p in parts)
    assert pooled.in_block_count == sum(p.in_block_count for p in parts)


def test_aggregate_sfr_all_na_is_na():
    assert aggregate_sfr([sfr("123", "te"), sfr("", "te")]).value is None


def test_aggregate_sfr_skips_na_parts():
    pooled = aggregate_sfr([sfr(TELUGU, "te"), sfr("9", "te")])
    assert pooled.value == 1.0


@given(st.text(max_size=60))
def test_sfr_value_is_bounded(s):
    result = sfr(s, "ta")
    if result.value is not None:
        assert 0.0 <= result.value <= 1.0
        assert result.letter_count > 0


@given(st.text(max_size=40), st.text(max_size=40))
def test_sfr_is_additive_over_concatenation(a, b):
    joined = sfr(a + b, "hi")
    pooled = aggregate_sfr([sfr(a, "hi"), sfr(b, "hi")])
    assert joined == pooled


def test_digit_and_punct_insertion_never_moves_sfr():
    rng = random.Random(13)
    base_text = "చెల్లింపు జరిగింది సరే ok"
    base = sfr(base_text, "te")
    chars = list(base_text)
    pool = "0123456789.,!?;:%-()[]"
    for _ in range(100):
        chars.insert(rng.randrange(len(chars) + 1), rng.choice(pool))
    assert sfr("".join(chars), "te") == base


def test_purity_check_basic():
    assert script_purity_check(TELUGU, "te")
    assert not script_purity_check("this is english", "te")


def test_purity_check_threshold_boundary():
    # 8 in-block letters out of 10 = exactly 0.8, threshold is inclusive
    text = "చెల్లింపు జరిగింది ok"
    result = sfr(text, "te")
    assert result.value == 0.8
    assert script_purity_check(text, "te")
    assert not script_purity_check(text, "te", threshold=0.81)


def test_purity_check_na_fails():
    assert not script_purity_check("12345", "te")


def test_purity_check_allowed_spans_excluded():
    text = "చెల్లింపు Paytm విజయవంతం"
    start = text.index("Paytm")
    assert not script_purity_check(text, "te")
    assert script_purity_check(text, "te", allowed_spans=[(start, start + 5)])


def test_purity_check_rejects_bad_spans():
    with pytest.raises(DataError):
        script_purity_check(TELUGU, "te", allowed_spans=[(3, 2)])
    with pytest.raises(DataError):
        script_purity_check(TELUGU, "te", allowed_spans=[(0, 99)])
    with pytest.raises(DataError):
        script_purity_check(TELUGU, "te", allowed_spans=[(0, 3), (2, 5)])


def test_sfr_result_is_plain_data():
    assert SfrResult(10, 8).value == 0.8
    assert SfrResult(0, 0).value is None
    assert set(SCRIPT_BLOCKS) == {"te", "ta", "hi"}
