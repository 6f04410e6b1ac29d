import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indicscore.errors import ConfigurationError, ReferenceDataError
from indicscore.matchers import (
    CURRENCY_TOLERANCE,
    MATCHER_CLASSES,
    AliasTable,
    EntityToken,
    ScoringConfig,
    aggregate_ehr,
    lcs_length,
    score_utterance,
)
from indicscore.numbers import ENGLISH_TABLE, load_language_table

EN = ENGLISH_TABLE
TE = load_language_table("te")
TE_EN = TE.merged_with(EN)

BRANDS = AliasTable(
    [
        ("Paytm", "paytm", "పేటీఎం"),
        ("PhonePe", "phone pe", "ఫోన్ పే"),
        ("Swiggy",),
    ]
)


def token(surface, cls, language=None):
    return EntityToken(surface=surface, matcher_class=cls, language=language)


def score_one(tok, hypothesis, **config):
    """Score one token alone, the way the per-token replay does."""
    return score_utterance([tok], hypothesis, ScoringConfig(**config))[0]


class TestMatcherRuleBoundaries:
    """One named case per behavioral boundary, all seven rules covered."""

    # -- digit_run ---------------------------------------------------------

    def test_digit_run_exact(self):
        assert score_one(token("9876543210", "digit_run"), "call 9876543210 now").hit

    def test_digit_run_fuses_spaces_and_commas(self):
        assert score_one(token("98765 43210", "digit_run"), "dial 9876543210").hit
        assert score_one(token("9876543210", "digit_run"), "dial 98,76,54,3210").hit

    def test_digit_run_single_digit_error_misses(self):
        assert not score_one(token("9876543210", "digit_run"), "dial 9876543211").hit

    def test_digit_run_subset_run_misses(self):
        # a shorter run embedded in other words is not the same run
        assert not score_one(token("9876543210", "digit_run"), "dial 98765").hit

    def test_digit_run_empty_hypothesis_misses(self):
        assert not score_one(token("42", "digit_run"), "").hit

    # -- pincode -----------------------------------------------------------

    def test_pincode_exact(self):
        assert score_one(token("500081", "pincode"), "pin 500081 ok").hit

    def test_pincode_spoken_with_spaces(self):
        assert score_one(token("500081", "pincode"), "pin 5 0 0 0 8 1 ok").hit

    def test_pincode_wrong_digit_misses(self):
        assert not score_one(token("500081", "pincode"), "pin 500082").hit

    def test_pincode_reference_must_be_six_digits(self):
        with pytest.raises(ReferenceDataError):
            score_one(token("50008", "pincode"), "anything")
        with pytest.raises(ReferenceDataError):
            score_one(token("5000811", "pincode"), "anything")

    # -- currency_amount ---------------------------------------------------

    def test_currency_digit_reference_strict(self):
        result = score_one(token("₹5,00,000", "currency_amount"), "pay rupees 500000", currency_mode="strict")
        assert result.hit

    def test_currency_tolerance_boundary(self):
        # 0.5 percent of 500000 is exactly 2500, inclusive both sides
        assert score_one(token("₹5,00,000", "currency_amount"), "rs 502500", currency_mode="strict").hit
        assert not score_one(token("₹5,00,000", "currency_amount"), "rs 502501", currency_mode="strict").hit
        assert score_one(token("₹5,00,000", "currency_amount"), "rs 497500", currency_mode="strict").hit
        assert not score_one(token("₹5,00,000", "currency_amount"), "rs 497499", currency_mode="strict").hit

    def test_currency_word_hypothesis_matches_digit_reference(self):
        assert score_one(token("₹5,00,000", "currency_amount"), "five lakh rupees", currency_mode="strict").hit

    def test_currency_word_reference_strict_needs_verbatim(self):
        # no Latin digits in the reference: strict only accepts the surface itself
        assert score_one(token("five lakh", "currency_amount"), "about five lakh total", currency_mode="strict").hit
        assert not score_one(token("five lakh", "currency_amount"), "rupees 500000", currency_mode="strict").hit

    def test_currency_word_reference_bidirectional_compares_values(self):
        assert score_one(token("five lakh", "currency_amount"), "rupees 500000", currency_mode="bidirectional").hit
        assert score_one(token("five lakh", "currency_amount"), "₹5,00,000", currency_mode="bidirectional").hit

    def test_currency_partial_amount_misses(self):
        # hypothesis drops the multiplier, leaving a wrong value
        assert not score_one(token("₹5,00,000", "currency_amount"), "pay five rupees", currency_mode="strict").hit
        assert not score_one(token("₹5,00,000", "currency_amount"), "pay five", currency_mode="bidirectional").hit

    def test_currency_mixed_script_hypothesis(self):
        result = score_one(
            token("₹5,00,000", "currency_amount"),
            "మొత్తం ఐదు లక్షల రూపాయలు",
            language="te",
            currency_mode="bidirectional",
        )
        assert result.hit

    def test_currency_unparseable_reference_rejected(self):
        with pytest.raises(ReferenceDataError):
            score_one(token("lots of money", "currency_amount"), "x", currency_mode="strict")

    def test_currency_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            score_one(token("₹5", "currency_amount"), "x", currency_mode="loose")

    def test_currency_empty_hypothesis_misses(self):
        assert not score_one(token("₹500", "currency_amount"), "", currency_mode="strict").hit

    # -- brand ---------------------------------------------------------------

    def test_brand_alias_hit(self):
        assert score_one(token("Paytm", "brand"), "పేటీఎం ద్వారా చెల్లించండి", aliases=BRANDS).hit

    def test_brand_casefolded(self):
        assert score_one(token("PAYTM", "brand"), "use paytm app", aliases=BRANDS).hit

    def test_brand_near_miss_is_a_miss(self):
        assert not score_one(token("Paytm", "brand"), "use paytime app", aliases=BRANDS).hit

    def test_brand_multiword_alias(self):
        assert score_one(token("PhonePe", "brand"), "open phone pe now", aliases=BRANDS).hit

    def test_brand_unlisted_falls_back_to_surface(self, caplog):
        with caplog.at_level(logging.WARNING):
            result = score_one(token("Zomato", "brand"), "order on zomato", aliases=BRANDS)
        assert result.hit
        assert any("no alias entry" in r.message for r in caplog.records)

    def test_brand_empty_hypothesis_misses(self):
        assert not score_one(token("Paytm", "brand"), "", aliases=BRANDS).hit

    # -- proper_noun ---------------------------------------------------------

    def test_proper_noun_exact(self):
        result = score_one(
            token("Rajiv Gandhi International Airport", "proper_noun"),
            "drop me at rajiv gandhi international airport please",
        )
        assert result.hit

    def test_proper_noun_jaccard_exactly_point_eight_hits(self):
        # ref set k=4; the 5-token window shares all 4: 4/5 = 0.80 exactly
        result = score_one(
            token("rajiv gandhi international airport", "proper_noun"),
            "rajiv gandhi international new airport",
        )
        assert result.hit
        assert "0.800" in result.detail

    def test_proper_noun_below_threshold_misses(self):
        # best window shares 3 of 4, union 4: 0.75
        result = score_one(
            token("rajiv gandhi international airport", "proper_noun"),
            "rajiv gandhi international station",
        )
        assert not result.hit

    def test_proper_noun_word_order_ignored(self):
        assert score_one(
            token("Jubilee Hills Hyderabad", "proper_noun"), "hyderabad jubilee hills"
        ).hit

    def test_proper_noun_empty_hypothesis_misses(self):
        assert not score_one(token("Jubilee Hills", "proper_noun"), "").hit

    def test_proper_noun_empty_reference_rejected(self):
        with pytest.raises(ReferenceDataError):
            score_one(token("...", "proper_noun"), "anything")

    # -- spelled_digit ---------------------------------------------------------

    def test_spelled_digit_full_recovery(self):
        result = score_one(token("54235", "spelled_digit"), "five four two three five")
        assert result.hit

    def test_spelled_digit_lcs_exactly_point_eight_hits(self):
        # 4 of 5 reference digits survive in order: 0.80 exactly
        result = score_one(token("54235", "spelled_digit"), "five four two three")
        assert result.hit
        assert "0.800" in result.detail

    def test_spelled_digit_below_threshold_misses(self):
        result = score_one(token("54235", "spelled_digit"), "five four")
        assert not result.hit

    def test_spelled_digit_accepts_digit_tokens_in_hypothesis(self):
        assert score_one(token("54235", "spelled_digit"), "54 235").hit
        assert score_one(token("five four two three five", "spelled_digit"), "54235").hit

    def test_spelled_digit_mixed_script_hypothesis(self):
        result = score_one(
            token("54235", "spelled_digit"), "ఐదు నాలుగు two మూడు ఐదు", language="te"
        )
        assert result.hit

    def test_spelled_digit_order_matters(self):
        # same digits reversed: LCS over "54235" vs "53245" is 3, below 0.8
        assert not score_one(token("54235", "spelled_digit"), "five three two four five").hit

    def test_spelled_digit_reference_without_digits_rejected(self):
        with pytest.raises(ReferenceDataError):
            score_one(token("hello", "spelled_digit"), "x")

    def test_spelled_digit_empty_hypothesis_misses(self):
        assert not score_one(token("54235", "spelled_digit"), "").hit

    # -- house_or_plot ---------------------------------------------------------

    def test_house_or_plot_exact(self):
        assert score_one(token("8-2-293/82", "house_or_plot"), "flat 8-2-293/82 jubilee").hit

    def test_house_or_plot_edge_punctuation_ignored(self):
        assert score_one(token("8-2-293/82", "house_or_plot"), "at (8-2-293/82).").hit

    def test_house_or_plot_interior_difference_misses(self):
        assert not score_one(token("8-2-293/82", "house_or_plot"), "flat 8-2-293/83").hit
        assert not score_one(token("8-2-293/82", "house_or_plot"), "flat 82 293 82").hit

    def test_house_or_plot_multi_token(self):
        assert score_one(token("plot 42", "house_or_plot"), "near plot 42 gate").hit

    def test_house_or_plot_empty_hypothesis_misses(self):
        assert not score_one(token("plot 42", "house_or_plot"), "").hit


# ---------------------------------------------------------------------------
# Cross-cutting properties
# ---------------------------------------------------------------------------

SURFACES = ["₹500", "₹5,00,000", "rs 250", "five lakh", "two hundred rupees", "₹1,250"]
HYPS = [
    "",
    "pay rupees 500000 now",
    "pay five lakh",
    "rs 250 done",
    "two hundred",
    "rupees two hundred",
    "₹1,250 sent",
    "sent 1250 rupees",
    "503000 rupees",
    "five hundred",
]


@given(st.sampled_from(SURFACES), st.sampled_from(HYPS))
def test_strict_currency_hits_are_a_subset_of_bidirectional(surface, hyp):
    tok = token(surface, "currency_amount")
    strict = score_one(tok, hyp, currency_mode="strict")
    wide = score_one(tok, hyp, currency_mode="bidirectional")
    if strict.hit:
        assert wide.hit


# One or two valid reference surfaces per class, and hypotheses that hit
# and miss them in both modes.
CLASS_SURFACES = [
    ("digit_run", "9876543210"),
    ("digit_run", "42"),
    ("pincode", "500081"),
    *(("currency_amount", surface) for surface in SURFACES),
    ("brand", "Paytm"),
    ("brand", "PhonePe"),
    ("proper_noun", "Jubilee Hills"),
    ("proper_noun", "rajiv gandhi international airport"),
    ("spelled_digit", "54235"),
    ("spelled_digit", "five four two"),
    ("house_or_plot", "8-2-293/82"),
    ("house_or_plot", "plot 42"),
]
HYP_WORDS = [
    "pay", "rupees", "five", "four", "two", "lakh", "500000", "₹1,250", "42",
    "98765", "43210", "500081", "paytm", "phone", "pe", "jubilee", "hills",
    "rajiv", "gandhi", "airport", "plot", "8-2-293/82", "54235",
]
hypotheses = st.one_of(
    st.sampled_from(HYPS),
    st.lists(st.sampled_from(HYP_WORDS), max_size=12).map(" ".join),
)


@given(st.sampled_from(CLASS_SURFACES), hypotheses)
def test_strict_hits_are_a_subset_of_bidirectional_in_every_class(pair, hyp):
    tok = token(pair[1], pair[0])
    strict = score_one(tok, hyp, currency_mode="strict", aliases=BRANDS)
    wide = score_one(tok, hyp, currency_mode="bidirectional", aliases=BRANDS)
    if strict.hit:
        assert wide.hit


@given(
    st.lists(st.sampled_from(CLASS_SURFACES), max_size=8),
    hypotheses,
    st.sampled_from(["strict", "bidirectional"]),
)
def test_scoring_a_row_equals_scoring_each_token_alone(pairs, hyp, mode):
    tokens = [token(surface, cls) for cls, surface in pairs]
    config = ScoringConfig(language="te", currency_mode=mode, aliases=BRANDS)
    together = score_utterance(tokens, hyp, config)
    alone = [score_utterance([tok], hyp, config)[0] for tok in tokens]
    assert together == alone


def test_table_for_merges_once_per_language():
    config = ScoringConfig(language="te")
    first = config.table_for(None)
    assert config.table_for("te") is first
    assert first == TE_EN
    assert config.table_for("en") is EN
    # the cache is not part of the config's value
    assert config == ScoringConfig(language="te")


def test_tolerance_constant_is_half_percent():
    assert CURRENCY_TOLERANCE == pytest.approx(0.005)
    assert float(CURRENCY_TOLERANCE) == 0.005


def test_entity_token_validates_class():
    with pytest.raises(ConfigurationError):
        EntityToken(surface="x", matcher_class="phone")
    assert len(MATCHER_CLASSES) == 7


# ---------------------------------------------------------------------------
# score_utterance and aggregation
# ---------------------------------------------------------------------------

def test_score_utterance_dispatches_every_class(caplog):
    tokens = [
        token("9876543210", "digit_run"),
        token("500081", "pincode"),
        token("₹500", "currency_amount"),
        token("Paytm", "brand"),
        token("Jubilee Hills", "proper_noun"),
        token("54235", "spelled_digit"),
        token("8-2-293/82", "house_or_plot"),
    ]
    hyp = (
        "call 9876543210 pin 500081 pay rupees 500 via paytm "
        "near jubilee hills otp five four two three five flat 8-2-293/82"
    )
    config = ScoringConfig(aliases=BRANDS)
    results = score_utterance(tokens, hyp, config)
    assert [r.hit for r in results] == [True] * 7
    assert [r.matcher_class for r in results] == [t.matcher_class for t in tokens]


def test_score_utterance_uses_config_language_table():
    config = ScoringConfig(language="te", currency_mode="bidirectional")
    results = score_utterance(
        [token("₹5,00,000", "currency_amount")], "ఐదు లక్షల రూపాయలు", config
    )
    assert results[0].hit


def test_aggregate_ehr_micro_and_macro():
    pairs = [("digit_run", True), ("digit_run", False), ("brand", True)]
    report = aggregate_ehr(pairs)
    assert report.per_class["digit_run"].n == 2
    assert report.micro == pytest.approx(2 / 3)
    assert report.macro == pytest.approx((0.5 + 1.0) / 2)


def test_aggregate_ehr_accepts_match_results():
    results = score_utterance([token("500081", "pincode")], "500081")
    report = aggregate_ehr(results)
    assert report.micro == 1.0


def test_aggregate_ehr_empty():
    report = aggregate_ehr([])
    assert report.micro is None
    assert report.macro is None


def test_aggregate_ehr_zero_count_classes_do_not_appear():
    report = aggregate_ehr([("brand", True)])
    assert set(report.per_class) == {"brand"}


@given(
    st.lists(
        st.tuples(st.sampled_from(MATCHER_CLASSES), st.booleans()), min_size=1, max_size=40
    )
)
def test_aggregate_ehr_micro_matches_pooled_count(pairs):
    report = aggregate_ehr(pairs)
    assert report.micro == pytest.approx(sum(h for _, h in pairs) / len(pairs))
    assert 0.0 <= report.macro <= 1.0


def test_lcs_length_basic():
    assert lcs_length("54235", "5423") == 4
    assert lcs_length("abc", "xyz") == 0
    assert lcs_length("", "abc") == 0
    assert lcs_length("abcde", "abcde") == 5


def dp_lcs_length(a, b):
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["01", "0123456789", "ab"]).flatmap(
        lambda alphabet: st.tuples(st.text(alphabet, max_size=150), st.text(alphabet, max_size=150))
    )
)
def test_lcs_length_matches_dp(pair):
    a, b = pair
    assert lcs_length(a, b) == lcs_length(b, a) == dp_lcs_length(a, b)
