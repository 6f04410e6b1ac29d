import logging
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matcher_oracle
from indicscore import corpus
from indicscore.errors import ConfigurationError, ReferenceDataError
from indicscore.matchers import (
    CURRENCY_TOLERANCE_DIVISOR,
    MATCHER_CLASSES,
    AliasTable,
    EntityToken,
    MatchResult,
    ScoringConfig,
    aggregate_ehr,
    lcs_length,
    score_utterance,
)
from indicscore.numbers import ENGLISH_TABLE, load_language_table

EN = ENGLISH_TABLE
TE = load_language_table("te")
TE_EN = TE.merged_with(EN)

BRAND_GROUPS = [
    ("Paytm", "paytm", "పేటీఎం"),
    ("PhonePe", "phone pe", "ఫోన్ పే"),
    ("Swiggy",),
]
BRANDS = AliasTable(BRAND_GROUPS)


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
        assert score_one(token("9876543210", "digit_run"), "dial 98765 43210").hit

    def test_digit_run_next_to_another_number_hits(self):
        # each group of a fused run is a block of its own
        assert score_one(token("98765", "digit_run"), "ఫోన్ 98765 500081").hit
        assert score_one(token("500081", "digit_run"), "ఫోన్ 98765 500081").hit

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
        assert score_one(token("500081", "pincode"), "5 0 0 0 8 1").hit

    def test_single_digit_groups_are_one_block(self):
        # spoken digits merge into one block, which never splits again
        assert not score_one(token("008", "digit_run"), "5 0 0 0 8 1").hit

    def test_part_of_a_comma_grouped_number_misses(self):
        # commas group the digits of one number; only spaces part groups
        assert not score_one(token("000", "digit_run"), "₹5,00,000").hit
        assert not score_one(token("876543", "digit_run"), "total 9,876,543,210 paid").hit
        assert score_one(token("500000", "digit_run"), "₹5,00,000").hit

    def test_pincode_after_a_phone_fragment_hits(self):
        assert score_one(token("500081", "pincode"), "ఫోన్ 98765 500081").hit

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
        # a decimal reference: 0.5 percent of 250000 is exactly 1250
        assert score_one(token("₹2.5 lakh", "currency_amount"), "rs 251250", currency_mode="strict").hit
        assert not score_one(token("₹2.5 lakh", "currency_amount"), "rs 251251", currency_mode="strict").hit

    @pytest.mark.parametrize("surface, hypothesis, detail", [
        ("₹1,500.75", "paid 1500.75 rupees", "hypothesis amount 1500.75 within 0.5% of 1500.75"),
        ("₹2.50", "paid 2.5 rupees", "hypothesis amount 2.5 within 0.5% of 2.5"),
        ("₹1.05", "paid 1.050 rupees", "hypothesis amount 1.05 within 0.5% of 1.05"),
        ("₹2.5 lakh", "rs 251250", "hypothesis amount 251250 within 0.5% of 250000"),
    ])
    def test_currency_detail_writes_amounts_as_decimal_numerals(self, surface, hypothesis, detail):
        # an exact decimal, never the reduced fraction (6003/4, 5/2) the amount is held as
        assert score_one(token(surface, "currency_amount"), hypothesis, currency_mode="strict").detail == detail

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

    @pytest.mark.parametrize("mode", ["strict", "bidirectional"])
    def test_currency_numeral_does_not_fuse_with_a_following_unit_word(self, mode):
        # "₹500 five people" holds 500 and 5, never 505
        assert not score_one(token("₹505", "currency_amount"), "paid ₹500 five people", currency_mode=mode).hit

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
        assert result.detail == "alias 'zomato' present"
        assert caplog.records == []  # the CLI reports unlisted brands, once per surface

    def test_brand_empty_hypothesis_misses(self):
        assert not score_one(token("Paytm", "brand"), "", aliases=BRANDS).hit

    def test_alias_lookup_is_casefolded_and_first_group_wins(self):
        table = AliasTable([("Paytm", "paytm", "పేటీఎం"), ("PayTM Mall", "PAYTM"), ()])
        assert len(table) == 2
        assert table.lookup("PAYTM") == ("paytm", "పేటీఎం")
        assert table.lookup("paytm mall") == ("paytm mall", "paytm")
        assert table.lookup("Swiggy") is None

    @pytest.mark.parametrize("text, groups", [
        ("# canonical\taliases\n\nPaytm\tపేటీఎం\n   \n#Swiggy\tస్విగ్గీ\n", [("paytm", "పేటీఎం")]),
        ("\ufeff# canonical\taliases\n\nPaytm\tపేటీఎం\n   \n#Swiggy\tస్విగ్గీ\n", [("paytm", "పేటీఎం")]),
        ("Paytm \tpaytm app\t # the app name\n  # note\tx\nSwiggy # not yet\n", [("paytm", "paytm app"), ("swiggy",)]),
    ], ids=["comments-and-blank-lines", "byte-order-mark", "spaces-and-comments-anywhere"])
    def test_alias_file_skips_comments_and_blank_lines(self, tmp_path, text, groups):
        path = tmp_path / "aliases.tsv"
        path.write_text(text, encoding="utf-8")
        table = AliasTable.from_file(path)
        assert table._groups == groups
        assert table.lookup("Paytm") == groups[0]

    def test_alias_lookup_reads_digits_of_any_script(self):
        table = AliasTable([("7-Eleven", "७-इलेवन")])
        assert table.lookup("७-ELEVEN") == table.lookup("7-इलेवन") == ("7-eleven", "7-इलेवन")
        assert score_one(token("७-इलेवन", "brand"), "at 7-Eleven", aliases=table).hit
        assert score_one(token("7-Eleven", "brand"), "at ७-इलेवन", aliases=table).hit

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


DIGIT_GROUPS = st.one_of(
    st.text("0123456789", min_size=1, max_size=6),
    st.sampled_from(["5", "0", "98765", "43210", "500081", "５０"]),
)
DIGIT_SEPARATORS = st.sampled_from([" ", ",", ", ", "  ", "-", "\u00a0", " ఫోన్ ", "/"])


@st.composite
def digit_texts(draw):
    groups = draw(st.lists(DIGIT_GROUPS, min_size=1, max_size=8))
    text = groups[0]
    for group in groups[1:]:
        text += draw(DIGIT_SEPARATORS) + group
    return groups, text


@settings(max_examples=300)
@given(digit_texts(), st.data())
def test_digit_classes_agree_with_a_naive_restatement(hyp, data):
    groups, text = hyp
    start = data.draw(st.integers(0, len(groups) - 1))
    end = data.draw(st.integers(start + 1, len(groups)))
    ref = data.draw(st.one_of(
        st.just(" ".join(groups[start:end])),
        st.text("0123456789", min_size=1, max_size=8),
    ))
    digits = "".join(ch for ch in unicodedata.normalize("NFKC", ref) if ch in "0123456789")
    expected = digits in matcher_oracle.digit_blocks(text)
    assert score_one(token(ref, "digit_run"), text).hit == expected
    if len(digits) == 6:
        assert score_one(token(ref, "pincode"), text).hit == expected


# The zero of each script whose digits a hypothesis may carry; NFKC folds
# only the fullwidth ones.
DIGIT_ZEROS = {"devanagari": 0x0966, "telugu": 0x0C66, "tamil": 0x0BE6, "fullwidth": 0xFF10}


def in_script(text, zero):
    return text.translate({ord("0") + d: zero + d for d in range(10)})


@pytest.mark.parametrize("mode", ["strict", "bidirectional"])
@pytest.mark.parametrize("ref, cls, hyp", [
    ("500081", "pincode", "पिन ५०००८१"),
    ("500081", "pincode", "పిన్ ౫౦౦౦౮౧"),
    ("500081", "pincode", "பின் ௫௦௦௦௮௧"),
    ("500081", "pincode", "pin ５０００８１"),
    ("9876543210", "digit_run", "९८७६५ ४३२१०"),
    ("₹50,000", "currency_amount", "₹५०,०००"),
    ("₹५०,०००", "currency_amount", "₹50,000"),
    ("₹५०,०००", "currency_amount", "fifty thousand rupees"),
    ("౫౪౨౩౫", "spelled_digit", "five four two three five"),
    ("८-२-२९३/८२", "house_or_plot", "flat 8-2-293/82"),
])
def test_digits_of_any_script_hit(ref, cls, hyp, mode):
    result = score_one(token(ref, cls), hyp, currency_mode=mode)
    assert result.hit and result.surface == ref  # the result keeps the surface as written


@pytest.mark.parametrize("surface, cls, message", [
    ("५००८१", "pincode", "pincode token '५००८१' must have exactly 6 digits, found 5"),
    ("౫౦౦౦౮౧౨", "pincode", "pincode token '౫౦౦౦౮౧౨' must have exactly 6 digits, found 7"),
    ("₹५०,००० ५", "currency_amount", "currency token '₹५०,००० ५' does not parse as an amount"),
    ("abc", "digit_run", "digit run token 'abc' has no digits"),
])
def test_a_reference_error_quotes_the_surface_as_written(surface, cls, message):
    with pytest.raises(ReferenceDataError) as raised:
        score_utterance([token(surface, cls)], "x")
    assert str(raised.value) == message


DIGIT_CLASS_SURFACES = [pair for pair in CLASS_SURFACES if pair[0] not in ("brand", "proper_noun")]


@given(
    st.sampled_from(DIGIT_CLASS_SURFACES),
    st.one_of(hypotheses, digit_texts().map(lambda drawn: drawn[1])),
    st.sampled_from(sorted(DIGIT_ZEROS)),
    st.sampled_from(["strict", "bidirectional"]),
)
def test_the_script_of_the_hypothesis_digits_changes_no_digit_class_hit(pair, hyp, script, mode):
    tok = token(pair[1], pair[0])
    config = ScoringConfig(language="te", currency_mode=mode)
    ascii_hit = score_utterance([tok], hyp, config)[0].hit
    assert score_utterance([tok], in_script(hyp, DIGIT_ZEROS[script]), config)[0].hit == ascii_hit


# The four word classes against tests/matcher_oracle.py. The alias groups
# list one brand in two digit scripts and one whose casefold changes length.
ORACLE_GROUPS = [
    ("Paytm", "paytm", "పేటీఎం"),
    ("PhonePe", "phone pe", "ఫోన్ పే"),
    ("Swiggy",),
    ("7-Eleven", "७-इलेवन"),
    ("Straße Shop", "STRASSE SHOP"),
]
ORACLE_SURFACES = {
    "brand": [
        "Paytm", "PAYTM", "పేటీఎం", "PhonePe", "Phone Pe", "Swiggy", "Zomato", "7-Eleven", "७-इलेवन",
        "७-ELEVEN", "straße shop", "Big Basket", "(Paytm)", "!!",
    ],
    "proper_noun": [
        "Jubilee Hills", "జూబ్లీ హిల్స్", "rajiv gandhi international airport", "Anna Nagar",
        "hills Hills jubilee", "Straße", "K", "!!",
    ],
    "spelled_digit": [
        "five four two", "54235", "౫౪౨౩౫", "ఐదు నాలుగు రెండు", "twenty one 7", "nine hundred", "hundred",
        "five-four", "४२ पाँच",
    ],
    "house_or_plot": ["8-2-293/82", "८-२-२९३/८२", "plot 42", "Flat No. 5", "...", "H.No 7"],
}
ORACLE_WORDS = sorted(
    {word for surfaces in ORACLE_SURFACES.values() for surface in surfaces for word in surface.split()}
    | {word for group in ORACLE_GROUPS for alias in group for word in alias.split()}
    | {"pay", "now,", "(ok)", "５０", "5", "4", "2", "42", "७", "౨", "nine", "hills.", "AIRPORT", "ఐదు", "నాలుగు"}
)
ORACLE_SEPARATORS = st.sampled_from([" ", "  ", "\u00a0", " , ", "\t"])


def written_forms(surface):
    """The surface, in capitals, in each digit script, and every alias of a
    group that lists it."""
    key = matcher_oracle.ascii_digits(surface).casefold()
    aliases = [alias for group in ORACLE_GROUPS
               if key in [matcher_oracle.ascii_digits(entry).casefold() for entry in group] for alias in group]
    return [surface, surface.upper(), *(in_script(surface, zero) for zero in DIGIT_ZEROS.values()), *aliases]


@st.composite
def oracle_rows(draw):
    """A (class, surface) pair and a hypothesis of words that may hold a
    written form of the surface."""
    cls, surface = draw(st.sampled_from(
        [(cls, surface) for cls, surfaces in ORACLE_SURFACES.items() for surface in surfaces]
    ))
    pieces = draw(st.lists(st.sampled_from(ORACLE_WORDS), max_size=10))
    if draw(st.booleans()):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(written_forms(surface))))
    return cls, surface, "".join(piece + draw(ORACLE_SEPARATORS) for piece in pieces)


def assert_the_oracle_agrees(cls, surface, hyp, language, mode):
    config = ScoringConfig(language=language, currency_mode=mode, aliases=AliasTable(ORACLE_GROUPS))
    units = config.table_for(language).units
    oracle = {
        "brand": lambda: matcher_oracle.brand_hit(surface, hyp, ORACLE_GROUPS),
        "proper_noun": lambda: matcher_oracle.proper_noun_hit(surface, hyp),
        "spelled_digit": lambda: matcher_oracle.spelled_digit_hit(surface, hyp, units),
        "house_or_plot": lambda: matcher_oracle.house_or_plot_hit(surface, hyp),
    }[cls]
    try:
        expected = oracle()
    except matcher_oracle.NoReference:
        with pytest.raises(ReferenceDataError):
            score_utterance([token(surface, cls)], hyp, config)
        return
    assert score_utterance([token(surface, cls)], hyp, config)[0].hit == expected, (cls, surface, hyp)


@settings(max_examples=500)
@given(oracle_rows(), st.sampled_from(["te", "ta", "hi"]), st.sampled_from(["strict", "bidirectional"]))
def test_the_word_classes_agree_with_a_naive_restatement(row, language, mode):
    assert_the_oracle_agrees(*row, language, mode)


@pytest.mark.parametrize("mode", ["strict", "bidirectional"])
def test_the_word_classes_agree_with_a_naive_restatement_on_every_written_form(mode):
    for cls, surfaces in ORACLE_SURFACES.items():
        for surface in surfaces:
            for form in written_forms(surface):
                for hyp in (form, f"pay {form}, now", f"{form}{form}"):
                    assert_the_oracle_agrees(cls, surface, hyp, "te", mode)


# Word insertion: each surface of CLASS_SURFACES with forms of it that a
# hypothesis may carry, and words to insert between two of them.
OCCURRENCES = {
    "9876543210": ["9876543210", "98765 43210", "९८७६५ ४३२१०"],
    "42": ["42", "४२"],
    "500081": ["500081", "5 0 0 0 8 1", "౫౦౦౦౮౧"],
    "₹500": ["₹500", "500 rupees", "five hundred"],
    "₹5,00,000": ["₹5,00,000", "500000", "five lakh", "ఐదు లక్షల"],
    "rs 250": ["rs 250", "two hundred fifty"],
    "five lakh": ["five lakh", "500000"],
    "two hundred rupees": ["two hundred rupees", "200"],
    "₹1,250": ["₹1,250", "1250", "one thousand two hundred fifty"],
    "Paytm": ["Paytm", "పేటీఎం"],
    "PhonePe": ["phone pe", "PhonePe"],
    "Jubilee Hills": ["Jubilee Hills", "hills jubilee"],
    "rajiv gandhi international airport": ["rajiv gandhi international airport"],
    "54235": ["54235", "five four two three five"],
    "five four two": ["five four two", "5 4 2"],
    "8-2-293/82": ["8-2-293/82", "(8-2-293/82)"],
    "plot 42": ["plot 42", "Plot 42."],
}
INSERTED_WORDS = ["అక్కడ", "then", "மற்றும்", "और", "please"]


def test_the_inserted_words_meet_the_relations_precondition():
    lexicon = set()
    for language in ("te", "ta", "hi", "en"):
        table = ScoringConfig(language=language).table_for(language)
        lexicon |= set(table.units) | set(table.multipliers) | table.currency_markers
    surface_words = {
        word.casefold()
        for text in [*OCCURRENCES, *(form for forms in OCCURRENCES.values() for form in forms),
                     *(alias for group in BRAND_GROUPS for alias in group)]
        for word in matcher_oracle.words(text)
    }
    for word in INSERTED_WORDS:
        assert not any(unicodedata.category(ch) == "Nd" for ch in word)
        assert word.casefold() not in lexicon | surface_words


@st.composite
def rows_with_an_insertion(draw):
    """Entity tokens, the form each takes in the hypothesis, a hypothesis of
    those forms among other words, and the same hypothesis with a word
    inserted between two of the forms."""
    entities = draw(st.lists(st.sampled_from(CLASS_SURFACES), min_size=2, max_size=5))
    forms = [draw(st.sampled_from(OCCURRENCES[surface])) for _, surface in entities]
    fillers = draw(st.lists(st.sampled_from(HYP_WORDS), max_size=5))
    order = draw(st.permutations(range(len(forms) + len(fillers))))
    pieces = [(forms + fillers)[i] for i in order]
    position = [order.index(i) for i in range(len(forms))]  # the piece each entity form is
    gap = draw(st.integers(min(position) + 1, max(position)))
    word = draw(st.sampled_from(INSERTED_WORDS))
    tokens = [token(surface, cls) for cls, surface in entities]
    return tokens, forms, " ".join(pieces), " ".join(pieces[:gap] + [word] + pieces[gap:])


@settings(max_examples=300)
@given(rows_with_an_insertion(), st.sampled_from(["strict", "bidirectional"]))
@example(  # the scanner once read "500 five" as 505, then "five lakh" after a lone hundred
    ([token("₹500", "currency_amount"), token("₹5,00,000", "currency_amount")], ["₹500", "five lakh"],
     "₹500 five hundred five lakh", "₹500 అక్కడ five hundred five lakh"),
    "strict",
)
def test_a_word_inserted_between_two_entities_turns_no_hit_into_a_miss(row, mode):
    tokens, forms, hyp, inserted = row
    config = ScoringConfig(language="te", currency_mode=mode, aliases=BRANDS)
    before = score_utterance(tokens, hyp, config)
    after = score_utterance(tokens, inserted, config)
    for tok, form, was, now in zip(tokens, forms, before, after):
        # a form that does not recover its token alone is no occurrence of it
        if score_utterance([tok], form, config)[0].hit and was.hit:
            assert now.hit, (tok, hyp, inserted, now.detail)


def test_table_for_merges_once_per_language():
    config = ScoringConfig(language="te")
    first = config.table_for(None)
    assert config.table_for("te") is first
    assert first == TE_EN
    assert config.table_for("en") is EN
    # the cache is not part of the config's value
    assert config == ScoringConfig(language="te")


def test_tolerance_constant_is_half_percent():
    assert type(CURRENCY_TOLERANCE_DIVISOR) is int
    assert 1 / CURRENCY_TOLERANCE_DIVISOR == 0.005


@pytest.mark.parametrize("surface, matcher_class, message", [
    ("x", "phone", "unknown matcher class 'phone'"),
    ("", "digit_run", "entity token surface must be non-empty"),
])
def test_entity_token_validates_class_and_surface(surface, matcher_class, message):
    with pytest.raises(ConfigurationError, match=message):
        EntityToken(surface=surface, matcher_class=matcher_class)
    assert len(MATCHER_CLASSES) == 7


def test_matchers_reexport_the_corpus_token_model():
    assert EntityToken is corpus.EntityToken
    assert MATCHER_CLASSES is corpus.MATCHER_CLASSES


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


def results(pairs):
    return [MatchResult(cls, cls, hit) for cls, hit in pairs]


def test_aggregate_ehr_micro_and_macro():
    report = aggregate_ehr(results([("digit_run", True), ("digit_run", False), ("brand", True)]))
    assert report.per_class["digit_run"].n == 2
    assert report.micro == pytest.approx(2 / 3)
    assert report.macro == pytest.approx((0.5 + 1.0) / 2)


def test_aggregate_ehr_macro_is_the_same_on_every_python_version():
    pairs = [(cls, i < hits) for cls, hits in (("brand", 1), ("digit_run", 2), ("pincode", 3)) for i in range(10)]
    # rates 0.1, 0.2 and 0.3: a plain sum gives 0.20000000000000004 before Python 3.12
    assert aggregate_ehr(results(pairs)).macro == 0.19999999999999998


def test_aggregate_ehr_accepts_match_results():
    results = score_utterance([token("500081", "pincode")], "500081")
    report = aggregate_ehr(results)
    assert report.micro == 1.0


def test_aggregate_ehr_empty():
    report = aggregate_ehr([])
    assert report.micro is None
    assert report.macro is None


def test_aggregate_ehr_zero_count_classes_do_not_appear():
    report = aggregate_ehr(results([("brand", True)]))
    assert set(report.per_class) == {"brand"}


@given(
    st.lists(
        st.tuples(st.sampled_from(MATCHER_CLASSES), st.booleans()), min_size=1, max_size=40
    )
)
def test_aggregate_ehr_micro_matches_pooled_count(pairs):
    report = aggregate_ehr(results(pairs))
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
