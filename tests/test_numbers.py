from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indicscore.errors import ConfigurationError, DataError
from indicscore.matchers import ScoringConfig
from indicscore.numbers import (
    ENGLISH_TABLE,
    _english_entries,
    MultiplierTable,
    load_language_table,
    load_lexicon,
    parse_amount_text,
    parse_currency_expression,
    parse_latin_numeral,
    parse_number_words,
    rewrite_digit_runs,
    spell_number,
)
from indicscore.textnorm import casefold_normalize, tokens_for_scoring

EN = ENGLISH_TABLE
TE = load_language_table("te")
TA = load_language_table("ta")
HI = load_language_table("hi")
ALL_TABLES = {"en": EN, "te": TE, "ta": TA, "hi": HI}


def words_value(text, table=EN):
    return parse_number_words(text.split(), table)


# ---------------------------------------------------------------------------
# Latin numerals
# ---------------------------------------------------------------------------

def test_plain_numerals():
    assert parse_latin_numeral("0") == 0
    assert parse_latin_numeral("500000") == 500000


def test_western_grouping():
    assert parse_latin_numeral("500,000") == 500000
    assert parse_latin_numeral("1,234,567") == 1234567


def test_indian_grouping():
    assert parse_latin_numeral("5,00,000") == 500000
    assert parse_latin_numeral("1,23,45,678") == 12345678
    assert parse_latin_numeral("50,000") == 50000


def test_bad_grouping_rejected():
    for bad in ("5,000,00", "12,34", "1,2345", ",500", "500,", "1,,000"):
        assert parse_latin_numeral(bad) is None


def test_decimals():
    assert parse_latin_numeral("12.50") == Fraction(25, 2)
    assert parse_latin_numeral("1,00,000.25") == Fraction(10000025, 100)
    assert parse_latin_numeral("12.") is None


def test_exactness():
    # 0.1 is not representable in binary floating point; Fractions are exact
    assert parse_latin_numeral("0.1") == Fraction(1, 10)
    assert parse_latin_numeral("0.1") != 0.1000000000000001


@pytest.mark.parametrize("parse, integral, decimal, decimal_value", [
    (parse_latin_numeral, "5,00,000", "12.50", Fraction(25, 2)),
    (lambda text: parse_number_words(text.split(), EN), "five lakh", "2.5 lakh", Fraction(250000)),
    (lambda text: parse_amount_text(text, EN), "₹5,00,000", "₹12.50", Fraction(25, 2)),
    (lambda text: parse_currency_expression(text, EN)[0], "pay 5 lakh", "pay 2.5 lakh", Fraction(250000)),
], ids=["parse_latin_numeral", "parse_number_words", "parse_amount_text", "parse_currency_expression"])
def test_an_integral_amount_is_an_int_and_a_decimal_one_its_exact_fraction(parse, integral, decimal, decimal_value):
    assert (type(parse(integral)), parse(integral)) == (int, 500000)
    assert (type(parse(decimal)), parse(decimal)) == (Fraction, decimal_value)


def test_non_latin_digits_rejected():
    assert parse_latin_numeral("५००") is None
    assert parse_latin_numeral("౫౦") is None


# ---------------------------------------------------------------------------
# Word grammar
# ---------------------------------------------------------------------------

def test_small_numbers():
    assert words_value("zero") == 0
    assert words_value("seven") == 7
    assert words_value("nineteen") == 19
    assert words_value("twenty") == 20
    assert words_value("twenty five") == 25
    assert words_value("ninety nine") == 99


def test_hundreds():
    assert words_value("one hundred") == 100
    assert words_value("two hundred fifty three") == 253
    assert words_value("nineteen hundred") == 1900
    assert words_value("nine hundred ninety nine") == 999


def test_bare_hundred_needs_count():
    assert words_value("hundred") is None
    assert words_value("hundred five") is None


def test_multiplier_groups():
    assert words_value("five lakh") == 500000
    assert words_value("five hundred thousand") == 500000
    assert words_value("twenty lakh thirty thousand") == 2030000
    assert words_value("three crore five") == 30000005
    assert words_value("one lakh one") == 100001
    assert words_value("twelve crore thirty four lakh") == 123400000


def test_multipliers_must_descend():
    assert words_value("five thousand two lakh") is None
    assert words_value("five lakh five lakh") is None


def test_multipliers_need_counts():
    assert words_value("thousand lakh") is None
    assert words_value("lakh") is None
    assert words_value("thousand") is None


def test_crore_compound():
    assert words_value("one thousand crore") == 10**10
    assert words_value("five lakh crore") == 5 * 10**12
    assert words_value("one lakh crore") == 10**12
    # compounding is crore-only; the same shape with lakh stays invalid
    assert words_value("one thousand lakh") is None


def test_two_plain_numerals_never_fuse():
    assert words_value("five six") is None
    assert words_value("fifty ten") is None
    assert words_value("zero five") is None
    assert words_value("twenty nineteen") is None


def test_compose_after_hundred_limits():
    assert words_value("one hundred ninety nine") == 199
    assert words_value("one hundred hundred") is None


def test_hyphenated_compounds():
    assert words_value("twenty-five") == 25
    assert words_value("ninety-nine lakh") == 9900000


def test_hindi_words():
    assert words_value("पाँच लाख", HI) == 500000
    assert words_value("पांच लाख", HI) == 500000
    assert words_value("एक हज़ार", HI) == 1000
    assert words_value("निन्यानवे", HI) == 99
    assert words_value("सात सौ तिरसठ", HI) == 763


def test_telugu_words():
    assert words_value("ఐదు లక్షలు", TE) == 500000
    assert words_value("ఇరవై లక్షల", TE) == 2000000
    assert words_value("మూడు వేల ఐదు వందల", TE) == 3500
    assert words_value("తొంభై తొమ్మిది", TE) == 99


def test_tamil_words():
    assert words_value("ஐந்து லட்சம்", TA) == 500000
    assert words_value("இரண்டு கோடி", TA) == 20000000
    assert words_value("தொண்ணூறு ஒன்பது", TA) == 99


def test_romanized_loans_work_in_native_tables():
    assert words_value("పది hazaar", TE) == 10000
    assert words_value("పది లక్షల", TE) == 1000000


def test_casefolding_in_lookup():
    assert words_value("Five LAKH") == 500000


# ---------------------------------------------------------------------------
# Amount parsing (markers, scanning)
# ---------------------------------------------------------------------------

def test_parse_amount_text_with_markers():
    assert parse_amount_text("₹ five lakh", EN) == 500000
    assert parse_amount_text("rupees five hundred", EN) == 500
    assert parse_amount_text("five lakh rupees", EN) == 500000
    assert parse_amount_text("₹5,00,000", EN) == 500000


def test_parse_amount_text_whole_input_only():
    assert parse_amount_text("about five lakh total", EN) is None
    assert parse_amount_text("", EN) is None


def test_a_zero_count_takes_no_multiplier():
    # "zero lakh" is no amount; the scan reads the zero alone
    assert parse_amount_text("zero lakh", EN) is None
    assert parse_currency_expression("zero lakh rupees", EN) == [0]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from(["₹5,00,000", "Five", "LAKH", "ఐదు", "లక్షల", "rupees", "1.5", "ß", "K"])
        | st.text(max_size=6),
        max_size=6,
    ).map(" ".join),
    st.sampled_from([EN, TE.merged_with(EN)]),
)
def test_amount_parse_from_scoring_tokens_equals_parse_amount_text(text, table):
    # parse_amount_text parses the scoring tokens, which are casefolded already,
    # and so skips parse_number_words' casefold.
    tokens = tokens_for_scoring(text)
    assert all(casefold_normalize(t) == t for t in tokens)
    amount_tokens = [t for t in tokens if t not in table.currency_markers]
    expected = parse_number_words(amount_tokens, table) if amount_tokens else None
    assert parse_amount_text(text, table) == expected


def test_parse_currency_expression_scans():
    amounts = parse_currency_expression("pay ₹500 or maybe five lakh later", EN)
    assert amounts == [500, 500000]
    # adjacent numerals stay two amounts
    amounts = parse_currency_expression("pay 5 7 then two hundred 3", EN)
    assert amounts == [5, 7, 200, 3]


def test_parse_currency_expression_takes_longest_run():
    amounts = parse_currency_expression("two hundred fifty thousand exactly", EN)
    assert amounts == [250000]


@pytest.mark.parametrize("text, amounts", [
    ("two hundred five hundred", [200, 500]),
    ("two hundred twenty five hundred", [200, 2500]),
    ("₹500 five hundred five lakh", [500, 50500000]),
    ("five lakh five lakh 1250", [500000, 501250]),
    ("five lakh twenty thousand five lakh", [520000, 500000]),
    ("five lakh 500 lakh", [500000, 50000000]),
    ("twenty five hundred", [2500]),
    ("two hundred five", [205]),
])
def test_parse_currency_expression_leaves_a_count_to_the_word_that_scales_it(text, amounts):
    # a count that the next hundred or multiplier word scales starts a new
    # amount when that word cannot extend the one before it
    assert parse_currency_expression(text, EN) == amounts


@pytest.mark.parametrize("text, amounts", [
    ("₹500 five", [500, 5]),
    ("20 one", [20, 1]),
    ("5 hundred five", [500, 5]),
    ("5 hundred", [500]),
    ("5 lakh", [500000]),
])
def test_a_count_written_in_digits_takes_no_unit_word(text, amounts):
    # a hundred or a multiplier word still scales a numeral count
    assert parse_currency_expression(text, EN) == amounts


def test_parse_currency_expression_empty():
    assert parse_currency_expression("no numbers here", EN) == []


def test_parse_currency_expression_native():
    amounts = parse_currency_expression("మొత్తం ఐదు లక్షల రూపాయలు అయ్యింది", TE)
    assert amounts == [500000]


# ---------------------------------------------------------------------------
# Spelling
# ---------------------------------------------------------------------------

def test_spell_basic():
    assert spell_number(0, EN) == ["zero"]
    assert spell_number(7, EN) == ["seven"]
    assert spell_number(25, EN) == ["twenty-five"]
    assert spell_number(100, EN) == ["one", "hundred"]
    assert spell_number(500000, EN) == ["five", "lakh"]
    assert spell_number(2030000, EN) == ["twenty", "lakh", "thirty", "thousand"]


def test_spell_uses_indian_grouping():
    assert spell_number(10**7, EN) == ["one", "crore"]
    assert spell_number(123456789, EN) == [
        "twelve", "crore", "thirty-four", "lakh", "fifty-six", "thousand",
        "seven", "hundred", "eighty-nine",
    ]


def test_spell_large_crore_counts():
    # crore counts up to 99999 are spelled as their own number
    words = spell_number(99999 * 10**7, EN)
    assert words[:5] == ["ninety-nine", "thousand", "nine", "hundred", "ninety-nine"]
    assert words[5] == "crore"


def test_spell_rejects_out_of_range():
    with pytest.raises(ValueError):
        spell_number(-1, EN)
    with pytest.raises(ValueError):
        spell_number(10**12, EN)
    with pytest.raises(ValueError):
        spell_number(1.5, EN)


def test_spell_boundary_value():
    words = spell_number(10**12 - 1, EN)
    assert parse_number_words(words, EN) == 10**12 - 1


def test_spell_telugu_two_word_tens():
    # tables without single words for 21..99 fall back to tens + ones
    assert spell_number(25, TE) == ["ఇరవై", "ఐదు"]
    assert spell_number(99, TE) == ["తొంభై", "తొమ్మిది"]


def test_spell_hindi_single_word_tens():
    assert spell_number(25, HI) == ["पच्चीस"]
    assert spell_number(99, HI) == ["निन्यानवे"]


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10**12 - 1), st.sampled_from(sorted(ALL_TABLES)))
def test_spell_parse_round_trip(value, lang):
    table = ALL_TABLES[lang]
    assert parse_number_words(spell_number(value, table), table) == value


def oracle_spell_number(value, table):
    # spell_number as it stood with its own thousand, hundred and unit steps,
    # over a first-word lookup of its own
    def word(value, what):
        for w, v in (table.units if what == "unit" else table.multipliers).items():
            if v == value:
                return w
        raise ConfigurationError(f"table {table.language!r} has no {what} word for {value}; cannot spell")

    def small(n):
        # 1..99: a single word when the table has one, else tens + ones
        if n in table.units.values():
            return [word(n, "unit")]
        tens, ones = divmod(n, 10)
        if tens == 0 or ones == 0:
            raise ConfigurationError(f"table {table.language!r} has no unit word for {n}")
        return [word(tens * 10, "unit"), word(ones, "unit")]

    def count(n):
        # 0..99999: the count in front of one multiplier
        words = []
        if n >= 1000:
            q, n = divmod(n, 1000)
            words += small(q) + [word(1000, "multiplier")]
        if n >= 100:
            q, n = divmod(n, 100)
            words += small(q) + [word(100, "unit")]
        if n:
            words += small(n)
        return words

    if value == 0:
        return [word(0, "unit")]
    words = []
    n = value
    for mult in (10**7, 10**5, 10**3):
        if n >= mult:
            q, n = divmod(n, mult)
            words += count(q) + [word(mult, "multiplier")]
    if n >= 100:
        q, n = divmod(n, 100)
        words += small(q) + [word(100, "unit")]
    if n:
        words += small(n)
    return words


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10**12 - 1), st.sampled_from(sorted(ALL_TABLES)))
@example(0, "te")
@example(99999, "ta")
@example(10**5, "hi")
@example(10**7 + 1, "en")
@example(25, "te")  # tens + ones
@example(99, "ta")
@example(100, "en")  # the hundred step
@example(12_345_678_901, "hi")  # a crore count with thousands and hundreds
def test_spell_number_matches_its_former_steps(value, lang):
    table = ALL_TABLES[lang]
    assert spell_number(value, table) == oracle_spell_number(value, table)


DIGITS_ONLY = MultiplierTable.from_entries(
    "xx", [(word, value, "unit", "latin") for value, word in enumerate("zero one two three four five six seven eight nine".split())]
)


@pytest.mark.parametrize("value, message", [
    (10, "table 'xx' has no unit word for 10"),
    (25, "table 'xx' has no unit word for 20; cannot spell"),
    (100, "table 'xx' has no unit word for 100; cannot spell"),
    (1000, "table 'xx' has no multiplier word for 1000; cannot spell"),
])
def test_a_missing_word_raises_as_the_former_steps_did(value, message):
    with pytest.raises(ConfigurationError) as former:
        oracle_spell_number(value, DIGITS_ONLY)
    with pytest.raises(ConfigurationError) as exc:
        spell_number(value, DIGITS_ONLY)
    assert str(exc.value) == str(former.value) == message


# ---------------------------------------------------------------------------
# Digit-run rewriting
# ---------------------------------------------------------------------------

def test_rewrite_grouped():
    assert rewrite_digit_runs("pay 500000 now", EN) == "pay five lakh now"
    # a whole grouped numeral is one amount
    assert rewrite_digit_runs("बताइए ₹7,00,00,000 है", HI) == "बताइए ₹सात करोड़ है"
    assert rewrite_digit_runs("pay ₹50,000 now", EN) == "pay ₹fifty thousand now"
    # the digits after a decimal point are spelled one by one
    assert rewrite_digit_runs("₹2.50", HI) == "₹दो.पाँच शून्य"
    assert rewrite_digit_runs("pin 500081", EN, "digit_by_digit") == (
        "pin five zero zero zero eight one"
    )


def test_rewrite_single_digits_always_unit_words():
    assert rewrite_digit_runs("room 5", EN) == "room five"
    assert rewrite_digit_runs("room 5", EN, "digit_by_digit") == "room five"


def test_rewrite_leading_zero_runs_go_digit_by_digit():
    assert rewrite_digit_runs("code 054", EN) == "code zero five four"


def test_rewrite_preserves_non_digit_text():
    text = "ఖాతా 123 లో ₹500 జమ"
    out = rewrite_digit_runs(text, TE)
    assert "123" not in out and "500" not in out
    assert out.startswith("ఖాతా ") and " జమ" in out


def test_rewrite_mode_validated():
    with pytest.raises(ConfigurationError):
        rewrite_digit_runs("5", EN, "fancy")


def test_rewrite_huge_run_grouped_rejected():
    with pytest.raises(ValueError):
        rewrite_digit_runs("1000000000000", EN)
    with pytest.raises(DataError):
        rewrite_digit_runs("₹10,00,00,00,00,000", EN)
    # digit_by_digit has no magnitude limit
    out = rewrite_digit_runs("1000000000000", EN, "digit_by_digit")
    assert out.split()[0] == "one" and set(out.split()[1:]) == {"zero"}


@pytest.mark.parametrize("text, mode, out", [
    ("05,000", "grouped", "zero five,zero zero zero"),  # a leading-zero group
    ("1,2,3", "grouped", "one,two,three"),  # a malformed grouping
    ("1,234,5678", "grouped", "one,two hundred thirty-four,five thousand six hundred seventy-eight"),
    ("1,500.50", "grouped", "one,five hundred.five zero"),  # a decimal
    ("12.1,000", "grouped", "twelve.one,zero zero zero"),
    ("pay ₹2.50 now", "grouped", "pay ₹two.five zero now"),  # a fraction goes digit by digit
    ("pi 3.14159", "grouped", "pi three.one four one five nine"),
    ("Rs.500", "grouped", "Rs.five hundred"),  # a point after no digit starts no fraction
    ("paid .50", "grouped", "paid .fifty"),
    ("50,000", "digit_by_digit", "five zero,zero zero zero"),
])
def test_rewrite_reads_what_is_not_one_grouped_numeral_run_by_run(text, mode, out):
    assert rewrite_digit_runs(text, EN, mode) == out


def indian_grouped(value):
    head, tail = divmod(value, 1000)
    groups = []
    while head:
        head, group = divmod(head, 100)
        groups.append(f"{group:02d}" if head else str(group))
    return ",".join(groups[::-1] + [f"{tail:03d}"])


@given(st.integers(min_value=1000, max_value=10**12 - 1), st.booleans(), st.sampled_from(sorted(ALL_TABLES)))
def test_grouped_rewrite_of_a_grouped_numeral_round_trips(value, indian, lang):
    table = ALL_TABLES[lang]
    numeral = indian_grouped(value) if indian else f"{value:,}"
    assert parse_number_words(rewrite_digit_runs(numeral, table).split(), table) == value


def test_rewrite_round_trips_through_parser():
    for value in (7, 42, 500, 500081, 123456789):
        out = rewrite_digit_runs(str(value), EN)
        assert parse_number_words(out.split(), EN) == value


# ---------------------------------------------------------------------------
# Lexicon files and tables
# ---------------------------------------------------------------------------

def test_load_lexicon_round_trip(tmp_path):
    path = tmp_path / "xx.tsv"
    path.write_text(
        "# demo lexicon\n"
        "zero\t0\tunit\tlatin\n"
        "five\t5\tunit\tlatin\n"
        "lakh\t100000\tmultiplier\tlatin\n"
        "rs\t0\tcurrency_marker\tlatin\n",
        encoding="utf-8",
    )
    table = load_lexicon(str(path), "xx")
    assert table.units["five"] == 5
    assert table.multipliers["lakh"] == 100000
    assert "rs" in table.currency_markers


def test_load_lexicon_reports_all_problems(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(
        "five\t5\tunit\tlatin\n"
        "six\tsix\tunit\tlatin\n"
        "seven\t7\tverb\tlatin\n"
        "eight\t8\tunit\n"
        "nine\t9\tunit\tcyrillic\n"
        "ten\tten\tverb\tlatin\n"
        "eleven\televen\tunit\tcyrillic\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError) as exc:
        load_lexicon(str(path), "xx")
    message = str(exc.value)
    assert "line 2" in message and "line 3" in message and "line 4" in message
    assert "line 5: unknown script 'cyrillic'; expected one of ('latin', 'native')" in message
    # one problem a line: the kind, then the script, then the value
    assert exc.value.details == [
        "line 2: value 'six' is not an integer",
        "line 3: unknown kind 'verb'; expected one of ('unit', 'multiplier', 'currency_marker')",
        "line 4: expected 4 tab-separated fields, got 3",
        "line 5: unknown script 'cyrillic'; expected one of ('latin', 'native')",
        "line 6: unknown kind 'verb'; expected one of ('unit', 'multiplier', 'currency_marker')",
        "line 7: unknown script 'cyrillic'; expected one of ('latin', 'native')",
    ]


@pytest.mark.parametrize("entry, message", [
    (("five", 5, "verb", "latin"), "unknown kind 'verb'; expected one of ('unit', 'multiplier', 'currency_marker')"),
    (("five", 5, "unit", "cyrillic"), "unknown script 'cyrillic'; expected one of ('latin', 'native')"),
    (("five", "5x", "unit", "latin"), "value '5x' is not an integer"),
])
def test_from_entries_reports_a_bad_entry_as_load_lexicon_does(entry, message):
    with pytest.raises(ConfigurationError) as exc:
        MultiplierTable.from_entries("xx", [entry])
    assert str(exc.value) == message


def test_load_lexicon_ignores_a_byte_order_mark(tmp_path):
    text = "# demo\nfive\t5\tunit\tlatin\nlakh\t100000\tmultiplier\tlatin\nrs\t0\tcurrency_marker\tlatin\n"
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert load_lexicon(marked, "xx") == load_lexicon(plain, "xx")
    marked.write_text("\ufeff" + text.split("\n", 1)[1], encoding="utf-8")  # the mark before a word
    assert load_lexicon(marked, "xx") == load_lexicon(plain, "xx")


def test_table_rejects_duplicate_words():
    with pytest.raises(ConfigurationError):
        MultiplierTable.from_entries(
            "xx",
            [("five", 5, "unit", "latin"), ("five", 6, "unit", "latin")],
        )


def test_table_rejects_non_power_multiplier():
    with pytest.raises(ConfigurationError):
        MultiplierTable.from_entries("xx", [("gross", 144, "multiplier", "latin")])
    with pytest.raises(ConfigurationError):
        MultiplierTable.from_entries("xx", [("hundred", 100, "multiplier", "latin")])


def test_table_rejects_out_of_range_unit():
    with pytest.raises(ConfigurationError):
        MultiplierTable.from_entries("xx", [("gross", 144, "unit", "latin")])


def test_first_spelling_wins():
    table = MultiplierTable.from_entries(
        "xx",
        [("five", 5, "unit", "latin"), ("fiver", 5, "unit", "latin")],
    )
    assert table.spellings[5] == "five"
    assert parse_number_words(["fiver"], table) == 5


def lexicon_entries(lang):
    # (word, value, kind) in the order the bundled table lists them
    if lang == "en":
        return [(word, value, kind) for word, value, kind, _ in _english_entries()]
    lexicon = resources.files("indicscore").joinpath("data", "lexicons", f"{lang}.tsv")
    entries = []
    for line in lexicon.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            word, value, kind, _ = (f.strip() for f in line.split("\t"))
            entries.append((word, 0 if kind == "currency_marker" else int(value), kind))
    return entries


def stored_spellings(lang):
    # the spelling maps from_entries used to store: the first word per value
    units, multipliers = {}, {}
    for word, value, kind in lexicon_entries(lang):
        if kind in ("unit", "multiplier"):
            spellings = units if kind == "unit" else multipliers
            spellings.setdefault(value, casefold_normalize(word).strip())
    return units, multipliers


@pytest.mark.parametrize("lang", sorted(ALL_TABLES))
def test_derived_spellings_equal_the_stored_ones(lang):
    units, multipliers = stored_spellings(lang)
    assert not units.keys() & multipliers.keys()
    assert ALL_TABLES[lang].spellings == {**units, **multipliers}


@pytest.mark.parametrize("lang", ["te", "ta", "hi"])
def test_derived_spellings_of_an_english_merge_equal_the_stored_ones(lang):
    # merged_with stored the other table's maps updated with its own
    units, multipliers = stored_spellings(lang)
    en_units, en_multipliers = stored_spellings("en")
    merged = ScoringConfig(language=lang).table_for(lang)
    assert merged.spellings == {**en_units, **units, **en_multipliers, **multipliers}


def test_merged_with_prefers_own_entries():
    merged = TE.merged_with(EN)
    assert parse_number_words(["five", "lakh"], merged) == 500000
    assert parse_number_words(["ఐదు", "లక్షలు"], merged) == 500000
    # spelling stays native
    assert spell_number(5, merged) == ["ఐదు"]


@pytest.mark.parametrize("table, entry", [
    (TE, ("ఐదు", 6, "unit", "latin")),
    (EN, ("lakh", 1000, "multiplier", "latin")),
])
def test_merged_with_conflicting_values_raise(table, entry):
    other = MultiplierTable.from_entries("xx", [entry])
    with pytest.raises(ConfigurationError, match=f"conflicting value for word {entry[0]!r}"):
        table.merged_with(other)


def test_bundled_tables_load_and_parse():
    for lang, sample, value in (
        ("te", "ఐదు లక్షలు", 500000),
        ("ta", "ஐந்து லட்சம்", 500000),
        ("hi", "पाँच लाख", 500000),
    ):
        table = load_language_table(lang)
        assert words_value(sample, table) == value
    with pytest.raises(ConfigurationError):
        load_language_table("fr")
