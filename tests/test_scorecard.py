import pytest
from hypothesis import given
from hypothesis import strategies as st

from indicscore.corpus import HoldoutRow, Prediction
from indicscore.distance import cer, wer
from indicscore.errors import ConfigurationError, DataError
from indicscore.matchers import AliasTable, EntityToken, ScoringConfig, score_utterance
from indicscore.scorecard import (
    SFR_DIAGNOSTIC_THRESHOLD,
    VERDICT_APPLY,
    VERDICT_CONTRAINDICATED,
    compare_records,
    diagnose,
    format_value,
    render_comparison,
    render_scorecard,
    render_verdict,
    score_predictions,
    scorecard_record,
)
from indicscore.script import sfr
from indicscore.textnorm import DEFAULT_NORM, STRICT_NORM

ROWS = [
    HoldoutRow(
        id="u1",
        text="పిన్ కోడ్ 500081 పంపండి",
        language="te",
        entity_tokens=(EntityToken(surface="500081", matcher_class="pincode"),),
    ),
    HoldoutRow(
        id="u2",
        text="మొత్తం ₹500 చెల్లించండి",
        language="te",
        entity_tokens=(EntityToken(surface="₹500", matcher_class="currency_amount"),),
    ),
    HoldoutRow(id="u3", text="నమస్కారం అంతే", language="te"),
]

PERFECT = [
    Prediction(id="u1", hypothesis="పిన్ కోడ్ 500081 పంపండి", system="good"),
    Prediction(id="u2", hypothesis="మొత్తం ₹500 చెల్లించండి", system="good"),
    Prediction(id="u3", hypothesis="నమస్కారం అంతే", system="good"),
]


def score(rows=ROWS, predictions=PERFECT, **kwargs):
    kwargs.setdefault("language", "te")
    return score_predictions(rows, predictions, **kwargs)


def test_perfect_predictions():
    card, details = score()
    assert card.n == 3
    assert card.wer.rate == 0.0
    assert card.cer.rate == 0.0
    assert card.sfr.value == 1.0
    assert card.ehr.micro == 1.0
    assert len(details) == 3
    assert details[0].matches[0].hit


def test_pooled_not_averaged():
    rows = [
        HoldoutRow(id="a", text="ఒకటి రెండు మూడు నాలుగు", language="te"),
        HoldoutRow(id="b", text="ఐదు", language="te"),
    ]
    predictions = [
        Prediction(id="a", hypothesis="ఒకటి రెండు మూడు నాలుగు"),
        Prediction(id="b", hypothesis="ఆరు"),
    ]
    card, _ = score(rows, predictions)
    # pooled: 1 error over 5 reference tokens, not mean(0, 1)
    assert card.wer.rate == pytest.approx(0.2)


def test_unmatched_ids_reported_not_scored():
    predictions = PERFECT[:2] + [Prediction(id="zz", hypothesis="x", system="good")]
    card, details = score(predictions=predictions)
    assert card.n == 2
    assert card.unmatched_row_ids == ("u3",)
    assert card.unmatched_prediction_ids == ("zz",)
    assert {d.id for d in details} == {"u1", "u2"}
    assert render_scorecard(card).splitlines()[-2:] == ["rows without predictions: 1", "predictions without rows: 1"]


def test_no_overlap_is_an_error():
    with pytest.raises(DataError):
        score(predictions=[Prediction(id="nope", hypothesis="x")])


def test_mixed_language_holdout_rejected():
    rows = ROWS + [HoldoutRow(id="u4", text="वही", language="hi")]
    with pytest.raises(DataError) as exc:
        score(rows=rows)
    assert "hi" in str(exc.value)


def test_empty_hypothesis_scores_as_all_errors():
    predictions = [Prediction(id="u1", hypothesis="")]
    card, details = score(predictions=predictions)
    assert card.wer.rate == 1.0
    assert details[0].sfr.value is None
    assert not details[0].matches[0].hit


def test_row_error_names_the_row():
    rows = [HoldoutRow(id="weird", text="...", language="te")]
    with pytest.raises(DataError) as exc:
        score(rows=rows, predictions=[Prediction(id="weird", hypothesis="x")])
    assert "weird" in str(exc.value)
    # an entity token the matchers cannot use is an error of the row's data too
    for token, message in (
        (EntityToken("50008", "pincode"), "pincode token '50008' must have exactly 6 digits, found 5"),
        (EntityToken("lots", "currency_amount"), "currency token 'lots' does not parse as an amount"),
        (EntityToken("₹500", "currency_amount", "fr"), "no bundled number lexicon for language 'fr'"),
    ):
        rows = [HoldoutRow(id="u9", text="పిన్ 500081", language="te", entity_tokens=(token,))]
        with pytest.raises(DataError) as exc:
            score(rows=rows, predictions=[Prediction(id="u9", hypothesis="పిన్ 500081")])
        assert str(exc.value) == f"row 'u9': {message}"


# Generated holdouts: rows of words, odd spaces and entities of all seven
# classes, each entity's surface inside its row's text.
ENTITIES = [
    ("digit_run", "98765"),
    ("pincode", "500081"),
    ("currency_amount", "₹5,00,000"),
    ("currency_amount", "ఐదు లక్షల"),
    ("brand", "Paytm"),
    ("proper_noun", "Jubilee Hills"),
    ("spelled_digit", "five four two"),
    ("house_or_plot", "8-2-293/82"),
]
WORDS = ["పిన్", "కోడ్", "పంపండి", "Pay", "now,", "(ok)", "５０", "Straße", "K"]
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\u00a0", "\u3000", " ... "])


@st.composite
def holdout_texts(draw):
    pieces = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6))
    entities = draw(st.lists(st.sampled_from(ENTITIES), max_size=4))
    pieces = draw(st.permutations(pieces + [surface for _, surface in entities]))
    text = "".join(piece + draw(SEPARATORS) for piece in pieces)
    return text, tuple(EntityToken(surface, cls) for cls, surface in entities)


@st.composite
def holdouts(draw):
    rows = []
    for i in range(draw(st.integers(1, 4))):
        text, tokens = draw(holdout_texts())
        rows.append(HoldoutRow(id=f"g{i}", text=text, language="te", entity_tokens=tokens))
    return rows


GENERATED_CONFIGS = st.builds(
    ScoringConfig,
    language=st.just("te"),
    currency_mode=st.sampled_from(["strict", "bidirectional"]),
    aliases=st.just(AliasTable([["Paytm", "పేటీఎం"]])),
)
NORMS = st.sampled_from([DEFAULT_NORM, STRICT_NORM])


@given(holdouts(), GENERATED_CONFIGS, NORMS)
def test_a_row_scored_against_its_own_text_has_no_errors(rows, config, normalization):
    predictions = [Prediction(id=row.id, hypothesis=row.text) for row in rows]
    card, details = score(rows, predictions, config=config, normalization=normalization)
    assert card.wer.distance == card.cer.distance == 0
    assert all(d.wer.distance == d.cer.distance == 0 for d in details)
    assert all(tally.hits == tally.n for tally in card.ehr.per_class.values())  # EHR = 1


@given(holdouts(), st.lists(holdout_texts(), min_size=4, max_size=4), GENERATED_CONFIGS, NORMS)
def test_pooled_error_rates_are_the_sums_of_the_rows(rows, hypotheses, config, normalization):
    predictions = [Prediction(id=row.id, hypothesis=hyp) for row, (hyp, _) in zip(rows, hypotheses)]
    card, details = score(rows, predictions, config=config, normalization=normalization)
    pairs = list(zip(rows, predictions))
    for pooled, metric, field in ((card.wer, wer, "wer"), (card.cer, cer, "cer")):
        per_row = [metric(row.text, p.hypothesis, normalization) for row, p in pairs]
        assert [getattr(d, field) for d in details] == per_row
        assert pooled.distance == sum(r.distance for r in per_row)
        assert pooled.reference_length == sum(r.reference_length for r in per_row)
    row_sfrs = [sfr(p.hypothesis, "te") for _, p in pairs]
    assert [d.sfr for d in details] == row_sfrs
    assert card.sfr.letter_count == sum(r.letter_count for r in row_sfrs)
    assert card.sfr.in_block_count == sum(r.in_block_count for r in row_sfrs)
    per_class: dict[str, list[int]] = {}
    for row, p in pairs:
        for m in score_utterance(row.entity_tokens, p.hypothesis, config):
            tally = per_class.setdefault(m.matcher_class, [0, 0])
            tally[0] += 1
            tally[1] += m.hit
    assert {cls: [t.n, t.hits] for cls, t in card.ehr.per_class.items()} == per_class


def test_unmatched_ids_do_not_depend_on_row_order():
    rows = [HoldoutRow(id=i, text="నమస్కారం", language="te") for i in ("u3", "u1", "u2")]
    predictions = [Prediction(id="u1", hypothesis="నమస్కారం")]
    for ordered in (rows, rows[::-1]):
        card, _ = score(ordered, predictions)
        assert card.unmatched_row_ids == ("u2", "u3")


@given(holdouts(), st.data(), GENERATED_CONFIGS)
def test_scorecard_record_does_not_depend_on_row_order(rows, data, config):
    # predictions for some rows, plus some for ids the holdout lacks
    ids = [row.id for row in rows] + ["x1", "x2"]
    chosen = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    if not any(i in chosen for i in ids[:-2]):
        chosen.append(rows[0].id)
    texts = {row.id: row.text for row in rows}
    predictions = [Prediction(id=i, hypothesis=texts.get(i, "x")[::-1]) for i in chosen]
    card, details = score(rows, predictions, config=config)
    shuffled_rows = data.draw(st.permutations(rows))
    shuffled_card, shuffled_details = score(shuffled_rows, data.draw(st.permutations(predictions)), config=config)
    assert scorecard_record(shuffled_card) == scorecard_record(card)
    # the detail file keeps holdout order
    assert [d.id for d in shuffled_details] == [row.id for row in shuffled_rows if row.id in chosen]
    assert sorted(shuffled_details, key=lambda d: d.id) == sorted(details, key=lambda d: d.id)


def test_normalization_config_respected():
    rows = [HoldoutRow(id="a", text="Paytm వాడు", language="te")]
    predictions = [Prediction(id="a", hypothesis="paytm వాడు")]
    card, _ = score(rows, predictions)
    assert card.wer.rate == 0.0
    assert card.normalization == "default"
    strict_card, _ = score(rows, predictions, normalization=STRICT_NORM)
    assert strict_card.wer.rate == 0.5
    assert strict_card.normalization == "strict"


def test_currency_mode_recorded():
    config = ScoringConfig(language="te", currency_mode="bidirectional")
    card, _ = score(config=config)
    assert card.currency_mode == "bidirectional"


def test_a_config_for_another_language_is_a_configuration_error():
    # SFR would be scored against one language and number words read in another
    with pytest.raises(ConfigurationError, match="'hi', the holdout for 'te'"):
        score(config=ScoringConfig(language="hi"))
    with pytest.raises(ConfigurationError):
        score(config=ScoringConfig())  # the default config is for "en"


def test_scorecard_record_shape():
    card, _ = score(system="good", holdout_name="argmax")
    record = scorecard_record(card)
    assert record["system"] == "good"
    assert record["holdout"] == "argmax"
    assert record["wer"]["reference_length"] > 0
    assert record["ehr"]["per_class"]["pincode"] == {"n": 1, "hits": 1, "rate": 1.0}
    assert record["sfr"]["value"] == 1.0


def test_render_scorecard_mentions_key_numbers():
    card, _ = score(system="good")
    text = render_scorecard(card)
    assert "WER 0.000" in text
    assert "SFR 1.000" in text
    assert "pincode" in text


def test_format_value():
    assert format_value(0.5) == "0.500"
    assert format_value(None) == "—"
    assert format_value(2 / 3) == "0.667"


# ---------------------------------------------------------------------------
# Diagnostic
# ---------------------------------------------------------------------------

def test_diagnose_applies_when_two_or_more_below():
    verdict = diagnose({"argmax": 0.701, "genspeech": 0.462, "corpus": 0.712}, "te")
    assert verdict.verdict == VERDICT_APPLY


def test_diagnose_contraindicated_when_healthy():
    verdict = diagnose({"a": 0.983, "b": 0.983, "c": 0.993}, "hi")
    assert verdict.verdict == VERDICT_CONTRAINDICATED
    verdict = diagnose({"a": 0.997, "b": 0.998, "c": 0.980}, "ta")
    assert verdict.verdict == VERDICT_CONTRAINDICATED


def test_diagnose_one_low_holdout_is_not_enough():
    verdict = diagnose({"a": 0.3, "b": 0.96, "c": 0.97}, "te")
    assert verdict.verdict == VERDICT_CONTRAINDICATED


def test_diagnose_threshold_is_strict():
    # exactly at the threshold does not count as below
    verdict = diagnose({"a": SFR_DIAGNOSTIC_THRESHOLD, "b": SFR_DIAGNOSTIC_THRESHOLD}, "te")
    assert verdict.verdict == VERDICT_CONTRAINDICATED
    verdict = diagnose({"a": SFR_DIAGNOSTIC_THRESHOLD - 1e-9, "b": SFR_DIAGNOSTIC_THRESHOLD - 1e-9}, "te")
    assert verdict.verdict == VERDICT_APPLY


def test_diagnose_grid_around_threshold():
    # sweep a 0.01 grid: verdict flips exactly when two holdouts dip below
    for first in (0.83, 0.84, 0.85, 0.86):
        for second in (0.83, 0.84, 0.85, 0.86):
            verdict = diagnose({"a": first, "b": second, "c": 0.99}, "te")
            expected = VERDICT_APPLY if (first < 0.85 and second < 0.85) else VERDICT_CONTRAINDICATED
            assert verdict.verdict == expected, (first, second)


def test_diagnose_needs_two_holdouts():
    with pytest.raises(ConfigurationError):
        diagnose({"only": 0.2}, "te")
    with pytest.raises(ConfigurationError):
        diagnose({}, "te")


def test_render_verdict():
    text = render_verdict(diagnose({"a": 0.7, "b": 0.6}, "te"))
    assert "verdict: apply_adaptation" in text
    assert "(below)" in text


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def make_record(system, wer_rate, cer_rate=0.1, sfr=0.9, micro=0.5, macro=0.5):
    distance = round(wer_rate * 1000)
    cer_distance = round(cer_rate * 5000)
    return {
        "system": system,
        "holdout": "argmax",
        "language": "te",
        "n": 100,
        "wer": {"distance": distance, "reference_length": 1000, "rate": wer_rate},
        "cer": {"distance": cer_distance, "reference_length": 5000, "rate": cer_rate},
        "sfr": {"letter_count": 1000, "in_block_count": round(sfr * 1000), "value": sfr},
        "ehr": {"per_class": {}, "micro": micro, "macro": macro},
    }


def test_compare_deltas_are_candidate_minus_baseline():
    baseline = make_record("base", 0.329)
    candidate = make_record("cand", 0.395, sfr=0.95, micro=0.6)
    comparison = compare_records(baseline, [candidate])[0]
    assert comparison["deltas"]["wer"] == pytest.approx(0.066)
    assert comparison["deltas"]["sfr"] == pytest.approx(0.05)
    assert comparison["ehr_micro_ratio"] == pytest.approx(1.2)
    assert comparison["system"] == "cand"
    assert comparison["baseline"] == "base"


def test_compare_requires_matching_holdout_and_language():
    baseline = make_record("base", 0.3)
    other = make_record("cand", 0.4)
    other["holdout"] = "different"
    with pytest.raises(DataError):
        compare_records(baseline, [other])
    other = make_record("cand", 0.4)
    other["language"] = "hi"
    with pytest.raises(DataError):
        compare_records(baseline, [other])


def test_compare_none_values_propagate():
    baseline = make_record("base", 0.3)
    baseline["sfr"]["value"] = None
    baseline["ehr"]["micro"] = None
    candidate = make_record("cand", 0.4)
    comparison = compare_records(baseline, [candidate])[0]
    assert comparison["deltas"]["sfr"] is None
    assert comparison["ehr_micro_ratio"] is None


def test_compare_needs_candidates():
    with pytest.raises(ConfigurationError):
        compare_records(make_record("base", 0.3), [])


def test_render_comparison():
    baseline = make_record("base", 0.329)
    candidate = make_record("cand", 0.395)
    text = render_comparison(compare_records(baseline, [candidate]))
    assert "+0.066" in text
    assert "cand" in text
    assert "regression" in text
