import json

import pytest

from conftest import make_manifest_row
from indicscore.corpus import (
    CLASS_TO_MATCHER,
    CORPUS_CLASSES,
    HoldoutRow,
    ValidationConfig,
    load_holdout,
    load_manifest,
    load_predictions,
    save_manifest,
    validate_corpus_row,
    with_status,
)
from indicscore.errors import DataError
from indicscore.matchers import EntityToken


# ---------------------------------------------------------------------------
# Holdout loading
# ---------------------------------------------------------------------------

def test_load_holdout_happy_path(jsonl_writer):
    path = jsonl_writer(
        "holdout.jsonl",
        [
            {
                "id": "u1",
                "text": "పిన్ కోడ్ 500081",
                "language": "te",
                "entity_class": "digits",
                "entity_tokens": ["500081"],
            },
            {
                "id": "u2",
                "text": "మొత్తం ₹500",
                "language": "te",
                "entity_tokens": [{"surface": "₹500", "class": "currency_amount"}],
            },
        ],
    )
    rows = load_holdout(path)
    assert [r.id for r in rows] == ["u1", "u2"]
    assert rows[0].entity_tokens == (
        EntityToken(surface="500081", matcher_class="digit_run", language="te"),
    )
    assert rows[1].entity_tokens[0].matcher_class == "currency_amount"


def test_bare_string_tokens_infer_class_from_row_class(jsonl_writer):
    for corpus_class, matcher in CLASS_TO_MATCHER.items():
        path = jsonl_writer(
            f"h_{corpus_class}.jsonl",
            [
                {
                    "id": "u1",
                    "text": "x",
                    "entity_class": corpus_class,
                    "entity_tokens": ["token"],
                }
            ],
        )
        rows = load_holdout(path)
        assert rows[0].entity_tokens[0].matcher_class == matcher


def test_bare_string_tokens_need_inferable_class(jsonl_writer):
    path = jsonl_writer(
        "h.jsonl",
        [{"id": "u1", "text": "x", "entity_class": "addresses", "entity_tokens": ["plot 4"]}],
    )
    with pytest.raises(DataError) as exc:
        load_holdout(path)
    assert "explicit matcher" in str(exc.value)


def test_object_tokens_accept_both_class_keys(jsonl_writer):
    path = jsonl_writer(
        "h.jsonl",
        [
            {
                "id": "u1",
                "text": "x",
                "entity_tokens": [
                    {"surface": "a", "matcher_class": "brand"},
                    {"surface": "b", "class": "pincode"},
                ],
            }
        ],
    )
    rows = load_holdout(path)
    assert [t.matcher_class for t in rows[0].entity_tokens] == ["brand", "pincode"]


def test_load_holdout_aggregates_all_problems(jsonl_writer, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        'not json\n'
        '{"id": "u1"}\n'
        '{"id": "u2", "text": "ok"}\n'
        '{"id": "u2", "text": "dup"}\n'
        '{"id": "u3", "text": "x", "entity_tokens": [{"surface": "s", "class": "phone"}]}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataError) as exc:
        load_holdout(str(path))
    message = str(exc.value)
    assert "line 1" in message and "invalid JSON" in message
    assert "line 2" in message and "text" in message
    assert "line 4" in message and "first seen on line 3" in message
    assert "line 5" in message and "phone" in message


def test_load_holdout_ignores_unknown_fields(jsonl_writer):
    path = jsonl_writer(
        "h.jsonl", [{"id": "u1", "text": "x", "speaker": "f3", "duration_ms": 1200}]
    )
    assert load_holdout(path)[0].id == "u1"


def test_load_holdout_skips_blank_lines(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text('{"id": "u1", "text": "x"}\n\n\n{"id": "u2", "text": "y"}\n', encoding="utf-8")
    assert len(load_holdout(str(path))) == 2


def test_holdout_round_trip(jsonl_writer):
    # a written holdout record loads back as the row it describes
    rows = load_holdout(
        jsonl_writer(
            "h.jsonl",
            [
                {
                    "id": "u1",
                    "text": "పిన్ 500081",
                    "language": "te",
                    "entity_class": "digits",
                    "entity_tokens": ["500081"],
                    "audio_path": "wav/u1.wav",
                }
            ],
        )
    )
    assert rows == [
        HoldoutRow(
            id="u1",
            text="పిన్ 500081",
            audio_path="wav/u1.wav",
            entity_tokens=(EntityToken(surface="500081", matcher_class="digit_run", language="te"),),
            entity_class="digits",
            language="te",
        )
    ]


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

def test_load_predictions(jsonl_writer):
    path = jsonl_writer(
        "p.jsonl",
        [
            {"id": "u1", "hypothesis": "hello", "system": "a"},
            {"id": "u1", "hypothesis": "hullo", "system": "b"},
            {"id": "u2", "hypothesis": "", "system": "a"},
        ],
    )
    preds = load_predictions(path)
    assert len(preds) == 3
    assert preds[2].hypothesis == ""  # empty hypotheses are legal


def test_load_predictions_rejects_duplicates_per_system(jsonl_writer):
    path = jsonl_writer(
        "p.jsonl",
        [
            {"id": "u1", "hypothesis": "a", "system": "s"},
            {"id": "u1", "hypothesis": "b", "system": "s"},
        ],
    )
    with pytest.raises(DataError) as exc:
        load_predictions(path)
    assert "first seen on line 1" in str(exc.value)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def test_load_manifest_happy_path(jsonl_writer):
    path = jsonl_writer(
        "m.jsonl",
        [
            {
                "id": "m1",
                "text": "ఒక వాక్యం",
                "language": "te",
                "corpus_class": "digits",
                "synth_system": "praxy",
                "cer_against_source": 0.12,
                "status": "synthesized",
            }
        ],
    )
    row = load_manifest(path)[0]
    assert row.synth_system == "praxy"
    assert row.cer_against_source == 0.12


def test_load_manifest_validates_fields(jsonl_writer):
    records = [
        {"id": "m1", "text": "x", "language": "te", "corpus_class": "poetry"},
        {"id": "m2", "text": "x", "language": "te", "corpus_class": "digits", "synth_system": "google"},
        {"id": "m3", "text": "x", "language": "te", "corpus_class": "digits", "status": "lost"},
        {"id": "m4", "text": "x", "language": "te", "corpus_class": "digits", "cer_against_source": "low"},
        {"id": "m5", "text": "x", "language": "te", "corpus_class": "digits", "cer_against_source": True},
    ]
    path = jsonl_writer("m.jsonl", records)
    with pytest.raises(DataError) as exc:
        load_manifest(path)
    message = str(exc.value)
    for lineno in range(1, 6):
        assert f"line {lineno}" in message


def test_manifest_round_trip_omits_null_fields(tmp_path):
    rows = [make_manifest_row(1), make_manifest_row(2, synth_system="praxy", cer_against_source=0.3)]
    path = tmp_path / "m.jsonl"
    save_manifest(path, rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    assert "synth_system" not in first and "cer_against_source" not in first
    assert load_manifest(path) == rows


def test_manifest_round_trip_keeps_unicode_line_separators(tmp_path):
    # JSON leaves U+2028, U+2029 and U+0085 unescaped; they are not line ends
    rows = [make_manifest_row(1, text="ఇది ఒక\u2028వాక్యం\u0085ఉంది\u2029సరే"), make_manifest_row(2)]
    path = tmp_path / "m.jsonl"
    save_manifest(path, rows)
    on_disk = path.read_text(encoding="utf-8")
    assert "\u2028" in on_disk and "ఇది" in on_disk
    assert load_manifest(path) == rows


def test_manifest_rows_keep_entity_tokens(tmp_path, jsonl_writer):
    path = jsonl_writer(
        "m.jsonl",
        [
            {
                "id": "m1",
                "text": "పిన్ 500081 పంపు",
                "language": "te",
                "corpus_class": "digits",
                "entity_tokens": ["500081"],
            }
        ],
    )
    rows = load_manifest(path)
    assert rows[0].entity_tokens[0].matcher_class == "digit_run"
    out = tmp_path / "again.jsonl"
    save_manifest(out, rows)
    assert load_manifest(out) == rows


def test_with_status_moves_forward_only():
    row = make_manifest_row(1)
    synthesized = with_status(row, "synthesized")
    accepted = with_status(synthesized, "accepted")
    assert accepted.status == "accepted"
    with pytest.raises(DataError):
        with_status(accepted, "pending")
    with pytest.raises(DataError):
        with_status(accepted, "filtered_out")  # same rank, no lateral moves
    with pytest.raises(DataError):
        with_status(row, "done")
    assert with_status(row, "pending") == row  # no-op is fine


# ---------------------------------------------------------------------------
# Row validation
# ---------------------------------------------------------------------------

TE_TEXT = "ఖాతాలో ఐదు లక్షల రూపాయలు జమ అయ్యాయి"


def test_validate_clean_row():
    row = HoldoutRow(id="u1", text=TE_TEXT, language="te")
    assert validate_corpus_row(row) == []


def test_validate_token_bounds():
    short = HoldoutRow(id="u1", text="ఒకటి రెండు", language="te")
    assert [v.kind for v in validate_corpus_row(short)] == ["length"]
    long = HoldoutRow(id="u2", text="పదం " * 26, language="te")
    assert [v.kind for v in validate_corpus_row(long)] == ["length"]


def test_validate_entity_surface_must_appear():
    row = HoldoutRow(
        id="u1",
        text=TE_TEXT,
        language="te",
        entity_tokens=(EntityToken(surface="500081", matcher_class="pincode"),),
    )
    kinds = [v.kind for v in validate_corpus_row(row)]
    assert "entity_span" in kinds


def test_validate_entity_spans_are_excluded_from_purity():
    # heavy Latin content fails purity unless tagged as an entity
    text = "చెల్లింపు Paytm Wallet India ద్వారా జరిగింది సరే"
    plain = HoldoutRow(id="u1", text=text, language="te")
    assert "script_purity" in [v.kind for v in validate_corpus_row(plain)]
    tagged = HoldoutRow(
        id="u1",
        text=text,
        language="te",
        entity_tokens=(EntityToken(surface="Paytm Wallet India", matcher_class="brand"),),
    )
    assert validate_corpus_row(tagged) == []


def test_validate_handles_repeated_entity_occurrences():
    text = "పిన్ 500081 మళ్ళీ 500081 నిర్ధారించండి"
    row = HoldoutRow(
        id="u1",
        text=text,
        language="te",
        entity_tokens=(EntityToken(surface="500081", matcher_class="pincode"),),
    )
    assert validate_corpus_row(row) == []


def test_validate_requires_language():
    row = HoldoutRow(id="u1", text="hello world okay")
    with pytest.raises(DataError):
        validate_corpus_row(row)
    assert validate_corpus_row(row, language="te") != []  # explicit language works


def test_validate_manifest_rows_too():
    row = make_manifest_row(1)
    assert validate_corpus_row(row) == []


def test_validation_config_thresholds():
    row = HoldoutRow(id="u1", text="ఒకటి రెండు మూడు నాలుగア", language="te")
    strict = ValidationConfig(min_tokens=1, purity_threshold=1.0)
    assert "script_purity" in [v.kind for v in validate_corpus_row(row, config=strict)]


def test_corpus_class_inventory():
    assert set(CLASS_TO_MATCHER) <= set(CORPUS_CLASSES)
    assert "addresses" not in CLASS_TO_MATCHER and "codemix" not in CLASS_TO_MATCHER
