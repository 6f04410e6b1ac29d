import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_manifest_row
from indicscore.corpus import (
    CLASS_TO_MATCHER,
    CORPUS_CLASSES,
    MANIFEST_STATUSES,
    SYNTH_SYSTEMS,
    HoldoutRow,
    load_holdout,
    load_predictions,
    replacing,
)
from indicscore.manifest import (
    ManifestRow,
    ManifestWriter,
    ValidationConfig,
    load_manifest,
    manifest_line,
    read_manifest,
    save_manifest,
    validate_corpus_row,
    with_status,
)
from indicscore.errors import DataError
from indicscore.matchers import MATCHER_CLASSES, EntityToken


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


@pytest.mark.parametrize("loader", [load_holdout, load_manifest])
def test_empty_bare_string_token_is_a_data_error_naming_the_line(jsonl_writer, loader):
    fields = {"text": "x", "language": "te", "corpus_class": "digits", "entity_class": "digits"}
    path = jsonl_writer(
        "m.jsonl",
        [{"id": "u1", **fields, "entity_tokens": ["500081"]}, {"id": "u2", **fields, "entity_tokens": [""]}],
    )
    with pytest.raises(DataError) as exc:
        loader(path)
    assert exc.value.details == ["line 2: entity token needs a non-empty 'surface'"]


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


@pytest.mark.parametrize("language", [5, ["te"], {"code": "te"}, True])
def test_entity_token_language_must_be_a_string(jsonl_writer, language):
    token = {"surface": "₹500", "class": "currency_amount", "language": language}
    holdout = jsonl_writer(
        "h.jsonl", [{"id": "u1", "text": "ok"}, {"id": "u2", "text": "₹500", "entity_tokens": [token]}]
    )
    with pytest.raises(DataError) as exc:
        load_holdout(holdout)
    assert "line 2: entity token language must be a string" in str(exc.value)
    manifest = jsonl_writer(
        "m.jsonl",
        [{"id": "m1", "text": "₹500", "language": "te", "corpus_class": "currency", "entity_tokens": [token]}],
    )
    with pytest.raises(DataError) as exc:
        load_manifest(manifest)
    assert "line 1: entity token language must be a string" in str(exc.value)


def test_entity_token_language_may_be_a_string_or_null(jsonl_writer):
    tokens = [{"surface": "₹500", "language": "ta"}, {"surface": "₹600", "language": None}]
    path = jsonl_writer(
        "h.jsonl",
        [{"id": "u1", "text": "₹500 ₹600", "language": "te", "entity_class": "currency", "entity_tokens": tokens}],
    )
    assert [t.language for t in load_holdout(path)[0].entity_tokens] == ["ta", None]


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


def test_load_manifest_rejects_cer_that_is_not_finite_or_is_negative(tmp_path):
    lines = [
        '{"id": "m1", "text": "x", "language": "te", "corpus_class": "digits", "cer_against_source": NaN}',
        '{"id": "m2", "text": "x", "language": "te", "corpus_class": "digits", "cer_against_source": Infinity}',
        '{"id": "m3", "text": "x", "language": "te", "corpus_class": "digits", "cer_against_source": -Infinity}',
        '{"id": "m4", "text": "x", "language": "te", "corpus_class": "digits", "cer_against_source": -0.01}',
        '{"id": "m5", "text": "x", "language": "te", "corpus_class": "digits", "cer_against_source": 1' + "0" * 400 + "}",
        '{"id": "m6", "text": "x", "language": "te", "corpus_class": "digits", "cer_against_source": 0}',
        '{"id": "m7", "text": "x", "language": "te", "corpus_class": "digits", "cer_against_source": 2.5}',
    ]
    path = tmp_path / "m.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_manifest(path)
    for lineno in range(1, 6):
        assert f"line {lineno}: cer_against_source must be finite and not negative" in exc.value.details
    assert len(exc.value.details) == 5  # 0 and values above 1 are legal CERs


@pytest.mark.parametrize("loader", [load_manifest, load_holdout, load_predictions])
def test_loaders_reject_unpaired_surrogate_escapes(tmp_path, loader):
    fields = '"id": "m1", "language": "te", "corpus_class": "digits", "hypothesis": "h"'
    path = tmp_path / "m.jsonl"
    path.write_text(
        "{" + fields + ', "text": "a \\ud800 b"}\n'
        + "{" + fields.replace("m1", "m2") + ', "text": "a \\uDC00"}\n'
        # an escaped pair is one astral character; an escaped backslash is no escape
        + "{" + fields.replace("m1", "m3") + ', "text": "\\ud83d\\ude00 \\\\ud800"}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataError) as exc:
        loader(path)
    assert exc.value.details == [
        "line 1: a string holds an unpaired surrogate escape",
        "line 2: a string holds an unpaired surrogate escape",
    ]


def test_read_manifest_streams_and_raises_after_the_last_line(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(
        json.dumps({"id": "m1", "text": "x", "language": "te", "corpus_class": "digits"}) + "\n"
        + "{broken\n"
        + json.dumps({"id": "m2", "text": "y", "language": "te", "corpus_class": "digits"}) + "\n"
        + json.dumps({"id": "m1", "text": "z", "language": "te", "corpus_class": "digits"}) + "\n",
        encoding="utf-8",
    )
    rows = read_manifest(path)
    assert [next(rows).id, next(rows).id] == ["m1", "m2"]
    with pytest.raises(DataError) as exc:
        next(rows)
    assert exc.value.details == [
        "line 2: invalid JSON (Expecting property name enclosed in double quotes)",
        "line 4: duplicate id 'm1' (first seen on line 1)",
    ]


@pytest.mark.parametrize("stream", [False, True])
def test_a_duplicate_id_names_its_first_line_whose_required_fields_pass(tmp_path, stream):
    # A file is read again for the first line; a stream, which cannot be, keeps its lines.
    lines = [
        {"id": "m1", "language": "te", "corpus_class": "digits"},  # no text: not the first m1
        {"id": "m2", "text": "y", "language": "te", "corpus_class": "digits"},
        {"id": "m1", "text": "x", "language": "te", "corpus_class": "digits"},
        {"id": "m1", "text": "z", "language": "te", "corpus_class": "digits"},
        {"id": "m2", "text": "w", "language": "te", "corpus_class": "digits"},
    ]
    data = "".join(json.dumps(line) + "\n" for line in lines).encode("utf-8")
    path = tmp_path / "m.jsonl"
    path.write_bytes(data)
    read_end = None
    if stream:
        read_end, write_end = os.pipe()
        os.write(write_end, data)  # within the pipe's buffer
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
    try:
        with pytest.raises(DataError) as exc:
            list(read_manifest(path))
    finally:
        if read_end is not None:
            os.close(read_end)
    assert exc.value.details == [
        "line 1: missing or invalid field 'text'",
        "line 4: duplicate id 'm1' (first seen on line 3)",
        "line 5: duplicate id 'm2' (first seen on line 2)",
    ]


# ---------------------------------------------------------------------------
# Manifest line encoder and writer
# ---------------------------------------------------------------------------

def record_line(row: ManifestRow) -> str:
    """The record builder and json.dumps call manifest_line replaced: the oracle."""
    record: dict = {
        "id": row.id,
        "text": row.text,
        "language": row.language,
        "corpus_class": row.corpus_class,
        "status": row.status,
    }
    if row.synth_system is not None:
        record["synth_system"] = row.synth_system
    if row.cer_against_source is not None:
        record["cer_against_source"] = row.cer_against_source
    if row.entity_tokens:
        record["entity_tokens"] = [
            {"surface": t.surface, "matcher_class": t.matcher_class, "language": t.language}
            for t in row.entity_tokens
        ]
    return json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"


# JSON escapes quotes, backslashes and C0 controls; U+2028/U+2029, U+0085,
# DEL and astral characters go out as they are.
AWKWARD = '"\\/\x00\x01\x08\t\n\x0b\x0c\r\x1f\x7f\x85\u2028\u2029\ufeff\U0001f600\U00010000é అ'
TEXT = st.text(st.one_of(st.sampled_from(AWKWARD), st.characters(exclude_categories=("Cs",))), max_size=12)
CERS = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 0.1, 1e-7, 1e16, 1e-320, 0.30000000000000004, 2.5, 7]),
    st.floats(allow_nan=False, allow_infinity=False),
)
TOKENS = st.builds(
    EntityToken,
    surface=TEXT.filter(bool),
    matcher_class=st.sampled_from(MATCHER_CLASSES),
    language=st.one_of(st.none(), TEXT),
)
ROWS = st.builds(
    ManifestRow,
    id=TEXT,
    text=TEXT,
    language=TEXT,
    corpus_class=st.sampled_from(CORPUS_CLASSES),
    synth_system=st.one_of(st.none(), st.sampled_from(SYNTH_SYSTEMS)),
    cer_against_source=CERS,
    status=st.sampled_from(MANIFEST_STATUSES),
    entity_tokens=st.lists(TOKENS, max_size=3).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(ROWS)
def test_manifest_line_equals_the_json_dumps_record_line(row):
    assert manifest_line(row) == record_line(row)


@pytest.mark.parametrize("cer", [0.1, 1e-7, 1e16, -0.0, 5e-324, 1.7976931348623157e308])
def test_manifest_line_spells_floats_as_json_dumps(cer):
    row = make_manifest_row(1, cer_against_source=cer)
    assert manifest_line(row) == record_line(row)
    assert json.loads(manifest_line(row))["cer_against_source"] == cer


@pytest.mark.parametrize("cer", [math.nan, math.inf, -math.inf, 3, True])
def test_manifest_line_falls_back_to_json_dumps_for_other_numbers(cer):
    row = make_manifest_row(1, cer_against_source=cer)
    assert manifest_line(row) == record_line(row)


def test_writer_failure_after_good_rows_leaves_no_file(tmp_path):
    out = tmp_path / "out.jsonl"
    rows = [make_manifest_row(1), make_manifest_row(2, text="lone \ud800")]
    with pytest.raises(UnicodeEncodeError):
        save_manifest(out, rows)
    assert list(tmp_path.iterdir()) == []


def test_writer_failure_leaves_an_existing_file_untouched(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"previous contents\n")
    with pytest.raises(RuntimeError):
        with replacing(out, opener=ManifestWriter) as (writer,):
            writer.write(make_manifest_row(1))
            raise RuntimeError("stop")
    assert out.read_bytes() == b"previous contents\n"
    assert list(tmp_path.iterdir()) == [out]


def test_writer_replaces_only_on_commit(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"old\n")
    with replacing(out, opener=ManifestWriter) as (writer,):
        writer.write(make_manifest_row(1))
        assert out.read_bytes() == b"old\n"
    assert out.read_text(encoding="utf-8") == manifest_line(make_manifest_row(1))
    assert writer.count == 1
    assert list(tmp_path.iterdir()) == [out]


def test_writer_replaces_the_target_of_a_symlink(tmp_path):
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    target.write_bytes(b"old\n")
    link.symlink_to(target)
    save_manifest(link, [make_manifest_row(1)])
    assert link.is_symlink()
    assert load_manifest(target) == [make_manifest_row(1)]


def test_writer_names_the_output_when_it_cannot_be_made(tmp_path):
    missing_dir = tmp_path / "no" / "out.jsonl"
    with pytest.raises(FileNotFoundError) as exc:
        save_manifest(str(missing_dir), [])
    assert exc.value.filename == str(missing_dir)
    with pytest.raises(IsADirectoryError) as exc:
        save_manifest(str(tmp_path), [])
    assert exc.value.filename == str(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_writers_commit_in_argument_order_and_only_all_together(tmp_path):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    with replacing(first, None, second, opener=ManifestWriter) as (a, none, b):
        assert none is None
        a.write(make_manifest_row(1))
        b.write(make_manifest_row(2))
    assert load_manifest(first) == [make_manifest_row(1)]
    assert load_manifest(second) == [make_manifest_row(2)]
    # the second output cannot be made: the first is not created either
    with pytest.raises(IsADirectoryError):
        with replacing(tmp_path / "third.jsonl", tmp_path, opener=ManifestWriter):
            pass
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.jsonl", "second.jsonl"]


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


def test_validate_manifest_rows_too():
    row = make_manifest_row(1)
    assert validate_corpus_row(row) == []


def test_validation_config_thresholds():
    row = HoldoutRow(id="u1", text="ఒకటి రెండు మూడు నాలుగア", language="te")
    strict = ValidationConfig(purity_threshold=1.0)
    assert "script_purity" in [v.kind for v in validate_corpus_row(row, config=strict)]


def test_corpus_class_inventory():
    assert set(CLASS_TO_MATCHER) <= set(CORPUS_CLASSES)
    assert "addresses" not in CLASS_TO_MATCHER and "codemix" not in CLASS_TO_MATCHER
