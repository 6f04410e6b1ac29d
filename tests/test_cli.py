import argparse
import contextlib
import csv
import io
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from indicscore import cli as cli_module
from indicscore import pipeline_cli
from indicscore.cli import build_parser, main
from indicscore.matchers import CURRENCY_MODES
from indicscore.numbers import REWRITE_MODES
from indicscore.textnorm import NORM_MODES

TE_ROWS = [
    {
        "id": "u1",
        "text": "పిన్ కోడ్ 500081 పంపండి",
        "language": "te",
        "entity_class": "digits",
        "entity_tokens": ["500081"],
    },
    {
        "id": "u2",
        "text": "మొత్తం ₹5,00,000 చెల్లించండి",
        "language": "te",
        "entity_tokens": [{"surface": "₹5,00,000", "class": "currency_amount"}],
    },
    {"id": "u3", "text": "నమస్కారం అంతే సరే", "language": "te"},
]

TE_PREDS = [
    {"id": "u1", "hypothesis": "పిన్ కోడ్ 500081 పంపండి", "system": "modelA"},
    {"id": "u2", "hypothesis": "మొత్తం ఐదు లక్షల రూపాయలు చెల్లించండి", "system": "modelA"},
    {"id": "u3", "hypothesis": "నమస్కారం అంతే సరే", "system": "modelA"},
]


@pytest.fixture
def holdout_path(jsonl_writer):
    return jsonl_writer("holdout.jsonl", TE_ROWS)


@pytest.fixture
def preds_path(jsonl_writer):
    return jsonl_writer("preds.jsonl", TE_PREDS)


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def test_score_writes_scorecard_and_detail(tmp_path, holdout_path, preds_path, capsys):
    out = tmp_path / "card.json"
    detail = tmp_path / "detail.jsonl"
    code = run(
        "score",
        "--holdout", holdout_path,
        "--predictions", preds_path,
        "--lang", "te",
        "--currency-mode", "bidirectional",
        "--out", str(out),
        "--detail", str(detail),
    )
    assert code == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["n"] == 3
    assert record["ehr"]["micro"] == 1.0
    detail_lines = [json.loads(l) for l in detail.read_text(encoding="utf-8").splitlines()]
    assert [d["id"] for d in detail_lines] == ["u1", "u2", "u3"]
    assert "WER" in capsys.readouterr().out


def test_score_strict_mode_misses_word_currency(tmp_path, holdout_path, preds_path):
    out = tmp_path / "card.json"
    code = run(
        "score",
        "--holdout", holdout_path,
        "--predictions", preds_path,
        "--lang", "te",
        "--out", str(out),
        "--detail", str(tmp_path / "d.jsonl"),
    )
    assert code == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    # strict mode: the spoken-word amount for a digit reference still hits
    # via value comparison, so micro stays 1.0; mode is recorded
    assert record["currency_mode"] == "strict"


def test_score_reruns_byte_identical(tmp_path, holdout_path, preds_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    d1, d2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out, d in ((out1, d1), (out2, d2)):
        assert run(
            "score",
            "--holdout", holdout_path,
            "--predictions", preds_path,
            "--lang", "te",
            "--out", str(out),
            "--detail", str(d),
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert d1.read_bytes() == d2.read_bytes()


def test_score_mixed_systems_need_flag(tmp_path, jsonl_writer, holdout_path, capsys):
    preds = jsonl_writer(
        "mixed.jsonl",
        [
            {"id": "u1", "hypothesis": "x", "system": "a"},
            {"id": "u2", "hypothesis": "y", "system": "b"},
        ],
    )
    code = run("score", "--holdout", holdout_path, "--predictions", preds, "--lang", "te",
               "--out", str(tmp_path / "c.json"), "--detail", str(tmp_path / "d.jsonl"))
    assert code == 2
    assert "--system" in capsys.readouterr().err

    code = run("score", "--holdout", holdout_path, "--predictions", preds, "--lang", "te",
               "--system", "a",
               "--out", str(tmp_path / "c.json"), "--detail", str(tmp_path / "d.jsonl"))
    assert code == 0
    assert json.loads((tmp_path / "c.json").read_text())["n"] == 1


def test_score_malformed_holdout_exits_2(tmp_path, preds_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    code = run("score", "--holdout", str(bad), "--predictions", preds_path, "--lang", "te")
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_score_non_string_token_language_exits_2(tmp_path, preds_path, capsys):
    token = {"surface": "₹5,00,000", "class": "currency_amount", "language": 5}
    holdout = tmp_path / "holdout.jsonl"
    holdout.write_text(json.dumps({**TE_ROWS[1], "entity_tokens": [token]}) + "\n", encoding="utf-8")
    code = run("score", "--holdout", str(holdout), "--predictions", preds_path, "--lang", "te")
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: malformed holdout file {holdout}\n  line 1: entity token language must be a string\n"
    )


@pytest.mark.parametrize("file, override, message", [
    ("holdout", {"entity_tokens": "500081"}, "entity_tokens must be a list"),
    ("holdout", {"entity_tokens": [5]}, "entity token must be a string or object"),
    ("holdout", {"entity_tokens": [{"surface": "", "class": "pincode"}]}, "entity token needs a non-empty 'surface'"),
    ("holdout", {"language": 5}, "language must be a string"),
    ("holdout", {"entity_class": ["digits"]}, "entity_class must be a string"),
    ("predictions", {"hypothesis": None}, "missing or invalid field 'hypothesis'"),
    ("predictions", {"system": 7}, "system must be a string"),
])
def test_score_malformed_field_exits_2_naming_the_line(tmp_path, file, override, message, capsys):
    row, pred = dict(TE_ROWS[0]), dict(TE_PREDS[0])
    (row if file == "holdout" else pred).update(override)
    paths = {"holdout": tmp_path / "holdout.jsonl", "predictions": tmp_path / "preds.jsonl"}
    for path, record in ((paths["holdout"], row), (paths["predictions"], pred)):
        path.write_text(json.dumps({k: v for k, v in record.items() if v is not None}) + "\n", encoding="utf-8")
    code = run("score", "--holdout", str(paths["holdout"]), "--predictions", str(paths["predictions"]),
               "--lang", "te", "--out", str(tmp_path / "c.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"data error: malformed {file} file {paths[file]}\n  line 1: {message}\n"


def test_score_unknown_system_exits_2(tmp_path, holdout_path, preds_path, capsys):
    code = run("score", "--holdout", holdout_path, "--predictions", preds_path, "--lang", "te",
               "--system", "absent", "--out", str(tmp_path / "c.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert "no predictions for system 'absent'" in err and "Traceback" not in err


def test_score_unknown_token_language_is_a_data_error_naming_the_row(tmp_path, preds_path, capsys):
    # the language comes from the holdout file, not from the command line
    token = {"surface": "₹5,00,000", "class": "currency_amount", "language": "xx"}
    holdout = tmp_path / "holdout.jsonl"
    holdout.write_text(json.dumps({**TE_ROWS[1], "entity_tokens": [token]}) + "\n", encoding="utf-8")
    code = run("score", "--holdout", str(holdout), "--predictions", preds_path, "--lang", "te")
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: row {TE_ROWS[1]['id']!r}: no bundled number lexicon for language 'xx'\n"
    )


def test_score_reference_error_quotes_the_surface_as_written(tmp_path, jsonl_writer, capsys):
    holdout = jsonl_writer("holdout.jsonl", [
        {"id": "h1", "text": "पिन ५००८१", "language": "hi", "entity_tokens": [{"surface": "५००८१", "class": "pincode"}]},
    ])
    preds = jsonl_writer("preds.jsonl", [{"id": "h1", "hypothesis": "पिन ५००८१", "system": "a"}])
    code = run("score", "--holdout", holdout, "--predictions", preds, "--lang", "hi")
    assert code == 2
    assert capsys.readouterr().err == (
        "data error: row 'h1': pincode token '५००८१' must have exactly 6 digits, found 5\n"
    )


def test_score_missing_file_exits_2(holdout_path):
    assert run("score", "--holdout", holdout_path, "--predictions", "/no/such.jsonl", "--lang", "te") == 2


def test_score_non_utf8_holdout_exits_2(tmp_path, preds_path, capsys):
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes(json.dumps({"id": "u1", "text": "café"}, ensure_ascii=False).encode("latin-1") + b"\n")
    code = run("score", "--holdout", str(bad), "--predictions", preds_path, "--lang", "te")
    assert code == 2
    assert "line 1: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--aliases", "--lexicon"])
def test_score_non_utf8_side_file_names_file_and_line(tmp_path, holdout_path, preds_path, option, capsys):
    bad = tmp_path / "side.tsv"
    bad.write_bytes(b"# header\ncaf\xe9\tcafe\n")
    code = run("score", "--holdout", holdout_path, "--predictions", preds_path, "--lang", "te", option, str(bad))
    assert code == 2
    assert f"{bad}: line 2: not valid UTF-8" in capsys.readouterr().err


def test_score_lexicon_table_errors_name_every_line(tmp_path, holdout_path, preds_path, capsys):
    lexicon = tmp_path / "te.tsv"
    lexicon.write_text(
        "one\t1\tunit\tlatin\n"
        "ONE\t1\tunit\tlatin\n"
        "# a gross is no power of ten\n"
        "gross\t144\tmultiplier\tlatin\n",
        encoding="utf-8",
    )
    code = run("score", "--holdout", holdout_path, "--predictions", preds_path, "--lang", "te",
               "--lexicon", str(lexicon))
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: malformed lexicon {lexicon}\n"
        "  line 2: duplicate lexicon word 'ONE' in table 'te'\n"
        "  line 4: multiplier 'gross' has value 144; expected a power of 10 >= 1000\n"
    )


def test_score_directory_as_holdout_exits_2(tmp_path, preds_path, capsys):
    code = run("score", "--holdout", str(tmp_path), "--predictions", preds_path, "--lang", "te")
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert run("score", "--holdout", "x") == 1
    assert run("nonsense") == 1
    assert run("score", "--holdout", "x", "--predictions", "y", "--lang", "fr") == 1
    capsys.readouterr()


def test_score_csv_format(tmp_path, holdout_path, preds_path, capsys):
    code = run(
        "score", "--holdout", holdout_path, "--predictions", preds_path, "--lang", "te",
        "--currency-mode", "bidirectional",
        "--out", str(tmp_path / "c.json"), "--detail", str(tmp_path / "d.jsonl"),
        "--format", "csv",
    )
    assert code == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0].split(",")
    assert header[:4] == ["system", "holdout", "language", "n"]


def test_score_prints_each_format_in_full(tmp_path, holdout_path, preds_path, capsys):
    expected = {
        "table": (
            "system: modelA    holdout: holdout    language: te    n: 3\n"
            "WER 0.300    CER 0.250    SFR 1.000    EHR micro 1.000 / macro 1.000\n"
            "entity classes:\n"
            "  currency_amount  n    1  hits    1  rate 1.000\n"
            "  digit_run        n    1  hits    1  rate 1.000\n"
        ),
        "records": (
            '{"cer": {"distance": 17, "rate": 0.25, "reference_length": 68}, "currency_mode": "bidirectional",'
            ' "ehr": {"macro": 1.0, "micro": 1.0, "per_class": {"currency_amount": {"hits": 1, "n": 1, "rate": 1.0},'
            ' "digit_run": {"hits": 1, "n": 1, "rate": 1.0}}}, "holdout": "holdout", "language": "te", "n": 3,'
            ' "normalization": "default", "sfr": {"in_block_count": 34, "letter_count": 34, "value": 1.0},'
            ' "system": "modelA", "unmatched_prediction_ids": [], "unmatched_row_ids": [],'
            ' "wer": {"distance": 3, "rate": 0.3, "reference_length": 10}}\n'
        ),
        "csv": (
            "system,holdout,language,n,wer,cer,sfr,ehr_micro,ehr_macro,ehr[currency_amount],ehr[digit_run]\n"
            "modelA,holdout,te,3,0.3,0.25,1.0,1.0,1.0,1.0,1.0\n"
        ),
    }
    for fmt, text in expected.items():
        assert run(
            "score", "--holdout", holdout_path, "--predictions", preds_path, "--lang", "te",
            "--currency-mode", "bidirectional",
            "--out", str(tmp_path / "c.json"), "--detail", str(tmp_path / "d.jsonl"),
            "--format", fmt,
        ) == 0
        assert capsys.readouterr().out == text


PIN_ROWS = [
    {"id": "r1", "text": "పిన్ కోడ్ 500081 పంపండి", "language": "te", "entity_class": "digits",
     "entity_tokens": ["500081"]},
    {"id": "r2", "text": "మొత్తం ₹500 మాత్రమే", "language": "te",
     "entity_tokens": [{"surface": "₹500", "class": "currency_amount"}]},
    {"id": "r3", "text": "నమస్కారం అంతే సరే", "language": "te"},  # no entity tokens
    {"id": "r4", "text": "ఇది ఊహించలేదు", "language": "te"},  # no prediction
]
PIN_PREDS = [
    {"id": "r1", "hypothesis": "పిన్ కోడ్ 500081 పంపండి", "system": "మోడల్"},
    {"id": "r2", "hypothesis": "500", "system": "మోడల్"},  # no letters: SFR undefined
    {"id": "r3", "hypothesis": "నమస్కారం సరే", "system": "మోడల్"},
]


def score_pin_fixture(tmp_path, jsonl_writer):
    card, detail = tmp_path / "pin.json", tmp_path / "pin.jsonl"
    assert run(
        "score", "--holdout", jsonl_writer("pin_holdout.jsonl", PIN_ROWS),
        "--predictions", jsonl_writer("pin_preds.jsonl", PIN_PREDS), "--lang", "te",
        "--out", str(card), "--detail", str(detail),
    ) == 0
    return card, detail


def test_score_writes_the_exact_scorecard_and_detail_bytes(tmp_path, jsonl_writer, capsys):
    card, detail = score_pin_fixture(tmp_path, jsonl_writer)
    assert card.read_bytes().decode("utf-8") == """\
{
  "cer": {
    "distance": 21,
    "rate": 0.3559322033898305,
    "reference_length": 59
  },
  "currency_mode": "strict",
  "ehr": {
    "macro": 1.0,
    "micro": 1.0,
    "per_class": {
      "currency_amount": {
        "hits": 1,
        "n": 1,
        "rate": 1.0
      },
      "digit_run": {
        "hits": 1,
        "n": 1,
        "rate": 1.0
      }
    }
  },
  "holdout": "pin_holdout",
  "language": "te",
  "n": 3,
  "normalization": "default",
  "sfr": {
    "in_block_count": 14,
    "letter_count": 14,
    "value": 1.0
  },
  "system": "మోడల్",
  "unmatched_prediction_ids": [],
  "unmatched_row_ids": [
    "r4"
  ],
  "wer": {
    "distance": 3,
    "rate": 0.3,
    "reference_length": 10
  }
}
"""
    assert detail.read_bytes().decode("utf-8") == (
        '{"cer": 0.0, "entities": [{"detail": "run 500081 present", "hit": true, "matcher_class": "digit_run",'
        ' "surface": "500081"}], "id": "r1", "sfr": 1.0, "wer": 0.0}\n'
        '{"cer": 0.8421052631578947, "entities": [{"detail": "surface recovered verbatim", "hit": true,'
        ' "matcher_class": "currency_amount", "surface": "₹500"}], "id": "r2", "sfr": null,'
        ' "wer": 0.6666666666666666}\n'
        '{"cer": 0.29411764705882354, "entities": [], "id": "r3", "sfr": 1.0, "wer": 0.3333333333333333}\n'
    )


def test_a_written_scorecard_reads_back_as_its_record(tmp_path, jsonl_writer, capsys):
    from indicscore.corpus import load_holdout, load_predictions
    from indicscore.matchers import ScoringConfig
    from indicscore.scorecard import load_scorecard_record, score_predictions, scorecard_record

    card_path, _ = score_pin_fixture(tmp_path, jsonl_writer)
    card, _ = score_predictions(
        load_holdout(tmp_path / "pin_holdout.jsonl"), load_predictions(tmp_path / "pin_preds.jsonl"),
        language="te", system="మోడల్", holdout_name="pin_holdout", config=ScoringConfig(language="te"),
    )
    assert load_scorecard_record(card_path) == scorecard_record(card)


@pytest.mark.parametrize("existing", [False, True])
def test_score_writes_no_scorecard_when_the_detail_cannot_be_written(
    tmp_path, holdout_path, preds_path, existing, capsys
):
    out = tmp_path / "ok.json"
    if existing:
        out.write_bytes(b"an earlier scorecard\n")
    code = run(
        "score", "--holdout", holdout_path, "--predictions", preds_path, "--lang", "te",
        "--out", str(out), "--detail", str(tmp_path / "missing_dir" / "d.jsonl"),
    )
    assert code == 2
    assert "data error: [Errno 2]" in capsys.readouterr().err
    if existing:
        assert out.read_bytes() == b"an earlier scorecard\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["holdout.jsonl", "preds.jsonl"] + (["ok.json"] if existing else [])
    )


@pytest.mark.parametrize("detail", ["card.json", "./card.json", "link.json"])
def test_score_refuses_a_detail_file_that_is_the_scorecard(tmp_path, holdout_path, preds_path, detail, capsys):
    out = tmp_path / "card.json"
    out.write_bytes(b"an earlier scorecard\n")
    (tmp_path / "link.json").symlink_to("card.json")
    code = run(
        "score", "--holdout", holdout_path, "--predictions", preds_path, "--lang", "te",
        "--out", str(out), "--detail", os.path.join(tmp_path, detail),
    )
    assert code == 1
    assert capsys.readouterr().err == f"configuration error: two outputs name the same file: {out}\n"
    assert out.read_bytes() == b"an earlier scorecard\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["card.json", "holdout.jsonl", "link.json", "preds.jsonl"]


@pytest.mark.skipif(os.geteuid() == 0, reason="root may create files in a 0o555 directory")
def test_score_fails_on_a_writable_scorecard_in_a_read_only_directory(tmp_path, holdout_path, preds_path, capsys):
    locked = tmp_path / "locked"
    locked.mkdir()
    out = locked / "card.json"
    out.write_bytes(b"an earlier scorecard\n")
    locked.chmod(0o555)
    try:
        code = run("score", "--holdout", holdout_path, "--predictions", preds_path, "--lang", "te", "--out", str(out))
    finally:
        locked.chmod(0o755)
    assert code == 2
    assert f"cannot create a temp file in {locked} to replace {out}" in capsys.readouterr().err
    assert out.read_bytes() == b"an earlier scorecard\n"
    assert [p.name for p in locked.iterdir()] == ["card.json"]


BRAND_ROWS = [
    {"id": f"b{i}", "text": f"{brand} లో ఆర్డర్ చేయండి", "language": "te", "entity_class": "brands",
     "entity_tokens": [brand]}
    for i, brand in enumerate(["Flipkart", "Zomato", "Flipkart", "Flipkart"])
]


def score_brands(tmp_path, jsonl_writer, *options):
    holdout = jsonl_writer("brands.jsonl", BRAND_ROWS)
    preds = jsonl_writer("brand_preds.jsonl", [{"id": r["id"], "hypothesis": r["text"]} for r in BRAND_ROWS])
    return run(
        "score", "--holdout", holdout, "--predictions", preds, "--lang", "te",
        "--out", str(tmp_path / "card.json"), "--detail", str(tmp_path / "detail.jsonl"), *options,
    )


def test_score_warns_once_per_unlisted_brand_with_its_count(tmp_path, jsonl_writer, capsys):
    assert score_brands(tmp_path, jsonl_writer) == 0
    assert capsys.readouterr().err.splitlines() == [
        "WARNING indicscore.matchers: brand 'Flipkart' has no alias entry;"
        " matching on its own surface only (3 tokens)",
        "WARNING indicscore.matchers: brand 'Zomato' has no alias entry;"
        " matching on its own surface only (1 token)",
    ]
    card = json.loads((tmp_path / "card.json").read_text(encoding="utf-8"))
    assert card["ehr"]["per_class"]["brand"]["hits"] == 4  # the fallback still hits


def test_score_does_not_warn_of_a_listed_brand(tmp_path, jsonl_writer, capsys):
    aliases = tmp_path / "aliases.tsv"
    aliases.write_text("Flipkart\tflip kart\nZomato\n", encoding="utf-8")
    assert score_brands(tmp_path, jsonl_writer, "--aliases", str(aliases)) == 0
    assert capsys.readouterr().err == ""
    aliases.write_text("Flipkart\tflip kart\n", encoding="utf-8")
    assert score_brands(tmp_path, jsonl_writer, "--aliases", str(aliases)) == 0
    assert capsys.readouterr().err == (
        "WARNING indicscore.matchers: brand 'Zomato' has no alias entry;"
        " matching on its own surface only (1 token)\n"
    )


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def test_diagnose_sfr_values(capsys):
    code = run("diagnose", "--lang", "te", "--sfr", "a=0.701", "--sfr", "b=0.462", "--sfr", "c=0.712")
    assert code == 0
    assert "apply_adaptation" in capsys.readouterr().out


def test_diagnose_prints_each_format_in_full(capsys):
    expected = {
        "table": (
            "language: te\n"
            "  a: SFR 0.701 (below)\n"
            "  b: SFR 0.462 (below)\n"
            "  c: SFR 0.712 (below)\n"
            "verdict: apply_adaptation\n"
        ),
        "records": (
            '{"language": "te", "per_holdout_sfr": {"a": 0.701, "b": 0.462, "c": 0.712},'
            ' "verdict": "apply_adaptation"}\n'
        ),
        "csv": (
            "language,holdout,sfr,verdict\n"
            "te,a,0.701,apply_adaptation\n"
            "te,b,0.462,apply_adaptation\n"
            "te,c,0.712,apply_adaptation\n"
        ),
    }
    for fmt, text in expected.items():
        argv = ["--sfr", "a=0.701", "--sfr", "b=0.462", "--sfr", "c=0.712", "--format", fmt]
        assert run("diagnose", "--lang", "te", *argv) == 0
        assert capsys.readouterr().out == text


def test_diagnose_from_transcripts(tmp_path, capsys):
    te = tmp_path / "te.txt"
    te.write_text("నమస్కారం\nఅంతా బాగుంది\n", encoding="utf-8")
    latin = tmp_path / "latin.txt"
    latin.write_text("hello there\nall fine\n", encoding="utf-8")
    code = run("diagnose", "--lang", "te", "--transcripts", f"clean={te}", "--transcripts", f"noisy={latin}")
    assert code == 0
    out = capsys.readouterr().out
    assert "clean: SFR 1.000 (ok)" in out
    assert "noisy: SFR 0.000 (below)" in out
    assert "contraindicated" in out  # only one holdout is below


def test_diagnose_non_utf8_transcripts_names_file_and_line(tmp_path, capsys):
    te = tmp_path / "te.txt"
    te.write_text("నమస్కారం\n", encoding="utf-8")
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("hello\ncafé\n".encode("latin-1"))
    code = run("diagnose", "--lang", "te", "--transcripts", f"a={te}", "--transcripts", f"b={bad}")
    assert code == 2
    assert f"{bad}: line 2: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("\n  \n", "is empty"),
    ("123 456\n!!\n", "has no letters; SFR undefined"),
])
def test_diagnose_transcripts_without_letters_exit_2(tmp_path, text, message, capsys):
    te = tmp_path / "te.txt"
    te.write_text("నమస్కారం\n", encoding="utf-8")
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    assert run("diagnose", "--lang", "te", "--transcripts", f"a={te}", "--transcripts", f"b={bad}") == 2
    captured = capsys.readouterr()
    assert captured.err == f"data error: transcript file {bad} {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("options", [
    ("--sfr", "a=0.1", "--sfr", "a=0.9", "--sfr", "b=0.3"),
    ("--sfr", "a=0.9", "--sfr", "a=0.1", "--sfr", "b=0.3"),
    ("--sfr", "a=0.1", "--sfr", "b=0.3", "--transcripts", "a=absent.txt"),
    ("--transcripts", "a=absent.txt", "--transcripts", "a=absent.txt", "--sfr", "b=0.3"),
])
def test_diagnose_repeated_holdout_name_exits_1_before_any_file_is_read(options, capsys):
    assert run("diagnose", "--lang", "te", *options) == 1
    captured = capsys.readouterr()
    assert captured.err == "configuration error: name 'a' is given twice\n"
    assert captured.out == ""


def test_diagnose_single_holdout_exits_1(capsys):
    assert run("diagnose", "--lang", "te", "--sfr", "a=0.5") == 1
    assert "configuration error" in capsys.readouterr().err


def test_diagnose_bad_pair_exits_1(capsys):
    assert run("diagnose", "--lang", "te", "--sfr", "nope") == 1
    assert run("diagnose", "--lang", "te", "--sfr", "a=low", "--sfr", "b=0.2") == 1
    capsys.readouterr()


@pytest.mark.parametrize("values", [("a=nan", "b=nan"), ("a=-3", "b=0.5"), ("a=1.2", "b=0.5")])
def test_diagnose_sfr_outside_the_unit_interval_exits_1(values, capsys):
    argv = [arg for value in values for arg in ("--sfr", value)]
    assert run("diagnose", "--lang", "te", *argv) == 1
    captured = capsys.readouterr()
    assert "configuration error: SFR of holdout 'a'" in captured.err
    assert captured.out == ""


def test_diagnose_records_format(capsys):
    code = run("diagnose", "--lang", "hi", "--sfr", "a=0.983", "--sfr", "b=0.993", "--format", "records")
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "contraindicated"
    assert record["per_holdout_sfr"]["a"] == 0.983


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def score_base_and_cand(tmp_path, holdout_path, jsonl_writer):
    """Scorecards of a perfect system `base` and a worse one `cand`."""
    base_preds = jsonl_writer(
        "base.jsonl",
        [
            {"id": "u1", "hypothesis": "పిన్ కోడ్ 500081 పంపండి", "system": "base"},
            {"id": "u3", "hypothesis": "నమస్కారం అంతే సరే", "system": "base"},
        ],
    )
    cand_preds = jsonl_writer(
        "cand.jsonl",
        [
            {"id": "u1", "hypothesis": "పిన్ కోడ్ పంపండి", "system": "cand"},
            {"id": "u3", "hypothesis": "నమస్కారం అంతే", "system": "cand"},
        ],
    )
    base_card = tmp_path / "base.json"
    cand_card = tmp_path / "cand.json"
    for preds, card in ((base_preds, base_card), (cand_preds, cand_card)):
        assert run(
            "score", "--holdout", holdout_path, "--predictions", preds, "--lang", "te",
            "--out", str(card), "--detail", str(tmp_path / "d.jsonl"),
        ) == 0
    return base_card, cand_card


def test_compare_two_scorecards(tmp_path, holdout_path, jsonl_writer, capsys):
    base_card, cand_card = score_base_and_cand(tmp_path, holdout_path, jsonl_writer)
    capsys.readouterr()
    code = run("compare", "--baseline", str(base_card), str(cand_card))
    assert code == 0
    out = capsys.readouterr().out
    assert "cand" in out and "ΔWER" in out


def test_compare_prints_each_format_in_full(tmp_path, holdout_path, jsonl_writer, capsys):
    base_card, cand_card = score_base_and_cand(tmp_path, holdout_path, jsonl_writer)
    capsys.readouterr()
    expected = {
        "table": (
            "system    ΔWER    ΔCER    ΔSFR  ΔEHR(micro)  ΔEHR(macro)  EHR ratio\n"
            "cand    +0.286  +0.275  +0.000       -1.000       -1.000       0.0x\n"
            "(+WER/+CER = regression; +SFR/+EHR = improvement)\n"
        ),
        "records": (
            '{"baseline": "base", "deltas": {"cer": 0.275, "ehr_macro": -1.0, "ehr_micro": -1.0, "sfr": 0.0,'
            ' "wer": 0.2857142857142857}, "ehr_micro_ratio": 0.0, "holdout": "holdout", "language": "te",'
            ' "system": "cand", "values": {"cer": 0.275, "ehr_macro": 0.0, "ehr_micro": 0.0, "sfr": 1.0,'
            ' "wer": 0.2857142857142857}}\n'
        ),
        "csv": (
            "system,baseline,delta_wer,delta_cer,delta_sfr,delta_ehr_micro,delta_ehr_macro,ehr_micro_ratio\n"
            "cand,base,0.2857142857142857,0.275,0.0,-1.0,-1.0,0.0\n"
        ),
    }
    for fmt, text in expected.items():
        assert run("compare", "--baseline", str(base_card), str(cand_card), "--format", fmt) == 0
        assert capsys.readouterr().out == text


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_score_diagnose_and_compare_leave_no_file_descriptor_open(tmp_path, holdout_path, jsonl_writer, capsys):
    # The CLI ends with os._exit, so no interpreter teardown turns a file left
    # open into a ResourceWarning; this is the check that each call closes its own.
    base_card, cand_card = score_base_and_cand(tmp_path, holdout_path, jsonl_writer)
    aliases, bad_lexicon, te, bad = (tmp_path / name for name in ("aliases.tsv", "bad.tsv", "te.txt", "bad.txt"))
    aliases.write_text("Paytm\tpaytm app\n", encoding="utf-8")
    bad_lexicon.write_text("gross\t144\tmultiplier\tlatin\n", encoding="utf-8")
    te.write_text("నమస్కారం\n", encoding="utf-8")
    bad.write_bytes("café\n".encode("latin-1"))
    lexicon = str(Path(cli_module.__file__).parent / "data" / "lexicons" / "te.tsv")
    score = ["score", "--holdout", holdout_path, "--predictions", str(tmp_path / "cand.jsonl"), "--lang", "te",
             "--aliases", str(aliases), "--out", str(tmp_path / "card.json")]
    calls = [
        ([*score, "--lexicon", lexicon], 0),
        ([*score, "--lexicon", lexicon, "--detail", str(tmp_path / "card.json")], 1),
        ([*score, "--lexicon", str(bad_lexicon)], 2),
        (["diagnose", "--lang", "te", "--transcripts", f"a={te}", "--transcripts", f"b={te}"], 0),
        (["diagnose", "--lang", "te", "--transcripts", f"a={te}", "--transcripts", f"a={te}"], 1),
        (["diagnose", "--lang", "te", "--transcripts", f"a={te}", "--transcripts", f"b={bad}"], 2),
        (["compare", "--baseline", str(base_card), str(cand_card)], 0),
        (["compare", "--baseline", str(base_card), str(cand_card), "--format", "xml"], 1),
        (["compare", "--baseline", str(base_card), str(bad)], 2),
    ]
    before = sorted(os.listdir("/proc/self/fd"))
    for argv, code in calls:
        assert (run(*argv), sorted(os.listdir("/proc/self/fd"))) == (code, before), argv
    capsys.readouterr()


def test_compare_mismatched_holdouts_exit_2(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    record = {
        "system": "s", "holdout": "h1", "language": "te", "n": 1,
        "wer": {"distance": 1, "reference_length": 10, "rate": 0.1},
        "cer": {"distance": 1, "reference_length": 50, "rate": 0.02},
        "sfr": {"letter_count": 10, "in_block_count": 10, "value": 1.0},
        "ehr": {"per_class": {}, "micro": None, "macro": None},
    }
    a.write_text(json.dumps(record), encoding="utf-8")
    record["holdout"] = "h2"
    b.write_text(json.dumps(record), encoding="utf-8")
    assert run("compare", "--baseline", str(a), str(b)) == 2
    capsys.readouterr()


def test_compare_invalid_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert run("compare", "--baseline", str(bad), str(bad)) == 2
    capsys.readouterr()


def test_compare_non_utf8_scorecard_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{\n"holdout": "café"}\n'.encode("latin-1"))
    assert run("compare", "--baseline", str(bad), str(bad)) == 2
    assert f"{bad}: line 2: not valid UTF-8" in capsys.readouterr().err


def test_compare_non_object_metrics_exit_2(tmp_path, capsys):
    flat = tmp_path / "flat.json"
    flat.write_text(
        json.dumps({"holdout": "h", "language": "te", "wer": 0.1, "cer": 0.1, "sfr": 0.9, "ehr": 0.5}),
        encoding="utf-8",
    )
    assert run("compare", "--baseline", str(flat), str(flat)) == 2
    assert "wer.rate" in capsys.readouterr().err


@pytest.mark.parametrize("key, field, value", [("wer", "rate", "NaN"), ("ehr", "micro", "Infinity")])
def test_compare_non_finite_metric_exits_2(tmp_path, holdout_path, preds_path, capsys, key, field, value):
    card = tmp_path / "card.json"
    assert run("score", "--holdout", holdout_path, "--predictions", preds_path, "--lang", "te",
               "--out", str(card), "--detail", str(tmp_path / "d.jsonl")) == 0
    record = json.loads(card.read_text(encoding="utf-8"))
    record[key][field] = float(value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(record), encoding="utf-8")
    capsys.readouterr()
    for cards in ((bad, card), (card, bad)):
        assert run("compare", "--baseline", *map(str, cards), "--format", "records") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"scorecard {bad} needs a finite number or null" in err


def test_compare_refuses_other_currency_mode_or_normalization(tmp_path, holdout_path, preds_path, capsys):
    cards = {}
    for name, flags in (
        ("base", ()),
        ("wide", ("--currency-mode", "bidirectional")),
        ("strict_norm", ("--normalization", "strict")),
    ):
        cards[name] = tmp_path / f"{name}.json"
        assert run(
            "score", "--holdout", holdout_path, "--predictions", preds_path, "--lang", "te",
            "--out", str(cards[name]), "--detail", str(tmp_path / "d.jsonl"), *flags,
        ) == 0
    capsys.readouterr()
    for name, key in (("wide", "currency_mode"), ("strict_norm", "normalization")):
        assert run("compare", "--baseline", str(cards["base"]), str(cards[name])) == 2
        assert key in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

MANIFEST = [
    {"id": f"m{i:03d}", "text": "ఇది ఒక పరీక్ష వాక్యం సరే", "language": "te",
     "corpus_class": "digits" if i % 3 else "currency"}
    for i in range(30)
] + [
    {"id": "cm1", "text": "code mix వాక్యం okay", "language": "te", "corpus_class": "codemix"},
]


@pytest.fixture
def manifest_path(jsonl_writer):
    return jsonl_writer("manifest.jsonl", MANIFEST)


def test_pipeline_route(tmp_path, manifest_path, capsys):
    out = tmp_path / "routed.jsonl"
    assert run("pipeline", "route", "--manifest", manifest_path, "--out", str(out), "--seed", "7") == 0
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert all("synth_system" in r for r in rows)
    codemix = [r for r in rows if r["corpus_class"] == "codemix"]
    assert codemix[0]["synth_system"] == "indicf5"
    assert "total" in capsys.readouterr().out


def test_pipeline_route_deterministic(tmp_path, manifest_path, capsys):
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    for out in (out1, out2):
        assert run("pipeline", "route", "--manifest", manifest_path, "--out", str(out), "--seed", "7") == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_pipeline_route_custom_weights(tmp_path, manifest_path, capsys):
    out = tmp_path / "routed.jsonl"
    assert run(
        "pipeline", "route", "--manifest", manifest_path, "--out", str(out),
        "--weights", "cartesia=1.0",
    ) == 0
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert {r["synth_system"] for r in rows if r["corpus_class"] != "codemix"} == {"cartesia"}
    capsys.readouterr()


def test_pipeline_filter_and_split(tmp_path, jsonl_writer, capsys):
    synthesized = [
        {"id": f"s{i}", "text": "వాక్యం ఇక్కడ ఉంది", "language": "te", "corpus_class": "digits",
         "synth_system": "cartesia" if i % 4 == 0 else "praxy",
         "status": "synthesized",
         "cer_against_source": 0.51 if i % 5 == 0 else 0.2}
        for i in range(20)
    ]
    manifest = jsonl_writer("synth.jsonl", synthesized)
    accepted = tmp_path / "accepted.jsonl"
    rejected = tmp_path / "rejected.jsonl"
    assert run(
        "pipeline", "filter", "--manifest", manifest,
        "--out", str(accepted), "--rejected", str(rejected), "--threshold", "0.5",
    ) == 0
    acc = [json.loads(l) for l in accepted.read_text(encoding="utf-8").splitlines()]
    rej = [json.loads(l) for l in rejected.read_text(encoding="utf-8").splitlines()]
    assert len(acc) == 16 and len(rej) == 4
    assert all(r["status"] == "accepted" for r in acc)
    assert all(r["status"] == "filtered_out" for r in rej)

    train = tmp_path / "train.jsonl"
    heldout = tmp_path / "heldout.jsonl"
    assert run(
        "pipeline", "split", "--manifest", str(accepted),
        "--out-train", str(train), "--out-heldout", str(heldout),
    ) == 0
    held = [json.loads(l) for l in heldout.read_text(encoding="utf-8").splitlines()]
    assert all(r["synth_system"] == "cartesia" for r in held)
    trained = [json.loads(l) for l in train.read_text(encoding="utf-8").splitlines()]
    assert {r["id"] for r in trained} | {r["id"] for r in held} == {r["id"] for r in acc}
    capsys.readouterr()


def test_pipeline_split_warns_on_stderr_of_an_empty_heldout_side(tmp_path, jsonl_writer):
    rows = [
        {"id": f"s{i}", "text": "వాక్యం ఇక్కడ ఉంది", "language": "te", "corpus_class": "digits",
         "synth_system": "praxy", "status": "accepted"}
        for i in range(3)
    ]
    manifest = jsonl_writer("accepted.jsonl", rows)
    # a fresh interpreter: in this one the test runner's log handlers take the warning
    src = str(Path(cli_module.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "indicscore.cli", "pipeline", "split", "--manifest", manifest,
         "--out-train", str(tmp_path / "train.jsonl"), "--out-heldout", str(tmp_path / "heldout.jsonl")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)),
    )
    assert result.returncode == 0
    assert result.stderr == "WARNING indicscore.pipeline: held-out split is empty: no rows from cartesia\n"
    assert result.stdout.startswith("train 3  heldout 0\n")


def test_pipeline_balance(tmp_path, manifest_path, capsys):
    out = tmp_path / "balanced.jsonl"
    assert run(
        "pipeline", "balance", "--manifest", manifest_path, "--out", str(out),
        "--per-class", "5", "--seed", "3",
    ) == 0
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    counts = {}
    for r in rows:
        counts[r["corpus_class"]] = counts.get(r["corpus_class"], 0) + 1
    assert counts == {"digits": 5, "currency": 5, "codemix": 1}
    capsys.readouterr()


def test_pipeline_validate(tmp_path, jsonl_writer, capsys):
    rows = [
        {"id": "ok", "text": "ఇది మంచి తెలుగు వాక్యం సరే", "language": "te", "corpus_class": "digits"},
        {"id": "short", "text": "ఒకటి", "language": "te", "corpus_class": "digits"},
        {"id": "latin", "text": "this is english text only okay", "language": "te", "corpus_class": "digits"},
    ]
    manifest = jsonl_writer("v.jsonl", rows)
    assert run("pipeline", "validate", "--manifest", manifest) == 0
    out = capsys.readouterr().out
    assert "short: length" in out
    assert "latin: script_purity" in out
    assert "1 of 3 rows clean" in out


def test_pipeline_validate_merges_overlapping_entity_spans(jsonl_writer, capsys):
    # "Hills" lies inside "Jubilee Hills": one span, whose Latin letters purity skips
    row = {
        "id": "jh", "text": "మేము Jubilee Hills లో ఉన్నాము సరే", "language": "te", "corpus_class": "proper_nouns",
        "entity_tokens": [{"surface": "Jubilee Hills", "class": "proper_noun"}, {"surface": "Hills", "class": "proper_noun"}],
    }
    manifest = jsonl_writer("v.jsonl", [row])
    assert run("pipeline", "validate", "--manifest", manifest) == 0
    assert "1 of 1 rows clean, 0 violations" in capsys.readouterr().out
    for fmt in ("records", "csv"):  # no violation is no line, not even a CSV header
        assert run("pipeline", "validate", "--manifest", manifest, "--format", fmt) == 0
        assert capsys.readouterr().out == ""


def test_pipeline_validate_prints_each_format_in_full(jsonl_writer, capsys):
    rows = [
        {"id": "ok", "text": "ఇది మంచి తెలుగు వాక్యం సరే", "language": "te", "corpus_class": "digits"},
        {"id": "short", "text": "ఒకటి", "language": "te", "corpus_class": "digits"},
        {
            "id": "latin", "text": "this is english text only okay", "language": "te",
            "corpus_class": "digits", "entity_tokens": ["99"],
        },
    ]
    manifest = jsonl_writer("v.jsonl", rows)
    expected = {
        "table": (
            "short: length: 1 tokens outside [3, 25]\n"
            "latin: entity_span: entity surface '99' not found in text\n"
            "latin: script_purity: off-script content exceeds 20%\n"
            "1 of 3 rows clean, 3 violations\n"
        ),
        "records": (
            '{"detail": "1 tokens outside [3, 25]", "id": "short", "kind": "length"}\n'
            '{"detail": "entity surface \'99\' not found in text", "id": "latin", "kind": "entity_span"}\n'
            '{"detail": "off-script content exceeds 20%", "id": "latin", "kind": "script_purity"}\n'
        ),
        "csv": (
            "id,kind,detail\n"
            'short,length,"1 tokens outside [3, 25]"\n'
            "latin,entity_span,entity surface '99' not found in text\n"
            "latin,script_purity,off-script content exceeds 20%\n"
        ),
    }
    for fmt, text in expected.items():
        assert run("pipeline", "validate", "--manifest", manifest, "--format", fmt) == 0
        assert capsys.readouterr().out == text


def test_pipeline_validate_prints_its_table_as_it_goes(jsonl_writer, monkeypatch):
    # records print 64 at a time as they are encoded; the table of the same
    # violations must not be held whole either, so it peaks no higher (tracemalloc is exact)
    rows = [{"id": f"r{i:05d}", "text": "ఒకటి", "language": "te", "corpus_class": "digits"} for i in range(4000)]
    argv = ["pipeline", "validate", "--manifest", jsonl_writer("short.jsonl", rows), "--format"]
    monkeypatch.setattr(pipeline_cli, "_usable_cpus", lambda: 1)  # every allocation in this process
    peaks = {}
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        for fmt in ("records", "table", "records", "table"):  # the first two fill imports and memos
            tracemalloc.start()
            try:
                assert run(*argv, fmt) == 0
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks["table"] <= peaks["records"] + 16 * 1024, peaks


@pytest.mark.parametrize("fmt, text", [("records", '{"a": "x"}\n'), ("csv", "a\nx\n")])
def test_emit_renders_the_table_only_for_table_format(fmt, text, capsys):
    def table():
        raise AssertionError(f"table rendered for --format {fmt}")

    cli_module._emit(fmt, table, iter([{"a": "x"}]))
    assert capsys.readouterr().out == text


class CountingStdout(io.StringIO):
    """A stdout that counts its write calls, as an unbuffered one makes them."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["table", "records", "csv"])
def test_emit_prints_64_lines_to_a_write(fmt):
    # every third detail needs CSV quoting, and holds a line break inside its quotes
    records = [
        {"id": f"r{i:05d}", "kind": "length", "detail": 'ఒకటి, "రెండు"\nమూడు' if i % 3 == 0 else "ఒకటి"}
        for i in range(4000)
    ]
    lines = [json.dumps(record, ensure_ascii=False, sort_keys=True) for record in records]
    expected = io.StringIO()
    if fmt == "csv":
        writer = csv.DictWriter(expected, fieldnames=list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
    else:
        expected.writelines(line + "\n" for line in lines)
    out = CountingStdout()
    with contextlib.redirect_stdout(out):
        cli_module._emit(fmt, lambda: iter(lines), iter(records))
    assert out.getvalue() == expected.getvalue()
    assert out.writes <= 2 * -(-4001 // 64)  # the CSV header is a line too


def python_child(*args, unbuffered=None, **popen_options):
    """A fresh interpreter that imports this checkout's package, with stdout
    unbuffered or not as ``unbuffered`` says (else as this one's environment does)."""
    src = str(Path(cli_module.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = "1" if unbuffered else ""  # empty is unset
    return subprocess.Popen([sys.executable, *args], stderr=subprocess.PIPE, env=env, **popen_options)


def cli_child(*argv, **popen_options):
    """The CLI's entry point in a fresh interpreter that imports this checkout's package."""
    return python_child("-m", "indicscore.cli", *argv, **popen_options)


def short_rows_manifest(jsonl_writer, count):
    rows = [{"id": f"r{i:05d}", "text": "ఒకటి", "language": "te", "corpus_class": "digits"} for i in range(count)]
    return jsonl_writer("short.jsonl", rows)  # one violation per row


def test_a_reader_closing_stdout_early_is_not_a_data_error(jsonl_writer):
    manifest = short_rows_manifest(jsonl_writer, 4000)  # a 40-byte violation line per row: 160 KB, over a pipe's 64 KiB
    child = cli_child("pipeline", "validate", "--manifest", manifest, stdout=subprocess.PIPE)
    assert child.stdout.readline() == b"r00000: length: 1 tokens outside [3, 25]\n"
    child.stdout.close()  # as `| head -1` does
    _, err = child.communicate(timeout=120)
    assert b"data error" not in err and b"Exception ignored" not in err, err
    assert child.returncode == cli_module.EXIT_CLOSED_PIPE


def test_main_returns_141_when_stdout_is_closed_early(manifest_path):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(io.StringIO()) as err:
        assert run("pipeline", "validate", "--manifest", manifest_path) == cli_module.EXIT_CLOSED_PIPE
    assert err.getvalue() == ""


def test_a_call_started_with_stdout_closed_succeeds(manifest_path):
    child = cli_child("pipeline", "validate", "--manifest", manifest_path, preexec_fn=lambda: os.close(1))
    _, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (0, b"")


# The entry point ends the process with os._exit once main returns: what a
# fresh interpreter shows must be what main shows, whether stdout is buffered or not.
@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_records_output_over_64_kib_reaches_a_pipe_whole(jsonl_writer, unbuffered, capsys):
    argv = ["pipeline", "validate", "--manifest", short_rows_manifest(jsonl_writer, 2000), "--format", "records"]
    assert run(*argv) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    assert len(expected) > 1 << 16  # more than a pipe holds
    child = cli_child(*argv, unbuffered=unbuffered, stdout=subprocess.PIPE)
    out, err = child.communicate(timeout=120)
    assert (child.returncode, err, out) == (0, b"", expected)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_fresh_interpreter_gives_the_exit_code_and_output_main_gives(
        tmp_path, jsonl_writer, holdout_path, preds_path, unbuffered, capsys):
    heldout_empty = jsonl_writer("praxy.jsonl", [
        {"id": f"s{i}", "text": "వాక్యం ఇక్కడ ఉంది", "language": "te", "corpus_class": "digits",
         "synth_system": "praxy", "status": "accepted"} for i in range(3)])
    split = ["pipeline", "split", "--manifest", heldout_empty,
             "--out-train", str(tmp_path / "train.jsonl"), "--out-heldout", str(tmp_path / "heldout.jsonl")]
    score = ["score", "--holdout", holdout_path, "--predictions", preds_path, "--lang", "te"]
    calls = [
        (split, 0),  # a warning on stderr
        (score, 0),
        (["--help"], 0),
        (["score", "--holdout", holdout_path], 1),  # a usage error
        ([*split[:-1], str(tmp_path / "train.jsonl")], 1),  # a configuration error
        (["pipeline", "validate", "--manifest", str(tmp_path / "absent.jsonl")], 2),
        ([*score[:-1], "ta"], 2),  # a data error
    ]
    errs = []
    for argv, code in calls:
        assert run(*argv) == code, argv
        expected = capsys.readouterr()
        child = cli_child(*argv, unbuffered=unbuffered, stdout=subprocess.PIPE)
        out, err = child.communicate(timeout=120)
        assert (child.returncode, out.decode("utf-8"), err.decode("utf-8")) == (code, expected.out, expected.err)
        errs.append(expected.err)
    assert errs[0] == "WARNING indicscore.pipeline: held-out split is empty: no rows from cartesia\n"
    assert all(errs[3:]) and not any(errs[1:3])  # an error message for each failing call only


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("manifest, code", [("short.jsonl", 0), ("absent.jsonl", 2)])
def test_an_atexit_handler_registered_before_the_entry_point_runs_once(
        tmp_path, jsonl_writer, manifest, code, unbuffered):
    short_rows_manifest(jsonl_writer, 3)
    boot = (
        "import atexit\n"
        "atexit.register(print, 'atexit handler ran')\n"
        "from indicscore.cli import entrypoint\n"
        "entrypoint()\n"
    )
    child = python_child("-c", boot, "pipeline", "validate", "--manifest", str(tmp_path / manifest),
                         unbuffered=unbuffered, stdout=subprocess.PIPE)
    out, err = child.communicate(timeout=120)
    assert child.returncode == code and b"Traceback" not in err, err
    assert out.decode("utf-8").splitlines().count("atexit handler ran") == 1
    assert out.endswith(b"atexit handler ran\n")  # printed after the verb's own output


def test_pipeline_rewrite_digits(tmp_path, jsonl_writer, capsys):
    rows = [
        {"id": "r1", "text": "ఖాతాలో 500000 జమ", "language": "te", "corpus_class": "currency"},
        {"id": "r2", "text": "పిన్ 500081 పంపు", "language": "te", "corpus_class": "digits"},
    ]
    manifest = jsonl_writer("rw.jsonl", rows)
    grouped = tmp_path / "grouped.jsonl"
    assert run("pipeline", "rewrite-digits", "--manifest", manifest, "--out", str(grouped)) == 0
    out_rows = [json.loads(l) for l in grouped.read_text(encoding="utf-8").splitlines()]
    assert out_rows[0]["text"] == "ఖాతాలో ఐదు లక్ష జమ"

    spoken = tmp_path / "spoken.jsonl"
    assert run(
        "pipeline", "rewrite-digits", "--manifest", manifest, "--out", str(spoken),
        "--mode", "digit_by_digit",
    ) == 0
    out_rows = [json.loads(l) for l in spoken.read_text(encoding="utf-8").splitlines()]
    assert out_rows[1]["text"] == "పిన్ ఐదు సున్నా సున్నా సున్నా ఎనిమిది ఒకటి పంపు"
    capsys.readouterr()


def test_pipeline_rewrite_grouped_13_digits_exits_2(tmp_path, jsonl_writer, capsys):
    rows = [{"id": "d1", "text": "ఖాతా 1234567890123 సరే", "language": "te", "corpus_class": "digits"}]
    manifest = jsonl_writer("long.jsonl", rows)
    code = run("pipeline", "rewrite-digits", "--manifest", manifest, "--out", str(tmp_path / "o.jsonl"))
    assert code == 2
    assert "row 'd1'" in capsys.readouterr().err


def test_pipeline_filter_rejects_nan_cer_exit_2(tmp_path, capsys):
    manifest = tmp_path / "nan.jsonl"
    manifest.write_text(
        '{"id": "n1", "text": "a b c", "language": "te", "corpus_class": "digits",'
        ' "status": "synthesized", "cer_against_source": NaN}\n'
        '{"id": "n2", "text": "a b c", "language": "te", "corpus_class": "digits",'
        ' "status": "synthesized", "cer_against_source": 0.1}\n',
        encoding="utf-8",
    )
    out = tmp_path / "accepted.jsonl"
    assert run("pipeline", "filter", "--manifest", str(manifest), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert "line 1: cer_against_source must be finite and not negative" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_pipeline_filter_nan_threshold_exits_1(tmp_path, jsonl_writer, capsys):
    row = {"id": "s1", "text": "a b c", "language": "te", "corpus_class": "digits",
           "status": "synthesized", "cer_against_source": 0.9}
    manifest = jsonl_writer("synth.jsonl", [row])
    out = tmp_path / "accepted.jsonl"
    assert run("pipeline", "filter", "--manifest", manifest, "--out", str(out), "--threshold", "nan") == 1
    captured = capsys.readouterr()
    assert "configuration error: CER threshold is NaN" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "-0.1", "1.5"])
def test_pipeline_validate_purity_threshold_outside_the_unit_interval_exits_1(threshold, manifest_path, capsys):
    assert run("pipeline", "validate", "--manifest", manifest_path, "--purity-threshold", threshold) == 1
    captured = capsys.readouterr()
    assert "configuration error: purity threshold" in captured.err
    assert captured.out == ""


def test_pipeline_route_nan_weight_exits_1(tmp_path, manifest_path, capsys):
    out = tmp_path / "routed.jsonl"
    weights = "praxy=nan,elevenlabs=0.5,cartesia=0.5"
    assert run("pipeline", "route", "--manifest", manifest_path, "--out", str(out), "--weights", weights) == 1
    captured = capsys.readouterr()
    assert "configuration error: weight nan for backend 'praxy'" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_pipeline_route_repeated_weight_name_exits_1(tmp_path, manifest_path, capsys):
    out = tmp_path / "routed.jsonl"
    weights = "praxy=0.3,praxy=0.6,elevenlabs=0.4"
    assert run("pipeline", "route", "--manifest", manifest_path, "--out", str(out), "--weights", weights) == 1
    captured = capsys.readouterr()
    assert captured.err == "configuration error: name 'praxy' is given twice\n"
    assert captured.out == ""
    assert not out.exists()


def test_pipeline_route_rejects_unpaired_surrogate_exit_2(tmp_path, capsys):
    manifest = tmp_path / "surrogate.jsonl"
    good = json.dumps(MANIFEST[0], ensure_ascii=False)
    manifest.write_text(
        good + "\n"
        + '{"id": "s1", "text": "bad \\ud800 text", "language": "te", "corpus_class": "digits"}\n'
        + good.replace("m000", "m999") + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "routed.jsonl"
    assert run("pipeline", "route", "--manifest", str(manifest), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert "line 2: a string holds an unpaired surrogate escape" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["surrogate.jsonl"]


@pytest.mark.parametrize("step", ["route", "filter", "split", "balance", "rewrite-digits"])
def test_pipeline_bad_line_after_good_rows_leaves_outputs_untouched(tmp_path, step, capsys):
    rows = [
        {"id": f"g{i}", "text": "ఇది ఒక పరీక్ష వాక్యం సరే", "language": "te", "corpus_class": "digits",
         "synth_system": "cartesia" if i % 2 else "praxy", "status": "accepted", "cer_against_source": 0.1}
        for i in range(200)
    ]
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows) + "{not json\n", encoding="utf-8"
    )
    existing, fresh = tmp_path / "existing.jsonl", tmp_path / "fresh.jsonl"
    existing.write_bytes(b"keep me\n")
    outs = {
        "route": ["--out", str(existing)],
        "filter": ["--out", str(existing), "--rejected", str(fresh)],
        "split": ["--out-train", str(existing), "--out-heldout", str(fresh)],
        "balance": ["--out", str(existing), "--per-class", "5"],
        "rewrite-digits": ["--out", str(existing)],
    }[step]
    assert run("pipeline", step, "--manifest", str(manifest), *outs) == 2
    captured = capsys.readouterr()
    assert "line 201: invalid JSON" in captured.err and captured.out == ""
    assert existing.read_bytes() == b"keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.jsonl", "m.jsonl"]


@pytest.mark.parametrize(
    "step, extra",
    [
        ("route", ["--seed", "7"]),
        ("filter", ["--threshold", "0.5"]),
        ("balance", ["--per-class", "2", "--seed", "3"]),
        ("rewrite-digits", ["--mode", "digit_by_digit"]),
    ],
)
def test_pipeline_out_may_be_the_manifest(tmp_path, jsonl_writer, step, extra, capsys):
    rows = [
        {"id": f"s{i}", "text": f"పిన్ 50008{i} పంపు సరే", "language": "te",
         "corpus_class": "digits" if i % 2 else "currency", "synth_system": "praxy",
         "status": "pending" if step == "route" else "synthesized", "cer_against_source": 0.2 if i % 3 else 0.8}
        for i in range(8)
    ]
    separate = tmp_path / "separate.jsonl"
    source = jsonl_writer("source.jsonl", rows)
    assert run("pipeline", step, "--manifest", source, "--out", str(separate), *extra) == 0
    expected_stdout = capsys.readouterr().out
    in_place = jsonl_writer("in_place.jsonl", rows)
    assert run("pipeline", step, "--manifest", in_place, "--out", in_place, *extra) == 0
    assert capsys.readouterr().out == expected_stdout
    assert (tmp_path / "in_place.jsonl").read_bytes() == separate.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in_place.jsonl", "separate.jsonl", "source.jsonl"]


def test_pipeline_outputs_may_both_be_dev_null(jsonl_writer, capsys):
    # written in place, not replaced, so not two outputs replacing one file
    rows = [{"id": f"s{i}", "text": "వాక్యం ఇక్కడ ఉంది", "language": "te", "corpus_class": "digits",
             "status": "synthesized", "cer_against_source": 0.2 * i} for i in range(4)]
    manifest = jsonl_writer("synth.jsonl", rows)
    assert run("pipeline", "filter", "--manifest", manifest, "--out", os.devnull, "--rejected", os.devnull) == 0
    assert capsys.readouterr().out == "accepted 3  rejected 1  (threshold 0.500)\n"


def test_pipeline_balance_needs_a_manifest_it_can_read_twice(tmp_path, capsys):
    fifo = tmp_path / "manifest.fifo"
    os.mkfifo(fifo)
    lines = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in MANIFEST)

    def feed():
        with open(fifo, "w", encoding="utf-8") as handle:
            handle.write(lines)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    out = tmp_path / "balanced.jsonl"
    code = run("pipeline", "balance", "--manifest", str(fifo), "--out", str(out), "--per-class", "2")
    feeder.join(timeout=10)
    assert not feeder.is_alive()
    assert code == 2
    assert "is not a regular file" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_writes_a_pipe_in_place(tmp_path, manifest_path, capsys):
    fifo = tmp_path / "routed.fifo"
    os.mkfifo(fifo)
    received = []

    def drain():
        with open(fifo, "rb") as handle:
            received.append(handle.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    assert run("pipeline", "route", "--manifest", manifest_path, "--out", str(fifo), "--seed", "7") == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    regular = tmp_path / "routed.jsonl"
    assert run("pipeline", "route", "--manifest", manifest_path, "--out", str(regular), "--seed", "7") == 0
    assert received == [regular.read_bytes()]
    capsys.readouterr()


@pytest.mark.parametrize(
    "step, first_row, extra",
    [
        # the verb's own error comes from a row before the malformed line
        ("rewrite-digits", {"text": "ఖాతా 1234567890123 సరే"}, []),
        ("route", {}, ["--weights", "praxy=2"]),
        ("balance", {}, ["--per-class", "-1"]),
        ("filter", {}, []),  # rows missing cer_against_source
    ],
)
def test_pipeline_reports_a_malformed_manifest_before_the_verbs_own_error(
    tmp_path, step, first_row, extra, capsys
):
    rows = [dict(MANIFEST[0], **first_row), MANIFEST[1]]
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows) + "[1, 2]\n", encoding="utf-8"
    )
    out = tmp_path / "out.jsonl"
    assert run("pipeline", step, "--manifest", str(manifest), "--out", str(out), *extra) == 2
    err = capsys.readouterr().err
    assert err == f"data error: malformed manifest file {manifest}\n  line 3: expected a JSON object\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "step, extra, message",
    [
        ("route", ["--weights", "praxy=lots"], "--weights: 'lots' is not a number"),
        ("balance", ["--per-class", "-1"], "per_class_target must be non-negative"),
    ],
)
def test_pipeline_reports_an_option_error_before_an_output_error(
    tmp_path, manifest_path, step, extra, message, capsys
):
    # the output is a directory, which cannot be written
    assert run("pipeline", step, "--manifest", manifest_path, "--out", str(tmp_path), *extra) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def _refuse_temp_files(monkeypatch):
    real_open = os.open

    def refusing_open(path, flags, *args, **kwargs):
        if str(path).endswith(".tmp"):
            raise PermissionError(13, "Permission denied", path)
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refusing_open)


def test_pipeline_names_the_directory_that_refuses_the_temp_file(
    tmp_path, manifest_path, monkeypatch, capsys
):
    out = tmp_path / "routed.jsonl"
    out.write_bytes(b"writable, in a directory that is not\n")
    _refuse_temp_files(monkeypatch)
    assert run("pipeline", "route", "--manifest", manifest_path, "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"data error: [Errno 13] Permission denied: cannot create a temp file in {tmp_path}"
        f" to replace {out}\n"
    )
    assert out.read_bytes() == b"writable, in a directory that is not\n"


@pytest.mark.skipif(os.geteuid() == 0, reason="root may create files in a 0o555 directory")
def test_pipeline_fails_on_a_writable_output_in_a_read_only_directory(
    tmp_path, manifest_path, capsys
):
    locked = tmp_path / "locked"
    locked.mkdir()
    out = locked / "routed.jsonl"
    out.write_bytes(b"old\n")
    locked.chmod(0o555)
    try:
        assert run("pipeline", "route", "--manifest", manifest_path, "--out", str(out)) == 2
    finally:
        locked.chmod(0o755)
    assert f"cannot create a temp file in {locked} to replace {out}" in capsys.readouterr().err
    assert out.read_bytes() == b"old\n"
    assert [p.name for p in locked.iterdir()] == ["routed.jsonl"]


def test_pipeline_reports_an_output_error_before_an_error_in_the_rows(tmp_path, jsonl_writer, capsys):
    rows = [dict(MANIFEST[0], text="ఖాతా 1234567890123 సరే")]
    manifest = jsonl_writer("m.jsonl", rows)
    # the output is a directory, which cannot be written
    assert run("pipeline", "rewrite-digits", "--manifest", manifest, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"data error: [Errno 21] Is a directory: '{tmp_path}'\n"
    out = tmp_path / "out.jsonl"
    assert run("pipeline", "rewrite-digits", "--manifest", manifest, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"data error: row {MANIFEST[0]['id']!r}: ")
    assert not out.exists()


def parser_option(*verbs, dest):
    parser = build_parser()
    for verb in verbs:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[verb]
    return next(a for a in parser._actions if a.dest == dest)


def test_parser_choices_are_the_package_constants():
    assert parser_option("score", dest="currency_mode").choices == CURRENCY_MODES
    assert parser_option("score", dest="normalization").choices == NORM_MODES
    assert parser_option("pipeline", "rewrite-digits", dest="mode").choices == REWRITE_MODES
