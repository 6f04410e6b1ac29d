import json

import pytest

from indicscore.cli import main

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


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def test_diagnose_sfr_values(capsys):
    code = run("diagnose", "--lang", "te", "--sfr", "a=0.701", "--sfr", "b=0.462", "--sfr", "c=0.712")
    assert code == 0
    assert "apply_adaptation" in capsys.readouterr().out


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


def test_diagnose_single_holdout_exits_1(capsys):
    assert run("diagnose", "--lang", "te", "--sfr", "a=0.5") == 1
    assert "configuration error" in capsys.readouterr().err


def test_diagnose_bad_pair_exits_1(capsys):
    assert run("diagnose", "--lang", "te", "--sfr", "nope") == 1
    assert run("diagnose", "--lang", "te", "--sfr", "a=low", "--sfr", "b=0.2") == 1
    capsys.readouterr()


def test_diagnose_records_format(capsys):
    code = run("diagnose", "--lang", "hi", "--sfr", "a=0.983", "--sfr", "b=0.993", "--format", "records")
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "contraindicated"
    assert record["per_holdout_sfr"]["a"] == 0.983


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_two_scorecards(tmp_path, holdout_path, jsonl_writer, capsys):
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
    capsys.readouterr()
    code = run("compare", "--baseline", str(base_card), str(cand_card))
    assert code == 0
    out = capsys.readouterr().out
    assert "cand" in out and "ΔWER" in out


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
