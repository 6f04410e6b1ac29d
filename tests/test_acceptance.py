"""Acceptance gate: one test per release criterion, one line of output each.

Run with ``pytest -v tests/test_acceptance.py``; every test prints a
``criterion N: PASS`` line on success (visible with -s or in failure
reports) and the -v listing itself gives the per-criterion pass/fail.
"""

import collections
import functools
import itertools
import json
import random
from fractions import Fraction

import pytest

import test_matchers as matcher_suite
from indicscore.cli import main as cli_main
from indicscore.manifest import ManifestRow, save_manifest
from indicscore.distance import levenshtein
from indicscore.matchers import EntityToken, MatchResult, ScoringConfig, aggregate_ehr, score_utterance
from indicscore.numbers import (
    ENGLISH_TABLE,
    load_language_table,
    parse_amount_text,
    parse_number_words,
    spell_number,
)
from indicscore.pipeline import (
    DEFAULT_WEIGHTS,
    RouterPolicy,
    apply_cer_filter,
    route_rows,
    route_utterance,
    split_heldout,
)
from indicscore.scorecard import diagnose
from indicscore.script import sfr

TOL = 0.001


def report(number, text):
    print(f"criterion {number}: PASS — {text}")


# ---------------------------------------------------------------------------
# 1. EHR aggregation reproduces the reference tallies
# ---------------------------------------------------------------------------

def test_criterion_01_ehr_micro_and_macro_from_reference_tallies():
    classes = ("digit_run", "currency_amount", "proper_noun", "brand")
    vanilla = dict(zip(classes, [(28, 0), (17, 4), (93, 0), (12, 0)]))
    adapted = dict(zip(classes, [(28, 22), (17, 9), (93, 34), (12, 6)]))

    def results(tallies):
        out = []
        for cls, (n, hits) in tallies.items():
            out += [MatchResult(cls, cls, True)] * hits + [MatchResult(cls, cls, False)] * (n - hits)
        return out

    before = aggregate_ehr(results(vanilla))
    after = aggregate_ehr(results(adapted))
    assert before.micro == pytest.approx(0.027, abs=TOL)
    assert before.macro == pytest.approx(0.059, abs=TOL)
    assert after.micro == pytest.approx(0.473, abs=TOL)
    assert after.macro == pytest.approx(0.545, abs=TOL)
    report(1, "EHR micro 0.027→0.473, macro 0.059→0.545 (±0.001)")


# ---------------------------------------------------------------------------
# 2. Currency equivalence across written forms
# ---------------------------------------------------------------------------

def test_criterion_02_currency_forms_are_equivalent():
    forms = ["5 lakh", "five hundred thousand", "500000", "₹5,00,000"]
    values = [parse_amount_text(f, ENGLISH_TABLE).value for f in forms]
    assert all(v == Fraction(500000) for v in values), values

    digit_anchored = {"500000", "₹5,00,000", "5 lakh"}
    strict = ScoringConfig(language="en", currency_mode="strict")
    wide = ScoringConfig(language="en", currency_mode="bidirectional")
    for ref, hyp in itertools.product(forms, forms):
        tok = EntityToken(surface=ref, matcher_class="currency_amount")
        assert score_utterance([tok], hyp, wide)[0].hit, (ref, hyp)
        if ref in digit_anchored:
            assert score_utterance([tok], hyp, strict)[0].hit, (ref, hyp)

    tok = EntityToken(surface="₹5,00,000", matcher_class="currency_amount")
    assert score_utterance([tok], "rupees 502500", strict)[0].hit
    assert not score_utterance([tok], "rupees 502501", strict)[0].hit
    report(2, "four written forms of 5,00,000 cross-match at ±0.5% (502501 excluded)")


# ---------------------------------------------------------------------------
# 3. Spelling and parsing round-trip in four languages
# ---------------------------------------------------------------------------

def test_criterion_03_spell_parse_round_trip():
    rng = random.Random(20240501)
    tables = {lang: load_language_table(lang) for lang in ("te", "ta", "hi")}
    tables["en"] = ENGLISH_TABLE
    values = [rng.randint(0, 10**9) for _ in range(1000)]
    for value in values:
        for lang, table in tables.items():
            parsed = parse_number_words(spell_number(value, table), table)
            assert parsed is not None and parsed.value == value, (lang, value)
    report(3, "1000 seeded ints in [0, 1e9] round-trip in en, te, ta, hi")


# ---------------------------------------------------------------------------
# 4. Edit distance agrees with the textbook recursion
# ---------------------------------------------------------------------------

def test_criterion_04_levenshtein_matches_oracle():
    def oracle(a, b):
        @functools.lru_cache(maxsize=None)
        def rec(i, j):
            if i == 0 or j == 0:
                return i or j
            return min(
                rec(i - 1, j) + 1,
                rec(i, j - 1) + 1,
                rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
            )

        return rec(len(a), len(b))

    assert levenshtein("kitten", "sitting") == 3
    rng = random.Random(77)
    for _ in range(10_000):
        a = "".join(rng.choice("xyz") for _ in range(rng.randrange(7)))
        b = "".join(rng.choice("xyz") for _ in range(rng.randrange(7)))
        assert levenshtein(a, b) == oracle(a, b), (a, b)
    report(4, "10k seeded pairs agree with the recursive oracle; kitten/sitting = 3")


# ---------------------------------------------------------------------------
# 5. SFR counts letters only
# ---------------------------------------------------------------------------

def test_criterion_05_sfr_letters_only():
    text = "చెల్లింపు జరిగింది ok"  # 8 Telugu letters + 2 Latin
    base = sfr(text, "te")
    assert base.value == pytest.approx(0.800, abs=TOL)

    rng = random.Random(99)
    chars = list(text)
    for _ in range(100):
        chars.insert(rng.randrange(len(chars) + 1), rng.choice("0123456789.,!?;:%()-"))
    assert sfr("".join(chars), "te") == base
    assert sfr("", "te").value is None
    report(5, "SFR 0.800 on the 8+2 fixture, inert under 100 digit/punct insertions, NA on empty")


# ---------------------------------------------------------------------------
# 6. Matcher rule coverage and threshold boundaries
# ---------------------------------------------------------------------------

def test_criterion_06_matcher_boundary_suite():
    cases = [
        name
        for name in dir(matcher_suite.TestMatcherRuleBoundaries)
        if name.startswith("test_")
    ]
    assert len(cases) >= 19, f"boundary suite has only {len(cases)} cases"
    covered = {name.split("_")[1] for name in cases}
    for rule in ("digit", "pincode", "currency", "brand", "proper", "spelled", "house"):
        assert rule in covered, f"no boundary case for {rule}"

    jaccard = score_utterance(
        [EntityToken(surface="rajiv gandhi international airport", matcher_class="proper_noun")],
        "rajiv gandhi international new airport",
        ScoringConfig(),
    )[0]
    assert jaccard.hit and "0.800" in jaccard.detail
    lcs = score_utterance(
        [EntityToken(surface="54235", matcher_class="spelled_digit")],
        "five four two three",
        ScoringConfig(language="en"),
    )[0]
    assert lcs.hit and "0.800" in lcs.detail
    report(6, f"{len(cases)} boundary cases over all 7 rules; Jaccard 0.80 and LCS 0.80 both hit")


# ---------------------------------------------------------------------------
# 7. Router proportions, overrides, determinism
# ---------------------------------------------------------------------------

def test_criterion_07_router(tmp_path):
    policy = RouterPolicy(seed=2024)
    rows = [
        ManifestRow(id=f"r{i:05d}", text="వాక్యం", language="te", corpus_class="digits")
        for i in range(10_000)
    ]
    counts = collections.Counter(route_utterance(row, policy) for row in rows)
    for backend, weight in DEFAULT_WEIGHTS.items():
        assert counts[backend] / 10_000 == pytest.approx(weight, abs=0.02), backend

    codemix = [
        ManifestRow(id=f"c{i}", text="mix", language="te", corpus_class="codemix")
        for i in range(200)
    ]
    assert {route_utterance(row, policy) for row in codemix} == {"indicf5"}

    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_manifest(first, route_rows(rows[:500], policy))
    save_manifest(second, route_rows(rows[:500], policy))
    assert first.read_bytes() == second.read_bytes()
    report(7, "10k-row proportions within ±0.02, codemix pinned to indicf5, rerun byte-identical")


# ---------------------------------------------------------------------------
# 8. Filter boundary and held-out split invariants
# ---------------------------------------------------------------------------

def test_criterion_08_filter_and_split_invariants():
    boundary = [
        ManifestRow(id="b1", text="x", language="te", corpus_class="digits",
                    synth_system="praxy", status="synthesized", cer_against_source=0.50),
        ManifestRow(id="b2", text="x", language="te", corpus_class="digits",
                    synth_system="praxy", status="synthesized", cer_against_source=0.51),
    ]
    result = apply_cer_filter(boundary, 0.5)
    assert [r.id for r in result.accepted] == ["b1"]
    assert [r.id for r in result.rejected] == ["b2"]

    rng = random.Random(4242)
    for trial in range(100):
        n = rng.randrange(1, 60)
        rows = [
            ManifestRow(
                id=f"t{trial}_{i}",
                text="వాక్యం",
                language=rng.choice(["te", "ta", "hi"]),
                corpus_class=rng.choice(["digits", "currency"]),
                synth_system=rng.choice(["praxy", "chatterbox", "indicf5", "elevenlabs", "cartesia"]),
                status="accepted",
            )
            for i in range(n)
        ]
        split = split_heldout(rows)
        train_ids = {r.id for r in split.train}
        heldout_ids = {r.id for r in split.heldout}
        assert train_ids.isdisjoint(heldout_ids)
        assert train_ids | heldout_ids == {r.id for r in rows}
        assert heldout_ids == {r.id for r in rows if r.synth_system == "cartesia"}
    report(8, "CER 0.50 passes / 0.51 rejected; 100 random splits partition exactly on cartesia")


# ---------------------------------------------------------------------------
# 9. Adaptation diagnostic verdicts
# ---------------------------------------------------------------------------

def test_criterion_09_diagnostic_verdicts():
    assert diagnose({"a": 0.701, "b": 0.462, "c": 0.712}, "te").verdict == "apply_adaptation"
    assert diagnose({"a": 0.983, "b": 0.983, "c": 0.993}, "hi").verdict == "contraindicated"
    assert diagnose({"a": 0.997, "b": 0.998, "c": 0.980}, "ta").verdict == "contraindicated"
    report(9, "Te SFRs trigger adaptation; Hi and Ta SFRs contraindicate it")


# ---------------------------------------------------------------------------
# 10. CLI determinism and comparison output
# ---------------------------------------------------------------------------

def _hundred_row_fixture(tmp_path):
    rng = random.Random(7)
    rows, preds = [], []
    pin_words = ["సున్నా", "ఒకటి", "రెండు", "మూడు", "నాలుగు", "ఐదు", "ఆరు", "ఏడు", "ఎనిమిది", "తొమ్మిది"]
    for i in range(100):
        pin = f"{rng.randrange(10**6):06d}"
        text = f"పిన్ కోడ్ {pin} పంపండి దయచేసి"
        rows.append(
            {
                "id": f"u{i:03d}",
                "text": text,
                "language": "te",
                "entity_class": "digits",
                "entity_tokens": [{"surface": pin, "class": "pincode"}],
            }
        )
        if rng.random() < 0.3:
            hyp = f"పిన్ కోడ్ {' '.join(pin_words[int(d)] for d in pin)} పంపండి"
        elif rng.random() < 0.2:
            hyp = "పిన్ కోడ్ పంపండి దయచేసి"
        else:
            hyp = text
        preds.append({"id": f"u{i:03d}", "hypothesis": hyp, "system": "modelA"})
    holdout = tmp_path / "holdout.jsonl"
    predictions = tmp_path / "preds.jsonl"
    for path, records in ((holdout, rows), (predictions, preds)):
        path.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
        )
    return holdout, predictions


def test_criterion_10_cli_determinism_and_compare(tmp_path, capsys):
    holdout, predictions = _hundred_row_fixture(tmp_path)
    outputs = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir / "card.json"
        detail = tmp_path / run_dir / "detail.jsonl"
        out.parent.mkdir()
        code = cli_main(
            [
                "score",
                "--holdout", str(holdout),
                "--predictions", str(predictions),
                "--lang", "te",
                "--out", str(out),
                "--detail", str(detail),
            ]
        )
        assert code == 0
        outputs.append((out.read_bytes(), detail.read_bytes()))
    assert outputs[0] == outputs[1]

    def record(system, rate):
        return {
            "system": system, "holdout": "argmax", "language": "te", "n": 100,
            "wer": {"distance": round(rate * 1000), "reference_length": 1000, "rate": rate},
            "cer": {"distance": 100, "reference_length": 5000, "rate": 0.02},
            "sfr": {"letter_count": 1000, "in_block_count": 900, "value": 0.9},
            "ehr": {"per_class": {}, "micro": 0.5, "macro": 0.5},
        }

    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(record("baseline", 0.329)), encoding="utf-8")
    cand.write_text(json.dumps(record("candidate", 0.395)), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["compare", "--baseline", str(base), str(cand)]) == 0
    out = capsys.readouterr().out
    assert "+0.066" in out, out
    report(10, "scorecard + detail byte-identical across reruns; ΔWER reported as +0.066")
