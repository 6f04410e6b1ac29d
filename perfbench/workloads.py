"""The benchmark's workloads: which CLI calls each one makes, and how each
call's output is checked.

Why these three (the choice matters more than the sizes):

* ``score_long_te`` is one bidirectional ``score`` call on long Telugu
  rows with about one entity each. Character edit distance dominates, so
  an edit-distance kernel shows here first.
* ``score_entity_dense`` is one ``score`` call per language on short rows
  with 3 to 5 entities each, an alias file and both currency modes. The
  matchers and number parsing take their largest share here.
* ``corpus_pipeline`` chains the corpus verbs and never computes an edit
  distance. It is the control on which distance and matcher changes must
  show no change, and on which JSONL I/O changes can show.
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

# Rows per generated file at full size, and at the size the self-tests use.
# A score pass must repeat many times within a 30 s run: at about 5 ms a
# row, the 20k-row Telugu set behind the ROADMAP baseline takes over a
# minute per call, so score_long_te keeps 120 rows (52 KB of holdout), too
# few for the loaders' whole-file copies to show in peak RSS. The pipeline
# verbs are cheap per row, so corpus_pipeline carries the I/O and memory
# load: 12000 rows, a 3.8 MB manifest, where a line-streaming loader lowers
# the largest child's peak RSS by about a fifth (46 to 37 MB).
SIZES = {"score_long_te": 120, "score_entity_dense": 80, "corpus_pipeline": 12000}
SMOKE_SIZES = {"score_long_te": 12, "score_entity_dense": 8, "corpus_pipeline": 60}

# Lexicons each workload's calls load; set-up time loads the same ones.
LANGUAGES = {
    "score_long_te": ("te",),
    "score_entity_dense": ("te", "ta", "hi"),
    "corpus_pipeline": ("te", "ta", "hi"),
}

# Rows per score call whose WER and CER are recomputed by the oracle.
ORACLE_SAMPLE = 24


@dataclass
class Outcome:
    """What one CLI child process did."""

    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


@dataclass
class Call:
    """One CLI invocation plus the check its output must pass."""

    label: str
    argv: list[str]
    input: Path
    outputs: list[Path]
    check: Callable[[Outcome], list[str]] = field(repr=False)


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n") if line]


def process_problems(outcome: Outcome) -> list[str]:
    problems = []
    if outcome.code != 0:
        problems.append(f"exit code {outcome.code}")
    if "Traceback (most recent call last)" in outcome.stderr:
        problems.append("traceback on stderr")
    return problems


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

class ScoreExpectation:
    """What a scorecard for one holdout must say, computed from the inputs.

    The oracle runs on first use, so expectations built for calls whose
    output is never checked cost nothing.
    """

    def __init__(self, data: Path, lang: str, counts: dict, seed: int):
        self.data, self.lang, self.counts, self.seed = data, lang, counts, seed

    @functools.cached_property
    def _reference(self) -> tuple[list[str], dict, dict]:
        holdout = _read_jsonl(self.data / f"{self.lang}.holdout.jsonl")
        predictions = _read_jsonl(self.data / f"{self.lang}.predictions.jsonl")
        hyps = {p["id"]: p["hypothesis"] for p in predictions}
        lengths = {r["id"]: (len(oracle.words(r["text"])), len(oracle.chars(r["text"]))) for r in holdout}
        rng = random.Random(f"oracle:{self.seed}:{self.lang}")
        sample = {
            r["id"]: (oracle.wer(r["text"], hyps[r["id"]]), oracle.cer(r["text"], hyps[r["id"]]))
            for r in rng.sample(holdout, min(ORACLE_SAMPLE, len(holdout)))
        }
        return [r["id"] for r in holdout], lengths, sample

    def problems(self, card_path: Path, detail_path: Path) -> list[str]:
        try:
            card = json.loads(card_path.read_text(encoding="utf-8"))
            details = _read_jsonl(detail_path)
        except (OSError, ValueError) as exc:
            return [f"output does not parse: {exc}"]
        ids, lengths, sample = self._reference
        problems = []
        per_class = {cls: t["n"] for cls, t in card["ehr"]["per_class"].items()}
        if card["n"] != self.counts["rows"] or per_class != self.counts["per_class"]:
            problems.append(f"counts {card['n']} {per_class} != generated {self.counts}")
        if [d["id"] for d in details] != ids:
            return problems + ["detail rows do not follow the holdout"]

        hits: dict[str, int] = {}
        word_distance = char_distance = 0
        for d in details:
            for m in d["entities"]:
                hits[m["matcher_class"]] = hits.get(m["matcher_class"], 0) + bool(m["hit"])
            n_words, n_chars = lengths[d["id"]]
            word_distance += round(d["wer"] * n_words)
            char_distance += round(d["cer"] * n_chars)
            if d["id"] in sample and (d["wer"], d["cer"]) != sample[d["id"]]:
                problems.append(f"row {d['id']}: wer/cer {d['wer']}/{d['cer']} != oracle {sample[d['id']]}")
        card_hits = {cls: t["hits"] for cls, t in card["ehr"]["per_class"].items()}
        if card_hits != {c: hits.get(c, 0) for c in card_hits}:
            problems.append(f"scorecard hits {card_hits} != detail hits {hits}")
        expected = {
            "wer": (word_distance, sum(n for n, _ in lengths.values())),
            "cer": (char_distance, sum(n for _, n in lengths.values())),
        }
        for key, (distance, total) in expected.items():
            got = (card[key]["distance"], card[key]["reference_length"])
            if got != (distance, total):
                problems.append(f"scorecard {key} {got} != detail/oracle {(distance, total)}")
        return problems


def _score_call(data: Path, out: Path, lang: str, mode: str, expect: ScoreExpectation, aliases: bool) -> Call:
    card, detail = out / f"{lang}.scorecard.json", out / f"{lang}.detail.jsonl"
    argv = [
        "score",
        "--holdout", str(data / f"{lang}.holdout.jsonl"),
        "--predictions", str(data / f"{lang}.predictions.jsonl"),
        "--lang", lang,
        "--currency-mode", mode,
        "--out", str(card),
        "--detail", str(detail),
    ]
    if aliases:
        argv += ["--aliases", str(data / "aliases.tsv")]

    def check(outcome: Outcome) -> list[str]:
        return process_problems(outcome) or expect.problems(card, detail)

    return Call(f"score:{lang}:{mode}", argv, data / f"{lang}.holdout.jsonl", [card, detail], check)


def score_calls(workload: str, data: Path, out: Path, meta: dict, seed: int) -> list[Call]:
    if workload == "score_long_te":
        plan = [("te", "bidirectional")]
    else:
        plan = [("te", "bidirectional"), ("ta", "strict"), ("hi", "bidirectional")]
    return [
        _score_call(
            data, out, lang, mode, ScoreExpectation(data, lang, meta[lang], seed),
            aliases=workload == "score_entity_dense",
        )
        for lang, mode in plan
    ]


# ---------------------------------------------------------------------------
# corpus pipeline
# ---------------------------------------------------------------------------

def pipeline_calls(data: Path, out: Path, meta: dict, seed: int) -> list[Call]:
    # Imported only once run.py has put the checkout's src/ on sys.path.
    from indicscore import corpus

    manifest, currency = data / "manifest.jsonl", data / "manifest.currency.jsonl"
    routed, accepted, rejected = out / "routed.jsonl", out / "accepted.jsonl", out / "rejected.jsonl"
    train, heldout, balanced = out / "train.jsonl", out / "heldout.jsonl", out / "balanced.jsonl"
    spoken, spoken_currency = out / "spoken.jsonl", out / "spoken.currency.jsonl"
    per_class = max(1, meta["rows"] // 10)

    def reload(path: Path) -> list:
        return corpus.load_manifest(path)

    def checked(fn):
        def check(outcome: Outcome) -> list[str]:
            problems = process_problems(outcome)
            if problems:
                return problems
            try:
                return fn(outcome)
            except (OSError, ValueError) as exc:  # DataError is a ValueError
                return [f"output does not reload: {exc}"]

        return check

    def ids(rows) -> list[str]:
        return sorted(r.id for r in rows)

    @checked
    def check_validate(outcome):
        last = outcome.stdout.strip().splitlines()[-1] if outcome.stdout.strip() else ""
        m = re.fullmatch(r"(\d+) of (\d+) rows clean, (\d+) violations", last)
        if not m or int(m.group(2)) != meta["rows"]:
            return [f"unexpected validate summary {last!r}"]
        return []

    @checked
    def check_route(outcome):
        rows = reload(routed)
        if len(rows) != meta["rows"] or any(r.synth_system is None for r in rows):
            return ["routed manifest lost rows or left rows unrouted"]
        return []

    @checked
    def check_filter(outcome):
        acc, rej = reload(accepted), reload(rejected)
        if ids(acc + rej) != ids(reload(routed)) or set(ids(acc)) & set(ids(rej)):
            return ["accepted and rejected do not partition the routed rows"]
        return []

    @checked
    def check_split(outcome):
        tr, he = reload(train), reload(heldout)
        if ids(tr + he) != ids(reload(accepted)) or set(ids(tr)) & set(ids(he)):
            return ["train and heldout do not partition the accepted rows"]
        return []

    @checked
    def check_balance(outcome):
        rows = reload(balanced)
        counts: dict[str, int] = {}
        for r in rows:
            counts[r.corpus_class] = counts.get(r.corpus_class, 0) + 1
        if max(counts.values(), default=0) > per_class or not set(ids(rows)) <= set(ids(reload(train))):
            return [f"balance kept {counts} (target {per_class})"]
        return []

    def check_rewrite(path: Path, expected_rows: int):
        @checked
        def check(outcome):
            rows = reload(path)
            if len(rows) != expected_rows or any(re.search("[0-9]", r.text) for r in rows):
                return [f"{path.name}: digit runs left or rows lost"]
            return []

        return check

    return [
        Call("pipeline:validate", ["pipeline", "validate", "--manifest", str(manifest)], manifest, [], check_validate),
        Call(
            "pipeline:route",
            ["pipeline", "route", "--manifest", str(manifest), "--out", str(routed), "--seed", str(seed)],
            manifest, [routed], check_route,
        ),
        Call(
            "pipeline:filter",
            ["pipeline", "filter", "--manifest", str(routed), "--out", str(accepted),
             "--rejected", str(rejected), "--threshold", "0.5"],
            routed, [accepted, rejected], check_filter,
        ),
        Call(
            "pipeline:split",
            ["pipeline", "split", "--manifest", str(accepted), "--out-train", str(train),
             "--out-heldout", str(heldout)],
            accepted, [train, heldout], check_split,
        ),
        Call(
            "pipeline:balance",
            ["pipeline", "balance", "--manifest", str(train), "--out", str(balanced),
             "--per-class", str(per_class), "--seed", str(seed)],
            train, [balanced], check_balance,
        ),
        Call(
            "pipeline:rewrite-digits:digit_by_digit",
            ["pipeline", "rewrite-digits", "--manifest", str(manifest), "--out", str(spoken),
             "--mode", "digit_by_digit"],
            manifest, [spoken], check_rewrite(spoken, meta["rows"]),
        ),
        Call(
            "pipeline:rewrite-digits:grouped",
            ["pipeline", "rewrite-digits", "--manifest", str(currency), "--out", str(spoken_currency),
             "--mode", "grouped"],
            currency, [spoken_currency], check_rewrite(spoken_currency, meta["currency_rows"]),
        ),
    ]


def calls(workload: str, data: Path, out: Path, meta: dict, seed: int) -> list[Call]:
    """The workload's CLI calls in the order one pass makes them."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "corpus_pipeline":
        return pipeline_calls(data, out, meta, seed)
    return score_calls(workload, data, out, meta, seed)
