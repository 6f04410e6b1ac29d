"""Known-defect probes: small CLI runs on inputs the scorer is known to
mishandle. They are recorded once per benchmark invocation as pass or fail
with the exit code, so a fix shows as a probe turning to pass; they are
never timed and never count as failed operations.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from workloads import Outcome


def _clean_error(outcome: Outcome) -> bool:
    """A malformed input must end with exit 0 or 2, never a traceback."""
    return outcome.code in (0, 2) and "Traceback (most recent call last)" not in outcome.stderr


def _jsonl(path: Path, records: list[dict], ensure_ascii: bool = False) -> Path:
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=ensure_ascii) + "\n" for r in records), encoding="utf-8"
    )
    return path


def run_probes(run_cli: Callable[[list[str]], Outcome], work: Path) -> dict[str, dict]:
    work.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict] = {}

    def record(name: str, outcome: Outcome, passed: bool) -> None:
        results[f"probe.{name}"] = {"pass": passed, "exit": outcome.code}

    # A pincode right after a phone fragment, scored against its own text.
    text = "ఫోన్ 98765 500081"
    holdout = _jsonl(work / "pin.holdout.jsonl", [
        {"id": "p1", "text": text, "language": "te",
         "entity_tokens": [{"surface": "500081", "matcher_class": "pincode"}]},
    ])
    predictions = _jsonl(work / "pin.predictions.jsonl", [{"id": "p1", "hypothesis": text}])
    card = work / "pin.scorecard.json"
    outcome = run_cli(["score", "--holdout", str(holdout), "--predictions", str(predictions),
                       "--lang", "te", "--out", str(card), "--detail", str(work / "pin.detail.jsonl")])
    hits = None
    if outcome.code == 0:
        hits = json.loads(card.read_text(encoding="utf-8"))["ehr"]["per_class"]["pincode"]["hits"]
    record("pincode_adjacent_self_score", outcome, hits == 1)

    # save_manifest -> load_manifest on text holding U+2028.
    row = {"id": "u1", "text": "ఇది ఒక\u2028వాక్యం ఉంది సరే", "language": "te", "corpus_class": "brands"}
    source = _jsonl(work / "u2028.jsonl", [row], ensure_ascii=True)
    saved = work / "u2028.routed.jsonl"
    first = run_cli(["pipeline", "route", "--manifest", str(source), "--out", str(saved)])
    outcome = run_cli(["pipeline", "validate", "--manifest", str(saved)]) if first.code == 0 else first
    record("manifest_u2028_round_trip", outcome, first.code == 0 and outcome.code == 0)

    # Grouped spelling of a 13-digit run, beyond the spellable range.
    manifest = _jsonl(work / "long.jsonl", [
        {"id": "d1", "text": "ఖాతా 1234567890123 సరే", "language": "te", "corpus_class": "digits"},
    ])
    outcome = run_cli(["pipeline", "rewrite-digits", "--manifest", str(manifest),
                       "--out", str(work / "long.out.jsonl"), "--mode", "grouped"])
    record("rewrite_grouped_13_digits", outcome, _clean_error(outcome))

    # A holdout that is not UTF-8, and a directory passed as the holdout.
    bad = work / "latin1.holdout.jsonl"
    bad.write_bytes(json.dumps({"id": "b1", "text": "café"}, ensure_ascii=False).encode("latin-1") + b"\n")
    for name, path in (("non_utf8_holdout", bad), ("directory_as_holdout", work)):
        outcome = run_cli(["score", "--holdout", str(path), "--predictions", str(predictions),
                           "--lang", "te", "--out", str(work / "x.json"), "--detail", str(work / "x.jsonl")])
        record(name, outcome, outcome.code == 2 and _clean_error(outcome))

    # compare on a scorecard whose metric fields are numbers, not objects.
    flat = work / "flat.scorecard.json"
    flat.write_text(json.dumps({"holdout": "h", "language": "te", "wer": 0.1, "cer": 0.1,
                                "sfr": 0.9, "ehr": 0.5}), encoding="utf-8")
    outcome = run_cli(["compare", "--baseline", str(flat), str(flat)])
    record("compare_non_object_metrics", outcome, outcome.code == 2 and _clean_error(outcome))
    return results
