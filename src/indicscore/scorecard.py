"""Run-level scoring and its files, the script-fidelity diagnostic, and system comparison.

A scorecard aggregates one prediction set against one holdout: pooled WER
and CER, pooled SFR, and entity hit rate with per-class tallies. All
aggregation is deterministic, so scoring the same inputs twice produces
byte-identical reports.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from .corpus import HoldoutRow, Prediction, encode_sorted, replacing
from .distance import ErrorRate, cer, wer
from .errors import ConfigurationError, DataError, read_utf8
from .matchers import EhrReport, MatchResult, ScoringConfig, aggregate_ehr, score_utterance
from .record import Record
from .script import SfrResult, aggregate_sfr, sfr
from .textnorm import DEFAULT_NORM, NormConfig, align_columns, format_value


class UtteranceDetail(Record):
    """One row's WER, CER and SFR tallies plus every entity match decision."""

    id: str
    wer: ErrorRate
    cer: ErrorRate
    sfr: SfrResult
    matches: tuple[MatchResult, ...]


class Scorecard(Record):
    """Aggregate metrics for one system on one holdout."""

    system: str
    holdout: str
    language: str
    n: int
    wer: ErrorRate
    cer: ErrorRate
    sfr: SfrResult
    ehr: EhrReport
    unmatched_row_ids: tuple[str, ...]
    unmatched_prediction_ids: tuple[str, ...]
    currency_mode: str
    normalization: str


def score_predictions(
    rows: Sequence[HoldoutRow],
    predictions: Sequence[Prediction],
    *,
    language: str,
    system: str = "",
    holdout_name: str = "",
    config: ScoringConfig | None = None,
    normalization: NormConfig = DEFAULT_NORM,
) -> tuple[Scorecard, list[UtteranceDetail]]:
    """Score one prediction set against one holdout.

    Rows without a prediction and predictions without a row are reported
    on the scorecard, not scored. At least one pair must match. A holdout
    mixing languages is an error, and so is a ``config`` for another
    language: both name the holdout's.
    """
    if config is None:
        config = ScoringConfig(language=language)
    elif config.language != language:
        raise ConfigurationError(
            f"scoring config is for language {config.language!r}, the holdout for {language!r}"
        )
    mixed = sorted({row.language for row in rows if row.language is not None} - {language})
    if mixed:
        raise DataError(
            f"holdout mixes languages: expected {language!r}, also found {', '.join(map(repr, mixed))}"
        )
    by_id: dict[str, Prediction] = {p.id: p for p in predictions}
    matched = [row for row in rows if row.id in by_id]
    if not matched:
        raise DataError("no prediction ids match the holdout rows")
    unmatched_rows = tuple(sorted(row.id for row in rows if row.id not in by_id))
    row_ids = {row.id for row in rows}
    unmatched_predictions = tuple(sorted(p.id for p in predictions if p.id not in row_ids))

    details: list[UtteranceDetail] = []
    for row in matched:
        hypothesis = by_id[row.id].hypothesis
        row_sfr = sfr(hypothesis, language)  # an unknown language stays a configuration error
        try:
            row_wer = wer(row.text, hypothesis, normalization)
            row_cer = cer(row.text, hypothesis, normalization)
            results = score_utterance(row.entity_tokens, hypothesis, config)
        except (DataError, ConfigurationError) as exc:
            # a row's text or entity tokens (a token's own language, say) are data
            raise DataError(f"row {row.id!r}: {exc}") from exc
        details.append(UtteranceDetail(row.id, row_wer, row_cer, row_sfr, tuple(results)))

    # every pooled figure is a sum over the rows' own tallies
    scorecard = Scorecard(
        system=system,
        holdout=holdout_name,
        language=language,
        n=len(matched),
        wer=ErrorRate(sum(d.wer.distance for d in details), sum(d.wer.reference_length for d in details)),
        cer=ErrorRate(sum(d.cer.distance for d in details), sum(d.cer.reference_length for d in details)),
        sfr=aggregate_sfr(d.sfr for d in details),
        ehr=aggregate_ehr(m for d in details for m in d.matches),
        unmatched_row_ids=unmatched_rows,
        unmatched_prediction_ids=unmatched_predictions,
        currency_mode=config.currency_mode,
        normalization=normalization.label,
    )
    return scorecard, details


# ---------------------------------------------------------------------------
# Records, score files and rendering
# ---------------------------------------------------------------------------

def _rate_record(rate: ErrorRate) -> dict:
    return {"distance": rate.distance, "reference_length": rate.reference_length, "rate": rate.rate}


def scorecard_record(card: Scorecard) -> dict:
    """JSON-safe record with full-precision values."""
    return {
        "system": card.system,
        "holdout": card.holdout,
        "language": card.language,
        "n": card.n,
        "wer": _rate_record(card.wer),
        "cer": _rate_record(card.cer),
        "sfr": {
            "letter_count": card.sfr.letter_count,
            "in_block_count": card.sfr.in_block_count,
            "value": card.sfr.value,
        },
        "ehr": {
            "per_class": {
                cls: {"n": tally.n, "hits": tally.hits, "rate": tally.rate}
                for cls, tally in card.ehr.per_class.items()
            },
            "macro": card.ehr.macro,
            "micro": card.ehr.micro,
        },
        "unmatched_row_ids": list(card.unmatched_row_ids),
        "unmatched_prediction_ids": list(card.unmatched_prediction_ids),
        "currency_mode": card.currency_mode,
        "normalization": card.normalization,
    }


def flatten_scorecard(record: dict) -> dict:
    """A scorecard record as one CSV row: its headline figures and each class's EHR."""
    flat = {key: record[key] for key in ("system", "holdout", "language", "n")}
    flat.update(_metric_values(record))
    for cls, tally in record["ehr"]["per_class"].items():
        flat[f"ehr[{cls}]"] = tally["rate"]
    return flat


def _detail_record(detail: UtteranceDetail) -> dict:
    """One row of the detail file: the row's rates and every match decision."""
    return {
        "id": detail.id,
        "wer": detail.wer.rate,
        "cer": detail.cer.rate,
        "sfr": detail.sfr.value,
        "entities": [
            {"surface": m.surface, "matcher_class": m.matcher_class, "hit": m.hit, "detail": m.detail}
            for m in detail.matches
        ],
    }


def write_score_outputs(
    record: dict, details: Iterable[UtteranceDetail], card_path: str | Path, detail_path: str | Path
) -> None:
    """Write a scorecard record as sorted-key JSON and each detail as one sorted-key
    JSON line; both files are renamed into place only once both are written."""
    with replacing(card_path, detail_path) as (card_file, detail_file):
        card_file.handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True, indent=2) + "\n")
        for detail in details:
            detail_file.handle.write(encode_sorted(_detail_record(detail)) + "\n")


def load_scorecard_record(path: str | Path) -> dict:
    """Read back a scorecard record; a file that is not one is a ``DataError``
    naming the path."""
    try:
        record = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"scorecard {path} is not valid JSON ({exc.msg})") from exc
    try:
        values = _metric_values(record).values()
        valid = all(v is None or (type(v) in (int, float) and math.isfinite(v)) for v in values)
    except (KeyError, TypeError):
        valid = False
    if not valid:
        raise DataError(
            f"scorecard {path} needs a finite number or null at each of wer.rate, cer.rate,"
            " sfr.value, ehr.micro and ehr.macro"
        )
    return record


def render_scorecard(card: Scorecard) -> str:
    lines = [
        f"system: {card.system or '(unnamed)'}    holdout: {card.holdout or '(unnamed)'}"
        f"    language: {card.language}    n: {card.n}",
        f"WER {format_value(card.wer.rate)}    CER {format_value(card.cer.rate)}"
        f"    SFR {format_value(card.sfr.value)}"
        f"    EHR micro {format_value(card.ehr.micro)} / macro {format_value(card.ehr.macro)}",
    ]
    if card.ehr.per_class:
        lines.append("entity classes:")
        width = max(len(cls) for cls in card.ehr.per_class)
        for cls, tally in card.ehr.per_class.items():
            lines.append(
                f"  {cls.ljust(width)}  n {tally.n:>4}  hits {tally.hits:>4}"
                f"  rate {format_value(tally.rate)}"
            )
    if card.unmatched_row_ids:
        lines.append(f"rows without predictions: {len(card.unmatched_row_ids)}")
    if card.unmatched_prediction_ids:
        lines.append(f"predictions without rows: {len(card.unmatched_prediction_ids)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Diagnostic
# ---------------------------------------------------------------------------

SFR_DIAGNOSTIC_THRESHOLD = 0.85
SFR_DIAGNOSTIC_MIN_BELOW = 2

VERDICT_APPLY = "apply_adaptation"
VERDICT_CONTRAINDICATED = "contraindicated"


class DiagnosticVerdict(Record):
    language: str
    per_holdout_sfr: Mapping[str, float]
    verdict: str


def diagnose(per_holdout_sfr: Mapping[str, float], language: str) -> DiagnosticVerdict:
    """Decide whether script-fidelity adaptation is warranted.

    The recipe applies only when vanilla SFR is strictly below 0.85
    (SFR_DIAGNOSTIC_THRESHOLD) on at least SFR_DIAGNOSTIC_MIN_BELOW holdouts;
    with healthy SFR it is contraindicated. Needs at least two holdouts.
    """
    if len(per_holdout_sfr) < 2:
        raise ConfigurationError(
            f"diagnostic needs at least 2 holdouts, got {len(per_holdout_sfr)}"
        )
    for name, value in per_holdout_sfr.items():
        if not 0 <= value <= 1:  # NaN fails this too
            raise ConfigurationError(f"SFR of holdout {name!r} is {value}, outside [0, 1]")
    below = sum(1 for value in per_holdout_sfr.values() if value < SFR_DIAGNOSTIC_THRESHOLD)
    verdict = VERDICT_APPLY if below >= SFR_DIAGNOSTIC_MIN_BELOW else VERDICT_CONTRAINDICATED
    return DiagnosticVerdict(language=language, per_holdout_sfr=dict(per_holdout_sfr), verdict=verdict)


def render_verdict(verdict: DiagnosticVerdict) -> str:
    lines = [f"language: {verdict.language}"]
    for name, value in verdict.per_holdout_sfr.items():
        flag = "below" if value < SFR_DIAGNOSTIC_THRESHOLD else "ok"
        lines.append(f"  {name}: SFR {format_value(value)} ({flag})")
    lines.append(f"verdict: {verdict.verdict}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _metric_values(record: dict) -> dict[str, float | None]:
    return {
        "wer": record["wer"]["rate"],
        "cer": record["cer"]["rate"],
        "sfr": record["sfr"]["value"],
        "ehr_micro": record["ehr"]["micro"],
        "ehr_macro": record["ehr"]["macro"],
    }


def compare_records(baseline: dict, candidates: Sequence[dict]) -> list[dict]:
    """Metric deltas of each candidate scorecard against the baseline.

    Deltas are candidate minus baseline for every metric; positive means
    regression for WER/CER and improvement for SFR/EHR. Scorecards must
    come from the same holdout and language, scored with the same currency
    mode and normalization.
    """
    if not candidates:
        raise ConfigurationError("nothing to compare: no candidate scorecards")
    base_values = _metric_values(baseline)
    out: list[dict] = []
    for record in candidates:
        for key in ("holdout", "language", "currency_mode", "normalization"):
            if record.get(key) != baseline.get(key):
                raise DataError(
                    f"cannot compare scorecards: {key} {record.get(key)!r}"
                    f" does not match baseline {baseline.get(key)!r}"
                )
        values = _metric_values(record)
        deltas = {
            name: None if values[name] is None or base_values[name] is None
            else values[name] - base_values[name]
            for name in values
        }
        micro, base_micro = values["ehr_micro"], base_values["ehr_micro"]
        ratio = micro / base_micro if micro is not None and base_micro else None
        out.append(
            {
                "system": record.get("system", ""),
                "baseline": baseline.get("system", ""),
                "holdout": record.get("holdout", ""),
                "language": record.get("language", ""),
                "values": values,
                "deltas": deltas,
                "ehr_micro_ratio": ratio,
            }
        )
    return out


def _signed(value: float | None) -> str:
    return "—" if value is None else f"{value:+.3f}"


def render_comparison(comparisons: Sequence[dict]) -> str:
    """Delta table; +WER/+CER mean regression, +SFR/+EHR mean improvement."""
    lines = [["system", "ΔWER", "ΔCER", "ΔSFR", "ΔEHR(micro)", "ΔEHR(macro)", "EHR ratio"]]
    for comp in comparisons:
        deltas = comp["deltas"]
        ratio = comp["ehr_micro_ratio"]
        lines.append(
            [
                comp["system"] or "(unnamed)",
                _signed(deltas["wer"]),
                _signed(deltas["cer"]),
                _signed(deltas["sfr"]),
                _signed(deltas["ehr_micro"]),
                _signed(deltas["ehr_macro"]),
                "—" if ratio is None else f"{ratio:.1f}x",
            ]
        )
    return "\n".join([*align_columns(lines), "(+WER/+CER = regression; +SFR/+EHR = improvement)"])
