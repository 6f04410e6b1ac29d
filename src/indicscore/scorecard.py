"""Run-level scoring, the script-fidelity diagnostic, and system comparison.

A scorecard aggregates one prediction set against one holdout: pooled WER
and CER, pooled SFR, and entity hit rate with per-class tallies. All
aggregation is deterministic, so scoring the same inputs twice produces
byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import HoldoutRow, Prediction
from .distance import ErrorRate, cer, wer
from .errors import ConfigurationError, DataError
from .matchers import EhrReport, MatchResult, ScoringConfig, aggregate_ehr, score_utterance
from .script import SfrResult, aggregate_sfr, sfr
from .textnorm import DEFAULT_NORM, NormConfig


@dataclass(frozen=True)
class UtteranceDetail:
    """Per-utterance metrics plus every entity match decision."""

    id: str
    wer: float
    cer: float
    sfr: float | None
    matches: tuple[MatchResult, ...]


@dataclass(frozen=True)
class Scorecard:
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
    mixing languages is an error.
    """
    if config is None:
        config = ScoringConfig(language=language)
    mixed = sorted({row.language for row in rows if row.language is not None} - {language})
    if mixed:
        raise DataError(
            f"holdout mixes languages: expected {language!r}, also found {', '.join(map(repr, mixed))}"
        )
    by_id: dict[str, Prediction] = {p.id: p for p in predictions}
    matched = [row for row in rows if row.id in by_id]
    if not matched:
        raise DataError("no prediction ids match the holdout rows")
    unmatched_rows = tuple(row.id for row in rows if row.id not in by_id)
    row_ids = {row.id for row in rows}
    unmatched_predictions = tuple(sorted(p.id for p in predictions if p.id not in row_ids))

    word_distance = word_total = 0
    char_distance = char_total = 0
    row_sfrs: list[SfrResult] = []
    details: list[UtteranceDetail] = []
    for row in matched:
        hypothesis = by_id[row.id].hypothesis
        try:
            row_wer = wer(row.text, hypothesis, normalization)
            row_cer = cer(row.text, hypothesis, normalization)
        except DataError as exc:
            raise DataError(f"row {row.id!r}: {exc}") from exc
        row_sfr = sfr(hypothesis, language)
        results = score_utterance(row.entity_tokens, hypothesis, config)
        word_distance += row_wer.distance
        word_total += row_wer.reference_length
        char_distance += row_cer.distance
        char_total += row_cer.reference_length
        row_sfrs.append(row_sfr)
        details.append(
            UtteranceDetail(
                id=row.id,
                wer=row_wer.rate,
                cer=row_cer.rate,
                sfr=row_sfr.value,
                matches=tuple(results),
            )
        )

    scorecard = Scorecard(
        system=system,
        holdout=holdout_name,
        language=language,
        n=len(matched),
        wer=ErrorRate(word_distance, word_total),
        cer=ErrorRate(char_distance, char_total),
        sfr=aggregate_sfr(row_sfrs),
        ehr=aggregate_ehr(m for detail in details for m in detail.matches),
        unmatched_row_ids=unmatched_rows,
        unmatched_prediction_ids=unmatched_predictions,
        currency_mode=config.currency_mode,
        normalization=normalization.label,
    )
    return scorecard, details


# ---------------------------------------------------------------------------
# Rendering and records
# ---------------------------------------------------------------------------

def format_value(value: float | None, decimals: int = 3) -> str:
    """Fixed 3-decimal formatting; NA renders as an em dash."""
    return "—" if value is None else f"{value:.{decimals}f}"


def scorecard_record(card: Scorecard) -> dict:
    """JSON-safe record with full-precision values."""
    return {
        "system": card.system,
        "holdout": card.holdout,
        "language": card.language,
        "n": card.n,
        "wer": {
            "distance": card.wer.distance,
            "reference_length": card.wer.reference_length,
            "rate": card.wer.rate,
        },
        "cer": {
            "distance": card.cer.distance,
            "reference_length": card.cer.reference_length,
            "rate": card.cer.rate,
        },
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


@dataclass(frozen=True)
class DiagnosticVerdict:
    language: str
    per_holdout_sfr: Mapping[str, float]
    verdict: str


def diagnose(
    per_holdout_sfr: Mapping[str, float],
    language: str,
    threshold: float = SFR_DIAGNOSTIC_THRESHOLD,
    min_below: int = SFR_DIAGNOSTIC_MIN_BELOW,
) -> DiagnosticVerdict:
    """Decide whether script-fidelity adaptation is warranted.

    The recipe applies only when vanilla SFR is strictly below the
    threshold on at least ``min_below`` holdouts; with healthy SFR it is
    contraindicated. Needs at least two holdouts to be meaningful.
    """
    if len(per_holdout_sfr) < 2:
        raise ConfigurationError(
            f"diagnostic needs at least 2 holdouts, got {len(per_holdout_sfr)}"
        )
    below = sum(1 for value in per_holdout_sfr.values() if value < threshold)
    verdict = VERDICT_APPLY if below >= min_below else VERDICT_CONTRAINDICATED
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
    header = ["system", "ΔWER", "ΔCER", "ΔSFR", "ΔEHR(micro)", "ΔEHR(macro)", "EHR ratio"]
    lines = [header]
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
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    rendered = [
        "  ".join(cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i]) for i, cell in enumerate(line))
        for line in lines
    ]
    rendered.append("(+WER/+CER = regression; +SFR/+EHR = improvement)")
    return "\n".join(rendered)
