"""Corpus data model and line-oriented JSONL I/O.

Three record shapes flow through the stack: holdout rows (reference text
plus tagged entity tokens), predictions (one hypothesis per row id and
system), and synthesis-manifest rows tracking each utterance through
routing, synthesis, and filtering. Loaders attach 1-based line numbers to
every parse problem and report all of them at once. Unknown JSON fields
are ignored so files can carry extra annotations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from .errors import DataError
from .matchers import MATCHER_CLASSES, EntityToken
from .script import script_block, script_purity_check
from .textnorm import nfkc_normalize, tokenize

# Corpus-level utterance classes. Rows of the first four imply a single
# matcher class, so their entity tokens may be written as plain strings.
CORPUS_CLASSES = ("digits", "currency", "addresses", "brands", "codemix", "proper_nouns")

CLASS_TO_MATCHER = {
    "digits": "digit_run",
    "currency": "currency_amount",
    "brands": "brand",
    "proper_nouns": "proper_noun",
}

SYNTH_SYSTEMS = ("praxy", "chatterbox", "indicf5", "elevenlabs", "cartesia")

MANIFEST_STATUSES = ("pending", "synthesized", "filtered_out", "accepted")

# Forward-only transition ranks; the two terminal states share a rank.
_STATUS_RANK = {"pending": 0, "synthesized": 1, "filtered_out": 2, "accepted": 2}


@dataclass(frozen=True)
class HoldoutRow:
    """One evaluation utterance with its tagged entity tokens."""

    id: str
    text: str
    audio_path: str = ""
    entity_tokens: tuple[EntityToken, ...] = ()
    entity_class: str = ""
    language: str | None = None


@dataclass(frozen=True)
class Prediction:
    """One ASR hypothesis for a row id; empty hypotheses are legal."""

    id: str
    hypothesis: str
    system: str = ""


@dataclass(frozen=True)
class ManifestRow:
    """One utterance tracked through the synthesis pipeline."""

    id: str
    text: str
    language: str
    corpus_class: str
    synth_system: str | None = None
    cer_against_source: float | None = None
    status: str = "pending"
    entity_tokens: tuple[EntityToken, ...] = ()


def with_status(row: ManifestRow, status: str) -> ManifestRow:
    """Return the row moved to ``status``; transitions only move forward."""
    if status not in MANIFEST_STATUSES:
        raise DataError(f"unknown manifest status {status!r}")
    if status != row.status and _STATUS_RANK[status] <= _STATUS_RANK[row.status]:
        raise DataError(f"row {row.id!r}: cannot move status {row.status!r} -> {status!r}")
    return replace(row, status=status)


# ---------------------------------------------------------------------------
# JSONL plumbing
# ---------------------------------------------------------------------------

def _iter_jsonl(path: Path, problems: list[str]) -> Iterable[tuple[int, dict]]:
    # Lines end at b"\n" only: str.splitlines() would also break at the
    # U+2028 and U+0085 that _write_jsonl leaves unescaped.
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                problems.append(f"line {lineno}: not valid UTF-8")
                continue
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: invalid JSON ({exc.msg})")
                continue
            if not isinstance(record, dict):
                problems.append(f"line {lineno}: expected a JSON object")
                continue
            yield lineno, record


def _required_str(record: dict, key: str, lineno: int, problems: list[str]) -> str | None:
    value = record.get(key)
    if not isinstance(value, str) or (key != "hypothesis" and not value):
        problems.append(f"line {lineno}: missing or invalid field {key!r}")
        return None
    return value


def _parse_entity_tokens(
    raw: object,
    row_class: str,
    language: str | None,
    lineno: int,
    problems: list[str],
) -> tuple[EntityToken, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        problems.append(f"line {lineno}: entity_tokens must be a list")
        return ()
    tokens: list[EntityToken] = []
    for item in raw:
        if isinstance(item, str):
            matcher_class = CLASS_TO_MATCHER.get(row_class)
            if matcher_class is None:
                problems.append(
                    f"line {lineno}: rows of class {row_class!r} need explicit matcher"
                    f" classes for entity tokens (got bare string {item!r})"
                )
                continue
            surface, cls, lang = item, matcher_class, language
        elif isinstance(item, dict):
            surface = item.get("surface")
            cls = item.get("matcher_class", item.get("class"))
            lang = item.get("language", language)
            if not isinstance(surface, str) or not surface:
                problems.append(f"line {lineno}: entity token needs a non-empty 'surface'")
                continue
            if cls is None and row_class in CLASS_TO_MATCHER:
                cls = CLASS_TO_MATCHER[row_class]
        else:
            problems.append(f"line {lineno}: entity token must be a string or object")
            continue
        if cls not in MATCHER_CLASSES:
            problems.append(f"line {lineno}: unknown matcher class {cls!r} for {surface!r}")
            continue
        tokens.append(EntityToken(surface=surface, matcher_class=cls, language=lang))
    return tuple(tokens)


def load_holdout(path: str | Path) -> list[HoldoutRow]:
    """Load holdout rows, reporting every malformed line and duplicate id."""
    path = Path(path)
    problems: list[str] = []
    rows: list[HoldoutRow] = []
    seen: dict[str, int] = {}
    for lineno, record in _iter_jsonl(path, problems):
        row_id = _required_str(record, "id", lineno, problems)
        text = _required_str(record, "text", lineno, problems)
        if row_id is None or text is None:
            continue
        if row_id in seen:
            problems.append(f"line {lineno}: duplicate id {row_id!r} (first seen on line {seen[row_id]})")
            continue
        seen[row_id] = lineno
        language = record.get("language")
        if language is not None and not isinstance(language, str):
            problems.append(f"line {lineno}: language must be a string")
            continue
        entity_class = record.get("entity_class", "")
        if not isinstance(entity_class, str):
            problems.append(f"line {lineno}: entity_class must be a string")
            continue
        tokens = _parse_entity_tokens(
            record.get("entity_tokens"), entity_class, language, lineno, problems
        )
        rows.append(
            HoldoutRow(
                id=row_id,
                text=text,
                audio_path=str(record.get("audio_path", "") or ""),
                entity_tokens=tokens,
                entity_class=entity_class,
                language=language,
            )
        )
    if problems:
        raise DataError(f"malformed holdout file {path}", problems)
    return rows


def load_predictions(path: str | Path) -> list[Prediction]:
    """Load predictions; (id, system) pairs must be unique."""
    path = Path(path)
    problems: list[str] = []
    predictions: list[Prediction] = []
    seen: dict[tuple[str, str], int] = {}
    for lineno, record in _iter_jsonl(path, problems):
        row_id = _required_str(record, "id", lineno, problems)
        hypothesis = record.get("hypothesis")
        if not isinstance(hypothesis, str):
            problems.append(f"line {lineno}: missing or invalid field 'hypothesis'")
            hypothesis = None
        if row_id is None or hypothesis is None:
            continue
        system = record.get("system", "")
        if not isinstance(system, str):
            problems.append(f"line {lineno}: system must be a string")
            continue
        key = (row_id, system)
        if key in seen:
            problems.append(
                f"line {lineno}: duplicate prediction for id {row_id!r}"
                f" and system {system!r} (first seen on line {seen[key]})"
            )
            continue
        seen[key] = lineno
        predictions.append(Prediction(id=row_id, hypothesis=hypothesis, system=system))
    if problems:
        raise DataError(f"malformed predictions file {path}", problems)
    return predictions


def load_manifest(path: str | Path) -> list[ManifestRow]:
    """Load synthesis-manifest rows with full field validation."""
    path = Path(path)
    problems: list[str] = []
    rows: list[ManifestRow] = []
    seen: dict[str, int] = {}
    for lineno, record in _iter_jsonl(path, problems):
        row_id = _required_str(record, "id", lineno, problems)
        text = _required_str(record, "text", lineno, problems)
        language = _required_str(record, "language", lineno, problems)
        corpus_class = _required_str(record, "corpus_class", lineno, problems)
        if None in (row_id, text, language, corpus_class):
            continue
        if row_id in seen:
            problems.append(f"line {lineno}: duplicate id {row_id!r} (first seen on line {seen[row_id]})")
            continue
        seen[row_id] = lineno
        if corpus_class not in CORPUS_CLASSES:
            problems.append(f"line {lineno}: unknown corpus_class {corpus_class!r}")
            continue
        synth_system = record.get("synth_system")
        if synth_system is not None and synth_system not in SYNTH_SYSTEMS:
            problems.append(f"line {lineno}: unknown synth_system {synth_system!r}")
            continue
        cer_value = record.get("cer_against_source")
        if cer_value is not None and (isinstance(cer_value, bool) or not isinstance(cer_value, (int, float))):
            problems.append(f"line {lineno}: cer_against_source must be a number")
            continue
        status = record.get("status", "pending")
        if status not in MANIFEST_STATUSES:
            problems.append(f"line {lineno}: unknown status {status!r}")
            continue
        tokens = _parse_entity_tokens(
            record.get("entity_tokens"), corpus_class, language, lineno, problems
        )
        rows.append(
            ManifestRow(
                id=row_id,
                text=text,
                language=language,
                corpus_class=corpus_class,
                synth_system=synth_system,
                cer_against_source=None if cer_value is None else float(cer_value),
                status=status,
                entity_tokens=tokens,
            )
        )
    if problems:
        raise DataError(f"malformed manifest file {path}", problems)
    return rows


def manifest_row_to_record(row: ManifestRow) -> dict:
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
    return record


def save_manifest(path: str | Path, rows: Iterable[ManifestRow]) -> None:
    _write_jsonl(path, (manifest_row_to_record(r) for r in rows))


def _write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Row validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str  # "length" | "entity_span" | "script_purity"
    detail: str


@dataclass(frozen=True)
class ValidationConfig:
    purity_threshold: float = 0.8
    min_tokens: int = 3
    max_tokens: int = 25


def _merge_spans(spans: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def validate_corpus_row(
    row: HoldoutRow | ManifestRow,
    language: str | None = None,
    config: ValidationConfig = ValidationConfig(),
) -> list[Violation]:
    """Check one generated utterance; violations are data, not errors.

    Checks: token-count bounds, every tagged entity surface occurring in
    the NFKC text, and script purity with entity spans excluded (a Latin
    brand inside a Telugu carrier does not count against purity).
    """
    lang = language or row.language
    if lang is None:
        raise DataError(f"row {row.id!r}: no language given for validation")
    script_block(lang)  # unknown language is a configuration error

    violations: list[Violation] = []
    text = nfkc_normalize(row.text)

    token_count = len(tokenize(text))
    if not config.min_tokens <= token_count <= config.max_tokens:
        violations.append(
            Violation(
                "length",
                f"{token_count} tokens outside [{config.min_tokens}, {config.max_tokens}]",
            )
        )

    spans: list[tuple[int, int]] = []
    for entity in row.entity_tokens:
        surface = nfkc_normalize(entity.surface)
        found = False
        start = text.find(surface)
        while start != -1:
            found = True
            spans.append((start, start + len(surface)))
            start = text.find(surface, start + 1)
        if not found:
            violations.append(
                Violation("entity_span", f"entity surface {entity.surface!r} not found in text")
            )

    if not script_purity_check(text, lang, _merge_spans(spans), config.purity_threshold):
        violations.append(
            Violation("script_purity", f"off-script content exceeds {1 - config.purity_threshold:.0%}")
        )
    return violations

