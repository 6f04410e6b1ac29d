"""Synthesis-manifest rows and their I/O: the reader, the writer and row
validation.

Only the pipeline verbs load this module. A manifest line is read with the
JSONL plumbing of `corpus`, and its entity tokens are `corpus.EntityToken`s.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from . import corpus
from .corpus import (
    CORPUS_CLASSES,
    MANIFEST_STATUSES,
    SYNTH_SYSTEMS,
    EntityToken,
    HoldoutRow,
    ReplacingFile,
    _built,
    _iter_jsonl,
    _parse_entity_tokens,
    _required_str,
    encode_sorted,
    replacing,
)
from .errors import ConfigurationError, DataError
from .record import Record
from .script import LANGUAGES
from .textnorm import nfkc_normalize, token_count

# Forward-only transition ranks; the two terminal states share a rank.
_STATUS_RANK = {"pending": 0, "synthesized": 1, "filtered_out": 2, "accepted": 2}
_REQUIRED = ("id", "text", "language", "corpus_class")  # the fields a manifest line must hold as strings


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
    return _evolve(row, status=status)


def _evolve(row: ManifestRow, **changes: object) -> ManifestRow:
    """``dataclasses.replace(row, **changes)`` for field names that exist;
    ManifestRow has no ``__post_init__`` for it to re-run."""
    fields = row.__dict__.copy()
    fields.update(changes)
    return _built(row.__class__, fields)


def read_manifest(path: str | Path) -> Iterator[ManifestRow]:
    """Yield the synthesis-manifest rows of ``path`` in file order.

    Each row is validated as it is read; the file is opened on the first
    ``next``. Every problem in the file is raised together, as one
    DataError, after the last line, so a consumer must finish the
    iteration before acting on what it was given.
    """
    return _read_manifest(Path(path), {})


def _read_manifest(
    path: Path, seen: dict[str, None], start: int = 0, stop: int | None = None
) -> Iterator[ManifestRow]:
    # read_manifest over the byte range [start, stop) of the file, which
    # begins a line and ends one; the ids read are left as keys of ``seen``.
    problems: list[str] = []
    # each id's first line: read again at a file's first duplicate, kept as read from a stream
    first_lines: dict[str, int] | None = None if path.is_file() else {}
    for lineno, record in _iter_jsonl(path, "manifest", problems, start, stop):
        get = record.get
        row_id, text, language, corpus_class = get("id"), get("text"), get("language"), get("corpus_class")
        if not (row_id and text and language and corpus_class and isinstance(row_id, str)
                and isinstance(text, str) and isinstance(language, str) and isinstance(corpus_class, str)):
            for key in _REQUIRED:  # a message for each that fails
                _required_str(record, key, lineno, problems)
            continue
        if row_id in seen:
            if first_lines is None:
                first_lines = _first_lines(path, start, stop)
            problems.append(f"line {lineno}: duplicate id {row_id!r} (first seen on line {first_lines[row_id]})")
            continue
        seen[row_id] = None
        if first_lines is not None:
            first_lines.setdefault(row_id, lineno)
        if corpus_class not in CORPUS_CLASSES:
            problems.append(f"line {lineno}: unknown corpus_class {corpus_class!r}")
            continue
        if language not in LANGUAGES:
            problems.append(f"line {lineno}: unknown language {language!r}")
            continue
        synth_system = get("synth_system")
        if synth_system is not None and synth_system not in SYNTH_SYSTEMS:
            problems.append(f"line {lineno}: unknown synth_system {synth_system!r}")
            continue
        cer_value = get("cer_against_source")
        if cer_value is not None:
            if type(cer_value) is not float:
                if isinstance(cer_value, bool) or not isinstance(cer_value, int):
                    problems.append(f"line {lineno}: cer_against_source must be a number")
                    continue
                try:
                    cer_value = float(cer_value)
                except OverflowError:  # an integer beyond the float range
                    cer_value = math.inf
            # NaN would pass the CER gate, since every comparison with it is false
            if not 0.0 <= cer_value < math.inf:
                problems.append(f"line {lineno}: cer_against_source must be finite and not negative")
                continue
        status = get("status", "pending")
        if status not in MANIFEST_STATUSES:
            problems.append(f"line {lineno}: unknown status {status!r}")
            continue
        tokens = _parse_entity_tokens(get("entity_tokens"), corpus_class, language, lineno, problems)
        yield _built(ManifestRow, {
            "id": row_id, "text": text, "language": language, "corpus_class": corpus_class,
            "synth_system": synth_system, "cer_against_source": cer_value, "status": status,
            "entity_tokens": tokens,
        })


def _first_lines(path: Path, start: int, stop: int | None) -> dict[str, int]:
    """Each id's first line in the byte range [start, stop), counting the lines whose required fields pass."""
    first: dict[str, int] = {}
    with contextlib.suppress(DataError):  # the first read reports the range's problems
        for lineno, record in _iter_jsonl(path, "manifest", [], start, stop):
            values = [record.get(key) for key in _REQUIRED]
            if all(isinstance(value, str) and value for value in values):
                first.setdefault(values[0], lineno)
    return first


def load_manifest(path: str | Path) -> list[ManifestRow]:
    """Load synthesis-manifest rows with full field validation."""
    return list(read_manifest(path))


_encode_str = json.encoder.encode_basestring  # what json.dumps(..., ensure_ascii=False) uses
_isfinite = math.isfinite


def manifest_line(row: ManifestRow) -> str:
    """One manifest row as a JSONL line, newline included.

    The bytes are those of ``json.dumps(record, ensure_ascii=False,
    sort_keys=True)``, where the record holds the row's fields and leaves
    out ``synth_system`` and ``cer_against_source`` when they are None and
    ``entity_tokens`` when it is empty; the keys are written here in that
    sorted order.
    """
    enc = _encode_str
    line = "{"
    cer = row.cer_against_source
    if cer is not None:
        # a finite float, as the loader gives, is spelled as json.dumps spells it
        value = float.__repr__(cer) if type(cer) is float and _isfinite(cer) else encode_sorted(cer)
        line += f'"cer_against_source": {value}, '
    line += f'"corpus_class": {enc(row.corpus_class)}, '
    if row.entity_tokens:
        tokens = ", ".join([
            f'{{"language": {enc(t.language) if type(t.language) is str else encode_sorted(t.language)},'
            f' "matcher_class": {enc(t.matcher_class)}, "surface": {enc(t.surface)}}}'
            for t in row.entity_tokens
        ])
        line += f'"entity_tokens": [{tokens}], '
    line += f'"id": {enc(row.id)}, "language": {enc(row.language)}, "status": {enc(row.status)}, '
    if row.synth_system is not None:
        line += f'"synth_system": {enc(row.synth_system)}, '
    return line + f'"text": {enc(row.text)}}}\n'


class ManifestWriter(ReplacingFile):
    """Writes manifest rows to a temp file beside ``path``, as a
    ``corpus.ReplacingFile``; ``count`` is the number of rows ``write`` wrote.

    Use it through ``corpus.replacing(..., opener=ManifestWriter)``.
    """

    def __init__(self, path: str | Path | int):
        super().__init__(path)
        self.count = 0

    def write(self, row: ManifestRow) -> None:
        self.handle.write(manifest_line(row))
        self.count += 1

    def copy_from(self, fd: int) -> None:
        """Append the rows that a writer on the file descriptor ``fd``
        wrote there, from the start of that file."""
        self.handle.flush()
        out = self.handle.buffer
        os.lseek(fd, 0, os.SEEK_SET)
        while chunk := os.read(fd, 1 << 16):
            out.write(chunk)


def save_manifest(path: str | Path, rows: Iterable[ManifestRow]) -> None:
    """Write ``rows`` to ``path``: all or nothing."""
    with replacing(path, opener=ManifestWriter) as (out,):
        for row in rows:
            out.write(row)


# ---------------------------------------------------------------------------
# Row validation
# ---------------------------------------------------------------------------

class Violation(Record):
    kind: str  # "length" | "entity_span" | "script_purity"
    detail: str


# A generated utterance holds MIN_TOKENS to MAX_TOKENS tokens, inclusive.
MIN_TOKENS = 3
MAX_TOKENS = 25


class ValidationConfig(Record):
    purity_threshold: float = 0.8  # the share of letters that must be in script

    def __post_init__(self) -> None:
        if not 0 <= self.purity_threshold <= 1:  # NaN fails this too
            raise ConfigurationError(f"purity threshold {self.purity_threshold} is outside [0, 1]")


def validate_corpus_row(
    row: HoldoutRow | ManifestRow, config: ValidationConfig = ValidationConfig()
) -> list[Violation]:
    """Check one generated utterance; violations are data, not errors.

    Checks: token-count bounds, every tagged entity surface occurring in
    the NFKC text, and script purity with entity spans excluded (a Latin
    brand inside a Telugu carrier does not count against purity).
    """
    if row.language is None:
        raise DataError(f"row {row.id!r}: no language given for validation")

    violations: list[Violation] = []
    text = nfkc_normalize(row.text)

    tokens = token_count(text)
    if not MIN_TOKENS <= tokens <= MAX_TOKENS:
        violations.append(
            Violation("length", f"{tokens} tokens outside [{MIN_TOKENS}, {MAX_TOKENS}]")
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

    # read from corpus on each call, where a caller may have wrapped it
    if not corpus.script_purity_check(text, row.language, spans, config.purity_threshold):
        violations.append(
            Violation("script_purity", f"off-script content exceeds {1 - config.purity_threshold:.0%}")
        )
    return violations

