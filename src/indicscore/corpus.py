"""Corpus data model and line-oriented JSONL I/O.

Three record shapes flow through the stack: holdout rows (reference text
plus tagged entity tokens), predictions (one hypothesis per row id and
system), and synthesis-manifest rows tracking each utterance through
routing, synthesis, and filtering. Loaders attach 1-based line numbers to
every parse problem and report all of them at once. Unknown JSON fields
are ignored so files can carry extra annotations.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ConfigurationError, DataError
from .script import script_block, script_purity_check
from .textnorm import nfkc_normalize, token_count

# The entity classes a token may name, each scored by its own matcher in
# `matchers`. The class vocabulary lives here, with the token, so that the
# loaders need not import the matchers.
MATCHER_CLASSES = (
    "digit_run", "pincode", "currency_amount", "brand", "proper_noun", "spelled_digit", "house_or_plot"
)

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
class EntityToken:
    """One reference entity: a surface string plus its matcher class."""

    surface: str
    matcher_class: str
    language: str | None = None

    def __post_init__(self) -> None:
        if self.matcher_class not in MATCHER_CLASSES:
            raise ConfigurationError(
                f"unknown matcher class {self.matcher_class!r} for token {self.surface!r}"
            )
        if not self.surface:
            raise ConfigurationError("entity token surface must be non-empty")


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
    return _evolve(row, status=status)


def _built(cls: type, fields: dict):
    """An instance of the dataclass ``cls`` whose ``__dict__`` is ``fields``,
    already checked: the frozen ``__init__`` that sets each field through
    ``object.__setattr__`` is skipped. Equality, hashing, repr and the frozen
    ``__setattr__`` read fields as attributes, as on a constructed instance."""
    instance = object.__new__(cls)
    object.__setattr__(instance, "__dict__", fields)
    return instance


def _evolve(row: ManifestRow, **changes: object) -> ManifestRow:
    """``dataclasses.replace(row, **changes)`` for field names that exist;
    ManifestRow has no ``__post_init__`` for it to re-run."""
    fields = row.__dict__.copy()
    fields.update(changes)
    return _built(row.__class__, fields)


# ---------------------------------------------------------------------------
# JSONL plumbing
# ---------------------------------------------------------------------------

def _iter_jsonl(
    path: Path, problems: list[str], start: int = 0, stop: int | None = None
) -> Iterable[tuple[int, dict]]:
    # Lines end at b"\n" only: str.splitlines() would also break at the
    # U+2028 and U+0085 that manifest_line leaves unescaped. A byte range
    # [start, stop) begins a line and ends one; its line numbers count from
    # its start.
    with open(path, "rb") as handle:
        if start:
            handle.seek(start)
        lines = handle if stop is None else _lines_within(handle, stop - start)
        for lineno, raw in enumerate(lines, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                problems.append(f"line {lineno}: not valid UTF-8")
                continue
            try:  # a line that is one object and its newline, as manifest_line writes
                record, end = _scan_once(line, 0) if line.endswith("}\n") else (None, -1)
            except (json.JSONDecodeError, StopIteration):
                end = -1
            if end != len(line) - 1:  # any other line goes through json.loads
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
            if _SURROGATE_ESCAPE.search(raw) and _has_lone_surrogate(record):
                problems.append(f"line {lineno}: a string holds an unpaired surrogate escape")
                continue
            yield lineno, record


def _lines_within(handle, size: int) -> Iterator[bytes]:
    for raw in handle:
        yield raw
        size -= len(raw)
        if size <= 0:
            return


# The scanner json.loads runs, with its settings. A scan that ends before the
# newline of a line ending "}\n" read an object, which json.loads would return.
_scan_once = json.JSONDecoder().scan_once


# \ud800-\udfff, in either case. Escaped Indic text (\u0c..) never matches;
# an escaped backslash before "ud8.." can, and only costs the exact check.
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


def _has_lone_surrogate(record: dict) -> bool:
    # json.loads turns an unpaired \ud800-\udfff escape into a str that no
    # UTF-8 writer can encode.
    try:
        json.dumps(record, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


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
            if not item:
                problems.append(f"line {lineno}: entity token needs a non-empty 'surface'")
                continue
            surface, cls, lang = item, matcher_class, language
        elif isinstance(item, dict):
            surface = item.get("surface")
            cls = item.get("matcher_class", item.get("class"))
            lang = item.get("language", language)
            if not isinstance(surface, str) or not surface:
                problems.append(f"line {lineno}: entity token needs a non-empty 'surface'")
                continue
            if lang is not None and not isinstance(lang, str):
                problems.append(f"line {lineno}: entity token language must be a string")
                continue
            if cls is None and row_class in CLASS_TO_MATCHER:
                cls = CLASS_TO_MATCHER[row_class]
        else:
            problems.append(f"line {lineno}: entity token must be a string or object")
            continue
        if cls not in MATCHER_CLASSES:
            problems.append(f"line {lineno}: unknown matcher class {cls!r} for {surface!r}")
            continue
        # the checks of EntityToken.__post_init__ have passed above
        tokens.append(_built(EntityToken, {"surface": surface, "matcher_class": cls, "language": lang}))
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


def read_manifest(path: str | Path) -> Iterator[ManifestRow]:
    """Yield the synthesis-manifest rows of ``path`` in file order.

    Each row is validated as it is read; the file is opened on the first
    ``next``. Every problem in the file is raised together, as one
    DataError, after the last line, so a consumer must finish the
    iteration before acting on what it was given.
    """
    return _read_manifest(Path(path), {})


def _read_manifest(
    path: Path, seen: dict[str, int], start: int = 0, stop: int | None = None
) -> Iterator[ManifestRow]:
    # read_manifest over the byte range [start, stop) of the file, which
    # begins a line and ends one; the ids read are left as keys of ``seen``.
    problems: list[str] = []
    for lineno, record in _iter_jsonl(path, problems, start, stop):
        get = record.get
        row_id, text, language, corpus_class = get("id"), get("text"), get("language"), get("corpus_class")
        if not (row_id and text and language and corpus_class and isinstance(row_id, str)
                and isinstance(text, str) and isinstance(language, str) and isinstance(corpus_class, str)):
            for key in ("id", "text", "language", "corpus_class"):  # a message for each that fails
                _required_str(record, key, lineno, problems)
            continue
        if row_id in seen:
            problems.append(f"line {lineno}: duplicate id {row_id!r} (first seen on line {seen[row_id]})")
            continue
        seen[row_id] = lineno
        if corpus_class not in CORPUS_CLASSES:
            problems.append(f"line {lineno}: unknown corpus_class {corpus_class!r}")
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
    if problems:
        raise DataError(f"malformed manifest file {path}", problems)


def load_manifest(path: str | Path) -> list[ManifestRow]:
    """Load synthesis-manifest rows with full field validation."""
    return list(read_manifest(path))


_encode_str = json.encoder.encode_basestring  # what json.dumps(..., ensure_ascii=False) uses
_encode_other = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode  # and json.dumps itself
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
        value = float.__repr__(cer) if type(cer) is float and _isfinite(cer) else _encode_other(cer)
        line += f'"cer_against_source": {value}, '
    line += f'"corpus_class": {enc(row.corpus_class)}, '
    if row.entity_tokens:
        tokens = ", ".join([
            f'{{"language": {enc(t.language) if type(t.language) is str else _encode_other(t.language)},'
            f' "matcher_class": {enc(t.matcher_class)}, "surface": {enc(t.surface)}}}'
            for t in row.entity_tokens
        ])
        line += f'"entity_tokens": [{tokens}], '
    line += f'"id": {enc(row.id)}, "language": {enc(row.language)}, "status": {enc(row.status)}, '
    if row.synth_system is not None:
        line += f'"synth_system": {enc(row.synth_system)}, '
    return line + f'"text": {enc(row.text)}}}\n'


class ManifestWriter:
    """Writes manifest rows to a temp file beside ``path``; ``commit``
    renames it over ``path`` and ``discard`` removes it.

    Use it through ``manifest_writers``. An existing path that is not a
    regular file (``/dev/null``, a pipe) cannot be replaced and is written
    in place, as is a file descriptor, which is left open. ``count`` is the
    number of rows written.
    """

    def __init__(self, path: str | Path | int):
        self.count = 0
        self._temp: str | None = None
        if isinstance(path, int):
            self._handle = open(path, "w", encoding="utf-8", closefd=False)
            return
        path = os.fspath(path)
        if os.path.exists(path) and not os.path.isfile(path):
            # a directory fails here, before any output is written
            self._handle = open(path, "w", encoding="utf-8")
            return
        # a symlinked output keeps its link: the file it points to is replaced
        self._target = os.path.realpath(path)
        directory, name = os.path.split(self._target)
        self._temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(self._temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError as exc:
            if not os.path.isdir(directory):
                exc.filename = path  # name the output, as open(path, "w") did
                raise
            # the directory refused the temp file; the output itself may be writable
            raise OSError(
                exc.errno, f"{exc.strerror}: cannot create a temp file in {directory} to replace {path}"
            ) from None
        self._handle = open(fd, "w", encoding="utf-8")

    def write(self, row: ManifestRow) -> None:
        self._handle.write(manifest_line(row))
        self.count += 1

    def copy_from(self, fd: int, count: int) -> None:
        """Append the ``count`` rows that a writer on the file descriptor
        ``fd`` wrote there, from the start of that file."""
        self._handle.flush()
        out = self._handle.buffer
        os.lseek(fd, 0, os.SEEK_SET)
        while chunk := os.read(fd, 1 << 16):
            out.write(chunk)
        self.count += count

    def commit(self) -> None:
        """Close the output and rename the temp file over the path."""
        self._handle.close()
        if self._temp is not None:
            os.replace(self._temp, self._target)
            self._temp = None

    def discard(self) -> None:
        """Close the output and remove the temp file, if not yet committed."""
        with contextlib.suppress(OSError):
            self._handle.close()
        if self._temp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._temp)
            self._temp = None


@contextlib.contextmanager
def manifest_writers(*paths: str | Path | int | None) -> Iterator[list[ManifestWriter | None]]:
    """Yield a ManifestWriter per path (None for a path that is None).

    The outputs are renamed into place, in argument order, only when the
    block completes; otherwise every temp file is removed. So a failed run
    neither creates nor changes an output, and an output may be the
    manifest being read.
    """
    writers: list[ManifestWriter | None] = []
    try:
        for path in paths:
            writers.append(None if path is None else ManifestWriter(path))
        yield writers
        for writer in writers:
            if writer is not None:
                writer.commit()
    finally:
        for writer in writers:
            if writer is not None:
                writer.discard()


def save_manifest(path: str | Path, rows: Iterable[ManifestRow]) -> None:
    """Write ``rows`` to ``path``: all or nothing."""
    with manifest_writers(path) as (out,):
        for row in rows:
            out.write(row)


# ---------------------------------------------------------------------------
# Row validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str  # "length" | "entity_span" | "script_purity"
    detail: str


# A generated utterance holds MIN_TOKENS to MAX_TOKENS tokens, inclusive.
MIN_TOKENS = 3
MAX_TOKENS = 25


@dataclass(frozen=True)
class ValidationConfig:
    purity_threshold: float = 0.8


def _merge_spans(spans: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


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
    script_block(row.language)  # unknown language is a configuration error

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

    if not script_purity_check(text, row.language, _merge_spans(spans), config.purity_threshold):
        violations.append(
            Violation("script_purity", f"off-script content exceeds {1 - config.purity_threshold:.0%}")
        )
    return violations

