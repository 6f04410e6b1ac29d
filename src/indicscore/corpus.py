"""Corpus data model and line-oriented JSONL I/O.

Three record shapes flow through the stack: holdout rows (reference text
plus tagged entity tokens), predictions (one hypothesis per row id and
system), and synthesis-manifest rows tracking each utterance through
routing, synthesis, and filtering. Loaders attach 1-based line numbers to
every parse problem and report all of them at once. Unknown JSON fields
are ignored so files can carry extra annotations.

The manifest half (rows, reader, writer, validation) lives in `manifest`,
which only the pipeline verbs load. Its public names also read from here
(PEP 562): the first read loads `manifest`.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from collections.abc import Iterable, Iterator
from pathlib import Path

from .errors import ConfigurationError, DataError
from .record import Record

# `manifest.validate_corpus_row` runs the purity check through this module,
# so that wrapping `corpus.script_purity_check` (as perfbench's replay does,
# to time it) wraps the check it runs.
from .script import script_purity_check  # noqa: F401

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


class EntityToken(Record):
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


class HoldoutRow(Record):
    """One evaluation utterance with its tagged entity tokens."""

    id: str
    text: str
    audio_path: str = ""
    entity_tokens: tuple[EntityToken, ...] = ()
    entity_class: str = ""
    language: str | None = None


class Prediction(Record):
    """One ASR hypothesis for a row id; empty hypotheses are legal."""

    id: str
    hypothesis: str
    system: str = ""


def _built(cls: type, fields: dict):
    """An instance of the frozen record ``cls`` (a `Record` or a frozen
    dataclass) whose ``__dict__`` is ``fields``, already checked: ``__init__``
    and its ``__post_init__`` checks are skipped. Equality, hashing, repr and
    the frozen ``__setattr__`` read fields as attributes, as on a constructed
    instance."""
    instance = object.__new__(cls)
    object.__setattr__(instance, "__dict__", fields)
    return instance


# ---------------------------------------------------------------------------
# JSONL plumbing
# ---------------------------------------------------------------------------

def _iter_jsonl(
    path: Path, what: str, problems: list[str], start: int = 0, stop: int | None = None
) -> Iterable[tuple[int, dict]]:
    # Lines end at b"\n" only: str.splitlines() would also break at the
    # U+2028 and U+0085 that manifest_line leaves unescaped. A byte range
    # [start, stop) begins a line and ends one; its line numbers count from
    # its start. After the last line, every problem found, the caller's
    # included, is raised as one DataError naming the file as a ``what`` file.
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
    if problems:
        raise DataError(f"malformed {what} file {path}", problems)


def _lines_within(handle, size: int) -> Iterator[bytes]:
    for raw in handle:
        yield raw
        size -= len(raw)
        if size <= 0:
            return


# The scanner json.loads runs, with its settings. A scan that ends before the
# newline of a line ending "}\n" read an object, which json.loads would return.
_scan_once = json.JSONDecoder().scan_once

encode_sorted = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode  # json.dumps with these settings


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
    if not isinstance(value, str) or not value:
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
    for lineno, record in _iter_jsonl(path, "holdout", problems):
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
    return rows


def load_predictions(path: str | Path) -> list[Prediction]:
    """Load predictions; (id, system) pairs must be unique."""
    path = Path(path)
    problems: list[str] = []
    predictions: list[Prediction] = []
    seen: dict[tuple[str, str], int] = {}
    for lineno, record in _iter_jsonl(path, "predictions", problems):
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
    return predictions




# ---------------------------------------------------------------------------
# Outputs replaced all at once
# ---------------------------------------------------------------------------

class ReplacingFile:
    """A text output written to a temp file beside ``path``; ``commit``
    renames it over ``path`` and ``discard`` removes it.

    Use it through ``replacing``. An existing path that is not a regular
    file (``/dev/null``, a pipe) cannot be replaced and is written in
    place, as is a file descriptor, which is left open. ``handle`` is the
    open text file.
    """

    def __init__(self, path: str | Path | int):
        self._temp: str | None = None
        if isinstance(path, int):
            self.handle = open(path, "w", encoding="utf-8", closefd=False)
            return
        path = os.fspath(path)
        if os.path.exists(path) and not os.path.isfile(path):
            # a directory fails here, before any output is written
            self.handle = open(path, "w", encoding="utf-8")
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
        self.handle = open(fd, "w", encoding="utf-8")

    def commit(self) -> None:
        """Close the output and rename the temp file over the path."""
        self.handle.close()
        if self._temp is not None:
            os.replace(self._temp, self._target)
            self._temp = None

    def discard(self) -> None:
        """Close the output and remove the temp file, if not yet committed."""
        with contextlib.suppress(OSError):
            self.handle.close()
        if self._temp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._temp)
            self._temp = None


@contextlib.contextmanager
def replacing(*paths: str | Path | int | None, opener: type = ReplacingFile) -> Iterator[list]:
    """Yield ``opener(path)`` per path (None for a path that is None).

    The outputs are renamed into place, in argument order, only when the
    block completes; otherwise every temp file is removed. So a failed run
    neither creates nor changes an output, and an output may be a file the
    run reads.
    """
    files: list = []
    try:
        for path in paths:
            files.append(None if path is None else opener(path))
        yield files
        for file in files:
            if file is not None:
                file.commit()
    finally:
        for file in files:
            if file is not None:
                file.discard()


# The public names of `manifest`, which loads on the first read of one.
_MANIFEST_NAMES = frozenset({
    "ManifestRow", "with_status", "read_manifest", "load_manifest", "manifest_line", "ManifestWriter",
    "save_manifest", "Violation", "MIN_TOKENS", "MAX_TOKENS", "ValidationConfig", "validate_corpus_row",
})


def __getattr__(name: str):
    if name not in _MANIFEST_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import manifest

    value = getattr(manifest, name)
    globals()[name] = value  # later reads skip this hook
    return value
