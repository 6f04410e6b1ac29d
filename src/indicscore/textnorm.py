"""Unicode normalization primitives shared by every metric and matcher.

All text comparison in this package funnels through these helpers so the
same NFKC / casefold / whitespace conventions apply everywhere. Casefolding
follows the NFKC_Casefold construction (NFKC, casefold, NFKC again), which
is stable under repeated application. The module also holds what every CLI
verb shares: the mode vocabularies, the fixed-decimal number rendering and
the column alignment of printed tables.
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache
from typing import Sequence

from .errors import ConfigurationError
from .record import Record


def nfkc_normalize(text: str) -> str:
    """Compatibility normalization; maps fullwidth digits etc. to ASCII."""
    return unicodedata.normalize("NFKC", text)


def casefold_normalize(text: str) -> str:
    """NFKC + full casefold, idempotent."""
    return unicodedata.normalize("NFKC", unicodedata.normalize("NFKC", text).casefold())


def collapse_whitespace(text: str) -> str:
    """Collapse any whitespace run to a single space and trim the ends."""
    return " ".join(text.split())


class _EdgeChars(dict):
    # character -> is it punctuation or a symbol (P*, S*); filled on first lookup

    def __missing__(self, char: str) -> bool:
        is_edge = self[char] = unicodedata.category(char)[0] in "PS"
        return is_edge


_IS_EDGE = _EdgeChars()


# A decimal digit (Unicode category Nd, which re's \d matches) other than 0-9.
_NON_ASCII_DIGIT = re.compile(r"[^\D0-9]")


def _ascii_digit(match: re.Match) -> str:
    return str(unicodedata.decimal(match.group()))


def fold_digits(text: str) -> str:
    """Every decimal digit of every script as its ASCII digit; ``text``
    itself when it has none to fold.

    "पिन ५०००८१" -> "पिन 500081". NFKC folds fullwidth digits but leaves
    Devanagari, Telugu and Tamil digits alone (Unicode Standard Annex #15).
    """
    return text if text.isascii() else _NON_ASCII_DIGIT.sub(_ascii_digit, text)


def _strip_edges(token: str) -> str:
    # Strip punctuation and symbols (categories P*, S*) from token edges only;
    # interior separators like the commas in "50,000" or "8-2-293/82" survive.
    is_edge = _IS_EDGE
    if not token or not (is_edge[token[0]] or is_edge[token[-1]]):
        return token
    start, end = 0, len(token)
    while start < end and is_edge[token[start]]:
        start += 1
    while end > start and is_edge[token[end - 1]]:
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Split NFKC text on whitespace, trimming punctuation at token edges.

    "plot no. 42, Jubilee Hills" -> ["plot", "no", "42", "Jubilee", "Hills"]
    """
    tokens = []
    for piece in nfkc_normalize(text).split():
        piece = _strip_edges(piece)
        if piece:
            tokens.append(piece)
    return tokens


def token_count(text: str) -> int:
    """``len(tokenize(text))`` for ``text`` that is already NFKC.

    A piece of only punctuation and symbols is no token; only a piece that
    starts with one is checked.
    """
    is_edge = _IS_EDGE
    pieces = text.split()
    return len(pieces) - sum(1 for piece in pieces if is_edge[piece[0]] and not _strip_edges(piece))


# The modes the CLI offers as choices. They live in this module, which every
# verb loads, so that building the parser imports neither matchers nor numbers.
NORM_MODES = ("default", "strict")
CURRENCY_MODES = ("strict", "bidirectional")  # matchers: how currency amounts compare
REWRITE_MODES = ("grouped", "digit_by_digit")  # numbers: how digit runs are spelled


class NormConfig(Record):
    """Normalization applied to reference and hypothesis before WER/CER.

    The default mode casefolds and strips token-edge punctuation; strict
    mode compares NFKC text as-is apart from whitespace collapsing.
    """

    mode: str = "default"

    def __post_init__(self) -> None:
        if self.mode not in NORM_MODES:
            raise ConfigurationError(
                f"unknown normalization mode {self.mode!r} (expected 'default' or 'strict')"
            )

    @property
    def label(self) -> str:
        return self.mode


DEFAULT_NORM = NormConfig()
STRICT_NORM = NormConfig("strict")


def norm_config_from_label(label: str) -> NormConfig:
    return NormConfig(label)


def format_value(value: float | None) -> str:
    """Fixed 3-decimal formatting; NA renders as an em dash."""
    return "—" if value is None else f"{value:.3f}"


def align_columns(lines: Sequence[Sequence[str]]) -> list[str]:
    """Each line's cells joined by two spaces, padded to their column's
    widest cell: the first column left-aligned, the others right-aligned."""
    widths = [max(map(len, column)) for column in zip(*lines)]
    aligned = []
    for first, *rest in lines:
        cells = [first.ljust(widths[0])] + [cell.rjust(width) for cell, width in zip(rest, widths[1:])]
        aligned.append("  ".join(cells))
    return aligned


# How many texts keep their scoring forms. Scoring a row reads its reference
# and hypothesis in WER and again in CER, and the hypothesis in every matcher,
# with that token's surface and brand aliases read in between. On perfbench's
# score workloads every such repeat hits from a bound of 6 up; 8 leaves room
# for a larger alias group. A larger bound adds only hits across rows.
_FORMS_CACHE_SIZE = 8


@lru_cache(maxsize=_FORMS_CACHE_SIZE)
def _scoring_forms(text: str, mode: str) -> tuple[str, tuple[str, ...]]:
    # (characters, tokens) of text in a NormConfig mode. NFKC and casefold
    # output is NFKC-stable, so the tokens are the pieces of the characters.
    if mode == "default":
        chars = collapse_whitespace(casefold_normalize(text))
        return chars, tuple(tokenize(chars))
    chars = collapse_whitespace(nfkc_normalize(text))
    return chars, tuple(chars.split())


def normalize_for_scoring(text: str, config: NormConfig = DEFAULT_NORM) -> str:
    """Character-level scoring form: NFKC (+casefold), whitespace collapsed."""
    return _scoring_forms(text, config.mode)[0]


def tokens_for_scoring(text: str, config: NormConfig = DEFAULT_NORM) -> tuple[str, ...]:
    """Token-level scoring form used by WER and by the matchers.

    Both forms of a text are computed together and the last few are kept,
    so WER, CER and the matchers normalize each text once.
    """
    return _scoring_forms(text, config.mode)[1]
