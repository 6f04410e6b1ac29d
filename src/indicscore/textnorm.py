"""Unicode normalization primitives shared by every metric and matcher.

All text comparison in this package funnels through these helpers so the
same NFKC / casefold / whitespace conventions apply everywhere. Casefolding
follows the NFKC_Casefold construction (NFKC, casefold, NFKC again), which
is stable under repeated application. The module also holds what every CLI
verb shares: the mode vocabularies and the fixed-decimal number rendering.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

from .errors import ConfigurationError


def nfkc_normalize(text: str) -> str:
    """Compatibility normalization; maps fullwidth digits etc. to ASCII."""
    return unicodedata.normalize("NFKC", text)


def casefold_normalize(text: str) -> str:
    """NFKC + full casefold, idempotent."""
    return unicodedata.normalize("NFKC", unicodedata.normalize("NFKC", text).casefold())


def collapse_whitespace(text: str) -> str:
    """Collapse any whitespace run to a single space and trim the ends."""
    return " ".join(text.split())


def _strip_edges(token: str) -> str:
    # Strip punctuation and symbols (categories P*, S*) from token edges only;
    # interior separators like the commas in "50,000" or "8-2-293/82" survive.
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start])[0] in "PS":
        start += 1
    while end > start and unicodedata.category(token[end - 1])[0] in "PS":
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


# The modes the CLI offers as choices. They live in this module, which every
# verb loads, so that building the parser imports neither matchers nor numbers.
NORM_MODES = ("default", "strict")
CURRENCY_MODES = ("strict", "bidirectional")  # matchers: how currency amounts compare
REWRITE_MODES = ("grouped", "digit_by_digit")  # numbers: how digit runs are spelled


@dataclass(frozen=True)
class NormConfig:
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


def format_value(value: float | None, decimals: int = 3) -> str:
    """Fixed 3-decimal formatting; NA renders as an em dash."""
    return "—" if value is None else f"{value:.{decimals}f}"


def normalize_for_scoring(text: str, config: NormConfig = DEFAULT_NORM) -> str:
    """Character-level scoring form: NFKC (+casefold), whitespace collapsed."""
    out = casefold_normalize(text) if config.mode == "default" else nfkc_normalize(text)
    return collapse_whitespace(out)


def tokens_for_scoring(text: str, config: NormConfig = DEFAULT_NORM) -> list[str]:
    """Token-level scoring form used by WER and by the matchers."""
    if config.mode == "default":
        return tokenize(casefold_normalize(text))
    return nfkc_normalize(text).split()
