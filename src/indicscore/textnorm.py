"""Unicode normalization primitives shared by every metric and matcher.

All text comparison in this package funnels through these helpers so the
same NFKC / casefold / whitespace conventions apply everywhere. Casefolding
follows the NFKC_Casefold construction (NFKC, casefold, NFKC again), which
is stable under repeated application.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass


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


def tokenize(text: str, *, strip_edge_punctuation: bool = True) -> list[str]:
    """Split NFKC text on whitespace, trimming punctuation at token edges.

    "plot no. 42, Jubilee Hills" -> ["plot", "no", "42", "Jubilee", "Hills"]
    """
    tokens = []
    for piece in nfkc_normalize(text).split():
        if strip_edge_punctuation:
            piece = _strip_edges(piece)
        if piece:
            tokens.append(piece)
    return tokens


@dataclass(frozen=True)
class NormConfig:
    """Normalization applied to reference and hypothesis before WER/CER.

    The default mode casefolds and strips token-edge punctuation; strict
    mode compares NFKC text as-is apart from whitespace collapsing.
    """

    casefold: bool = True
    strip_edge_punctuation: bool = True

    @property
    def label(self) -> str:
        return "default" if self == DEFAULT_NORM else "strict" if self == STRICT_NORM else "custom"


DEFAULT_NORM = NormConfig()
STRICT_NORM = NormConfig(casefold=False, strip_edge_punctuation=False)


def norm_config_from_label(label: str) -> NormConfig:
    if label == "default":
        return DEFAULT_NORM
    if label == "strict":
        return STRICT_NORM
    from .errors import ConfigurationError

    raise ConfigurationError(f"unknown normalization mode {label!r} (expected 'default' or 'strict')")


def normalize_for_scoring(text: str, config: NormConfig = DEFAULT_NORM) -> str:
    """Character-level scoring form: NFKC (+casefold), whitespace collapsed."""
    out = casefold_normalize(text) if config.casefold else nfkc_normalize(text)
    return collapse_whitespace(out)


def tokens_for_scoring(text: str, config: NormConfig = DEFAULT_NORM) -> list[str]:
    """Token-level scoring form used by WER."""
    out = casefold_normalize(text) if config.casefold else nfkc_normalize(text)
    return tokenize(out, strip_edge_punctuation=config.strip_edge_punctuation)
