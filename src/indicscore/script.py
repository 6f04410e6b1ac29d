"""Script fidelity rate: how much of a transcript stays in the expected script.

SFR counts Unicode letters (general category L*, which is exactly what
``str.isalpha`` tests) and reports the fraction that fall inside the
language's script block. Combining marks (Mn/Mc) are not letters and are
excluded from both counts so the rate reflects base characters only.
Digits and punctuation never affect the rate.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import ConfigurationError, DataError
from .record import Record

# Inclusive codepoint ranges per supported language.
SCRIPT_BLOCKS: dict[str, tuple[int, int]] = {
    "te": (0x0C00, 0x0C7F),  # Telugu
    "ta": (0x0B80, 0x0BFF),  # Tamil
    "hi": (0x0900, 0x097F),  # Devanagari
}

LANGUAGES = tuple(sorted(SCRIPT_BLOCKS))


def script_block(language: str) -> tuple[int, int]:
    try:
        return SCRIPT_BLOCKS[language]
    except KeyError:
        raise ConfigurationError(
            f"unknown language {language!r}; expected one of {', '.join(LANGUAGES)}"
        ) from None


class SfrResult(Record):
    """Letter tallies for one hypothesis; ``value`` is None when no letters."""

    letter_count: int
    in_block_count: int

    @property
    def value(self) -> float | None:
        if self.letter_count == 0:
            return None
        return self.in_block_count / self.letter_count


def sfr(hypothesis: str, language: str) -> SfrResult:
    """Fraction of letters inside the language's script block (NA if none)."""
    lo, hi = script_block(language)
    letters = in_block = 0
    for ch in hypothesis:
        if ch.isalpha():
            letters += 1
            if lo <= ord(ch) <= hi:
                in_block += 1
    return SfrResult(letters, in_block)


def aggregate_sfr(results: Iterable[SfrResult]) -> SfrResult:
    """Pooled SFR over many utterances; NA rows contribute nothing.

    The pooled value is None when every row is NA.
    """
    letters = in_block = 0
    for r in results:
        letters += r.letter_count
        in_block += r.in_block_count
    return SfrResult(letter_count=letters, in_block_count=in_block)


def _validate_spans(spans: Sequence[tuple[int, int]], text_length: int) -> list[tuple[int, int]]:
    ordered = sorted(spans)
    prev_end = 0
    for start, end in ordered:
        if not (0 <= start < end <= text_length):
            raise DataError(f"span ({start}, {end}) out of range for text of length {text_length}")
        if start < prev_end:
            raise DataError(f"span ({start}, {end}) overlaps a previous span")
        prev_end = end
    return ordered

def script_purity_check(
    text: str,
    language: str,
    allowed_spans: Sequence[tuple[int, int]] = (),
    threshold: float = 0.8,
) -> bool:
    """True when SFR over the text outside ``allowed_spans`` meets threshold.

    Spans are half-open character ranges marking stretches (Latin brand
    names, codes) that are allowed to be off-script; letters inside them
    are ignored. A text with no countable letters fails the check.
    """
    ordered = _validate_spans(allowed_spans, len(text))
    kept = []
    pos = 0
    for start, end in ordered:
        kept.append(text[pos:start])
        pos = end
    kept.append(text[pos:])
    value = sfr("".join(kept), language).value
    return value is not None and value >= threshold
