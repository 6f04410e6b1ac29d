"""Edit distance and the rates built on it (WER, CER)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DataError
from .textnorm import DEFAULT_NORM, NormConfig, normalize_for_scoring, tokens_for_scoring


def _position_masks(pattern: Sequence) -> dict:
    """Map each element of ``pattern`` to a bitmask of the positions it occupies."""
    masks: dict = {}
    bit = 1
    for x in pattern:
        masks[x] = masks.get(x, 0) | bit
        bit <<= 1
    return masks


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Unit-cost edit distance between two sequences.

    Bit-parallel global edit distance (Myers 1999, in Hyyrö 2003's form):
    the shorter sequence is the pattern, held as the bits of Python ints,
    and each element of the longer one advances a whole DP column in a few
    big-int operations, O(ceil(m/w) * n) word operations in all. Elements
    are compared by hash and equality, so they must be hashable: the
    characters of a ``str`` and the ``str`` tokens of ``wer`` both are.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if not m:
        return len(a)
    peq = _position_masks(b)
    mask = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for x in a:
        eq = peq.get(x, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # Row 0 is D[0][j] = j, so a +1 horizontal delta shifts in at the top.
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


@dataclass(frozen=True)
class ErrorRate:
    """Edit distance against a reference of known length; rate may exceed 1."""

    distance: int
    reference_length: int

    @property
    def rate(self) -> float:
        if self.reference_length == 0:
            raise DataError("error rate over a zero-length reference is undefined")
        return self.distance / self.reference_length


def wer(reference: str, hypothesis: str, normalization: NormConfig = DEFAULT_NORM) -> ErrorRate:
    """Token-level error rate; reference must not be empty after normalization."""
    ref_tokens = tokens_for_scoring(reference, normalization)
    if not ref_tokens:
        raise DataError("reference has no tokens after normalization; WER is undefined")
    hyp_tokens = tokens_for_scoring(hypothesis, normalization)
    return ErrorRate(levenshtein(ref_tokens, hyp_tokens), len(ref_tokens))


def cer(reference: str, hypothesis: str, normalization: NormConfig = DEFAULT_NORM) -> ErrorRate:
    """Character-level error rate over whitespace-collapsed strings.

    Spaces count as characters; interior whitespace runs are first
    collapsed to single spaces on both sides.
    """
    ref = normalize_for_scoring(reference, normalization)
    if not ref:
        raise DataError("reference is empty after normalization; CER is undefined")
    hyp = normalize_for_scoring(hypothesis, normalization)
    return ErrorRate(levenshtein(ref, hyp), len(ref))
