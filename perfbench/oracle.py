"""Independent reference for the scorer's WER and CER.

This is the benchmark's own copy of the default normalization and of the
edit distance, written without importing the package, so a faster kernel
in the package is checked against code it does not share.
"""

from __future__ import annotations

import unicodedata


def _casefold(text: str) -> str:
    return unicodedata.normalize("NFKC", unicodedata.normalize("NFKC", text).casefold())


def _strip_edges(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start])[0] in "PS":
        start += 1
    while end > start and unicodedata.category(token[end - 1])[0] in "PS":
        end -= 1
    return token[start:end]


def chars(text: str) -> str:
    """CER form: NFKC, casefolded, whitespace runs collapsed."""
    return " ".join(_casefold(text).split())


def words(text: str) -> list[str]:
    """WER form: NFKC, casefolded, split on whitespace, edge punctuation gone."""
    return [t for t in (_strip_edges(p) for p in _casefold(text).split()) if t]


def edit_distance(a, b) -> int:
    """Unit-cost Levenshtein distance, full-matrix rows."""
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[len(b)]


def wer(reference: str, hypothesis: str) -> float:
    ref = words(reference)
    return edit_distance(ref, words(hypothesis)) / len(ref)


def cer(reference: str, hypothesis: str) -> float:
    ref = chars(reference)
    return edit_distance(ref, chars(hypothesis)) / len(ref)
