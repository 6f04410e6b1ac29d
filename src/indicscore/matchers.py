"""Per-class entity matching and hit-rate aggregation.

Each matcher answers one question: does the hypothesis recover this
reference entity token, under the normalization that is fair for its
class? The class rules:

  digit_run        the reference digits equal consecutive blocks of a
                   hypothesis digit run (NFKC; fused across a single space
                   or comma). Spaces part groups, and neighbouring one-digit
                   groups are one block: "98765 43210" recovers "9876543210"
                   and "98765", "5 0 0 0 8 1" only "500081"
  pincode          the digit_run rule for a token of exactly 6 digits
  currency_amount  any parsed hypothesis amount within +/-0.5 percent of
                   the reference value (inclusive: 200 * |hyp - ref| <= ref)
  brand            casefolded whole-token alias match via the alias table
  proper_noun      token-set Jaccard >= 0.80 against hypothesis windows of
                   k-1, k, and k+1 tokens
  spelled_digit    digit-subsequence preservation: LCS over the digit
                   sequences >= 0.80 of the reference length
  house_or_plot    casefolded whole-token sequence match

A decimal digit of any script reads as its ASCII digit, in the hypothesis
and in every surface ("५०००८१" is "500081"): `score_utterance` folds both
with `textnorm.fold_digits`, and an error quotes the surface as written.

Currency has two modes. In both, a verbatim whole-token occurrence of the
reference surface counts as a hit, and amounts are compared numerically
when the reference surface itself contains digits ("5 lakh", "₹50,000").
Bidirectional mode additionally compares numerically when the reference
is a pure word sequence ("ఇరవై లక్ష" against "2000000"); strict mode
scores such pairs by surface only, so strict hits are always a subset of
bidirectional hits.

`score_utterance` is the one entry point. It prepares the hypothesis once
per row, looks each token's matcher up in a table keyed by class and
records the (hit, detail) verdict the matcher returns as the token's
`MatchResult`. The matchers read casefolded tokens of the hypothesis, of
the entity surfaces and of the brand aliases through
`textnorm.tokens_for_scoring`, whose memo of recent texts means each is
normalized once however many tokens read it. The Jaccard and LCS
thresholds and the window slop are fixed module constants.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import accumulate, groupby
from pathlib import Path
from types import MappingProxyType

from .corpus import MATCHER_CLASSES, EntityToken
from .distance import _position_masks
from .errors import ConfigurationError, ReferenceDataError, read_table
from .numbers import MultiplierTable, load_language_table, parse_amount_text, parse_currency_expression
from .record import Record
from .textnorm import CURRENCY_MODES, casefold_normalize, fold_digits, nfkc_normalize, tokens_for_scoring

# Currency amounts hit within half a percent, inclusive: DIVISOR * |hyp - ref| <= ref.
CURRENCY_TOLERANCE_DIVISOR = 200

# Proper nouns hit at token-set Jaccard >= JACCARD_THRESHOLD against
# hypothesis windows of k - WINDOW_SLOP to k + WINDOW_SLOP tokens.
JACCARD_THRESHOLD = 0.80
WINDOW_SLOP = 1
# Spelled digits hit when the LCS keeps this share of the reference digits.
LCS_THRESHOLD = 0.80

# A maximal digit run, permitting a single grouping comma or space between
# digits so that "98765 43210" and "9,876,543,210" fuse to one run.
_FUSED_RUN_RE = re.compile(r"[0-9](?:[ ,]?[0-9])*")


class MatchResult(Record):
    surface: str
    matcher_class: str
    hit: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# Alias table
# ---------------------------------------------------------------------------

class AliasTable:
    """Groups of equivalent brand surfaces (canonical name plus aliases),
    each read casefolded with the digits of every script as ASCII digits."""

    def __init__(self, groups: Iterable[Iterable[str]] = ()):
        self._groups: list[tuple[str, ...]] = []  # casefolded aliases per group
        self._index: dict[str, int] = {}
        for group in groups:
            normalized = tuple(dict.fromkeys(casefold_normalize(fold_digits(g)) for g in group))
            if not normalized:
                continue
            idx = len(self._groups)
            self._groups.append(normalized)
            for surface in normalized:
                # a surface may appear in one group only; first group wins
                self._index.setdefault(surface, idx)

    def lookup(self, surface: str) -> tuple[str, ...] | None:
        idx = self._index.get(casefold_normalize(fold_digits(surface)))
        return self._groups[idx] if idx is not None else None

    def __len__(self) -> int:
        return len(self._groups)

    @classmethod
    def from_file(cls, path: str | Path) -> "AliasTable":
        """Load an alias file (lines as `errors.read_table` reads them): canonical brand, then aliases."""
        return cls([field for field in fields if field] for _, fields in read_table(path))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _digit_run_present(ref: str, text: str) -> bool:
    """Whether ``ref`` is the digits of consecutive blocks of one fused run.

    A fused run splits into groups at each space, and consecutive one-digit
    groups merge into one block: "98765 500081" offers 98765, 500081 and
    both together, while "5 0 0 0 8 1" offers only 500081. A comma groups
    the digits of one number, so "₹5,00,000" offers only 500000.
    """
    for match in _FUSED_RUN_RE.finditer(text):
        groups = match.group().replace(",", "").split(" ")
        digits = "".join(groups)
        blocks: list[str] = []
        for single, run in groupby(groups, lambda g: len(g) == 1):
            blocks += ["".join(run)] if single else run
        bounds = set(accumulate(map(len, blocks), initial=0))
        if any(digits.startswith(ref, start) and start + len(ref) in bounds for start in bounds):
            return True
    return False


def _surface_digits(surface: str) -> str:
    return "".join(ch for ch in nfkc_normalize(surface) if "0" <= ch <= "9")


def _contains_token_seq(haystack: tuple[str, ...], needle: tuple[str, ...]) -> bool:
    n = len(needle)
    if n == 0 or n > len(haystack):
        return False
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Length of the longest common subsequence of two sequences.

    Bit-parallel LCS (Allison and Dix 1986, in Hyyrö 2004's form): the
    shorter sequence is the pattern, and each element of the longer one
    updates all pattern positions in a few big-int operations. Elements
    must be hashable.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    peq = _position_masks(b)
    mask = (1 << len(b)) - 1
    v = mask
    for x in a:
        u = v & peq.get(x, 0)
        v = ((v + u) | (v - u)) & mask
    return (~v & mask).bit_count()


# ---------------------------------------------------------------------------
# Matchers: each takes (token, folded surface, hypothesis, config) and returns
# (hit, detail), reading ``surface`` and quoting ``token.surface`` in an error
# ---------------------------------------------------------------------------

def _run_verdict(ref: str, hyp: str) -> tuple[bool, str]:
    return (True, f"run {ref} present") if ref and _digit_run_present(ref, hyp) else (False, "")


def _match_digit_run(token: EntityToken, surface: str, hyp: str, config: ScoringConfig) -> tuple[bool, str]:
    """Exact digit-run match after NFKC, over the blocks of fused runs."""
    return _run_verdict(_surface_digits(surface), hyp)


def _match_pincode(token: EntityToken, surface: str, hyp: str, config: ScoringConfig) -> tuple[bool, str]:
    """A digit-run match whose reference must be exactly 6 digits."""
    ref = _surface_digits(surface)
    if len(ref) != 6:
        raise ReferenceDataError(
            f"pincode token {token.surface!r} must have exactly 6 digits, found {len(ref)}"
        )
    return _run_verdict(ref, hyp)


def _match_currency(token: EntityToken, surface: str, hyp: str, config: ScoringConfig) -> tuple[bool, str]:
    """Numeric currency match within +/-0.5 percent of the reference value."""
    table = config.table_for(token.language)
    v_ref = parse_amount_text(surface, table)
    if v_ref is None:
        raise ReferenceDataError(f"currency token {token.surface!r} does not parse as an amount")

    # Verbatim recovery of the reference surface always counts.
    if _contains_token_seq(tokens_for_scoring(hyp), tokens_for_scoring(surface)):
        return True, "surface recovered verbatim"

    if config.currency_mode == "strict" and not _surface_digits(surface):
        # The surface offers no digits to compare, and strict mode
        # does not trust a word-level value for the reference.
        return False, "no digit anchor in strict mode"

    for value in parse_currency_expression(hyp, table):
        if CURRENCY_TOLERANCE_DIVISOR * abs(value - v_ref) <= v_ref:
            return True, f"hypothesis amount {value} within 0.5% of {v_ref}"
    return False, ""


def _match_brand(token: EntityToken, surface: str, hyp: str, config: ScoringConfig) -> tuple[bool, str]:
    """Casefolded whole-token alias match ("Paytm" != "paytime")."""
    aliases = config.aliases.lookup(surface) if config.aliases is not None else None
    if aliases is None:  # the CLI warns of each such surface once, with its count
        aliases = (casefold_normalize(surface),)
    hyp_tokens = tokens_for_scoring(hyp)
    for alias in aliases:
        if _contains_token_seq(hyp_tokens, tokens_for_scoring(alias)):
            return True, f"alias {alias!r} present"
    return False, ""


def _match_proper_noun(token: EntityToken, surface: str, hyp: str, config: ScoringConfig) -> tuple[bool, str]:
    """Token-set Jaccard >= JACCARD_THRESHOLD over k-1/k/k+1 hypothesis windows."""
    ref_set = set(tokens_for_scoring(surface))
    if not ref_set:
        raise ReferenceDataError(f"proper noun token {token.surface!r} has no comparable tokens")
    hyp_tokens = tokens_for_scoring(hyp)
    k = len(ref_set)
    best = 0.0
    for width in range(max(1, k - WINDOW_SLOP), min(len(hyp_tokens), k + WINDOW_SLOP) + 1):
        for i in range(len(hyp_tokens) - width + 1):
            window = set(hyp_tokens[i : i + width])
            overlap = len(ref_set & window) / len(ref_set | window)
            best = max(best, overlap)
    if best >= JACCARD_THRESHOLD:
        return True, f"jaccard {best:.3f}"
    return False, f"best jaccard {best:.3f}"


def _digit_sequence(tokens: Iterable[str], table: MultiplierTable) -> str:
    # Unit words (0..99) and literal digit runs contribute; all else drops.
    out: list[str] = []
    for tok in tokens:
        if all("0" <= ch <= "9" for ch in tok):
            out.append(tok)
        else:
            value = table.units.get(tok)
            if value is not None and value <= 99:
                out.append(str(value))
    return "".join(out)


def _match_spelled_digit(token: EntityToken, surface: str, hyp: str, config: ScoringConfig) -> tuple[bool, str]:
    """Digit-subsequence preservation: LCS ratio >= LCS_THRESHOLD."""
    table = config.table_for(token.language)
    ref = _digit_sequence(tokens_for_scoring(surface), table)
    if not ref:
        raise ReferenceDataError(f"spelled digit token {token.surface!r} yields no digits")
    ratio = lcs_length(ref, _digit_sequence(tokens_for_scoring(hyp), table)) / len(ref)
    return ratio >= LCS_THRESHOLD, f"lcs {ratio:.3f} over {ref}"


def _match_house_or_plot(token: EntityToken, surface: str, hyp: str, config: ScoringConfig) -> tuple[bool, str]:
    """Casefolded whole-token sequence match (identifiers like 8-2-293/82)."""
    needle = tokens_for_scoring(surface)
    if not needle:
        raise ReferenceDataError(f"house/plot token {token.surface!r} has no comparable tokens")
    if _contains_token_seq(tokens_for_scoring(hyp), needle):
        return True, "token sequence present"
    return False, ""


_MATCHERS: Mapping[str, Callable[[EntityToken, str, str, ScoringConfig], tuple[bool, str]]] = {
    "digit_run": _match_digit_run,
    "pincode": _match_pincode,
    "currency_amount": _match_currency,
    "brand": _match_brand,
    "proper_noun": _match_proper_noun,
    "spelled_digit": _match_spelled_digit,
    "house_or_plot": _match_house_or_plot,
}

if tuple(_MATCHERS) != MATCHER_CLASSES:
    raise ImportError("the matcher table and corpus.MATCHER_CLASSES name different classes")


# ---------------------------------------------------------------------------
# Utterance-level scoring
# ---------------------------------------------------------------------------

class ScoringConfig(Record):
    """Everything the per-class matchers need at scoring time."""

    language: str = "en"
    currency_mode: str = "strict"
    aliases: AliasTable | None = None
    tables: Mapping[str, MultiplierTable] = MappingProxyType({})

    def __post_init__(self) -> None:
        if self.currency_mode not in CURRENCY_MODES:
            raise ConfigurationError(
                f"unknown currency mode {self.currency_mode!r}; expected one of {CURRENCY_MODES}"
            )
        object.__setattr__(self, "_merged", {})  # a cache, not a field

    def table_for(self, language: str | None) -> MultiplierTable:
        """The language's number table, merged with English once and kept."""
        lang = language or self.language
        table = self._merged.get(lang)
        if table is None:
            table = self.tables.get(lang)
            if table is None:
                table = load_language_table(lang)
            if lang != "en":
                table = table.merged_with(load_language_table("en"))
            self._merged[lang] = table
        return table


def score_utterance(
    tokens: Iterable[EntityToken],
    hypothesis: str,
    config: ScoringConfig | None = None,
) -> list[MatchResult]:
    """Match every reference entity token against one hypothesis.

    This is the one entry point to the matchers. The hypothesis is read
    with the digits of every script as ASCII digits and NFKC-normalized
    once, however many tokens read it; each surface is read with its digits
    folded too, and each result or error quotes the surface as written.
    """
    config = config or ScoringConfig()
    hyp = nfkc_normalize(fold_digits(hypothesis))
    results = []
    for token in tokens:
        hit, detail = _MATCHERS[token.matcher_class](token, fold_digits(token.surface), hyp, config)
        results.append(MatchResult(token.surface, token.matcher_class, hit, detail))
    return results


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

class ClassTally(Record):
    n: int
    hits: int

    @property
    def rate(self) -> float | None:
        return self.hits / self.n if self.n else None


class EhrReport(Record):
    """Per-class tallies plus the two corpus-level rates.

    ``micro`` pools hits over all tokens, so large classes dominate;
    ``macro`` is the unweighted mean of per-class rates. Classes with
    zero tokens are excluded from both. Either is None when nothing
    was scored.
    """

    per_class: Mapping[str, ClassTally]

    @property
    def micro(self) -> float | None:
        n = sum(t.n for t in self.per_class.values())
        if n == 0:
            return None
        return sum(t.hits for t in self.per_class.values()) / n

    @property
    def macro(self) -> float | None:
        rates = [t.rate for t in self.per_class.values() if t.n > 0]
        if not rates:
            return None
        # fsum: sum() of floats rounds differently before and from Python 3.12
        return math.fsum(rates) / len(rates)


def aggregate_ehr(results: Iterable[MatchResult]) -> EhrReport:
    """Tally match results into an EhrReport; classes sorted by name."""
    counts: dict[str, list[int]] = {}
    for result in results:
        tally = counts.setdefault(result.matcher_class, [0, 0])
        tally[0] += 1
        tally[1] += result.hit
    per_class = {cls: ClassTally(n, hits) for cls, (n, hits) in sorted(counts.items())}
    return EhrReport(per_class)
