"""Per-class entity matching and hit-rate aggregation.

Each matcher answers one question: does the hypothesis recover this
reference entity token, under the normalization that is fair for its
class? The class rules:

  digit_run        exact match of a maximal digit run after NFKC; runs in
                   the hypothesis are fused across single spaces and
                   grouping commas ("98765 43210" recovers "9876543210")
  pincode          a maximal digit run equal to the 6-digit token
  currency_amount  any parsed hypothesis amount within +/-0.5 percent of
                   the reference value (inclusive, exact rationals)
  brand            casefolded whole-token alias match via the alias table
  proper_noun      token-set Jaccard >= 0.80 against hypothesis windows of
                   k-1, k, and k+1 tokens
  spelled_digit    digit-subsequence preservation: LCS over the digit
                   sequences >= 0.80 of the reference length
  house_or_plot    casefolded whole-token sequence match

Currency has two modes. In both, a verbatim whole-token occurrence of the
reference surface counts as a hit, and amounts are compared numerically
when the reference surface itself contains Latin digits ("5 lakh",
"₹50,000"). Bidirectional mode additionally compares numerically when the
reference is a pure word sequence ("ఇరవై లక్ష" against "2000000"); strict
mode scores such pairs by surface only, so strict hits are always a
subset of bidirectional hits.

`score_utterance` is the one entry point. It looks each token's matcher
up in a table keyed by class. The matchers read casefolded tokens of the
hypothesis, of the entity surfaces and of the brand aliases through
`textnorm.tokens_for_scoring`, whose memo of recent texts means each is
normalized once however many tokens read it. The Jaccard and LCS
thresholds and the window slop are fixed module constants.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .corpus import MATCHER_CLASSES, EntityToken
from .distance import _position_masks
from .errors import ConfigurationError, ReferenceDataError, read_utf8
from .numbers import MultiplierTable, load_language_table, parse_amount_text, parse_currency_expression
from .record import Record
from .textnorm import CURRENCY_MODES, casefold_normalize, nfkc_normalize, tokens_for_scoring

# Relative tolerance for currency comparison: half a percent, inclusive.
CURRENCY_TOLERANCE = Fraction(1, 200)

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
    """Groups of equivalent brand surfaces (canonical name plus aliases)."""

    def __init__(self, groups: Iterable[Iterable[str]] = ()):
        self._groups: list[tuple[str, ...]] = []  # casefolded aliases per group
        self._index: dict[str, int] = {}
        for group in groups:
            normalized = tuple(dict.fromkeys(casefold_normalize(g) for g in group))
            if not normalized:
                continue
            idx = len(self._groups)
            self._groups.append(normalized)
            for surface in normalized:
                # a surface may appear in one group only; first group wins
                self._index.setdefault(surface, idx)

    def lookup(self, surface: str) -> tuple[str, ...] | None:
        idx = self._index.get(casefold_normalize(surface))
        return self._groups[idx] if idx is not None else None

    def __len__(self) -> int:
        return len(self._groups)

    @classmethod
    def from_file(cls, path: str | Path) -> "AliasTable":
        """Load a tab-separated alias file: canonical brand, then aliases."""
        groups = []
        for line in read_utf8(path).splitlines():
            line = line.rstrip()
            if not line or line.startswith("#"):
                continue
            groups.append([f for f in line.split("\t") if f.strip()])
        return cls(groups)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _digit_runs(text: str) -> list[str]:
    # Maximal digit runs of the NFKC text, fused across separators.
    return [
        m.group().replace(" ", "").replace(",", "")
        for m in _FUSED_RUN_RE.finditer(nfkc_normalize(text))
    ]


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
# Matchers: each takes (token, hypothesis text, config)
# ---------------------------------------------------------------------------

def _match_digit_run(token: EntityToken, hyp: str, config: ScoringConfig) -> MatchResult:
    """Exact maximal-digit-run match after NFKC and separator fusing."""
    ref = _surface_digits(token.surface)
    if ref and ref in _digit_runs(hyp):
        return MatchResult(token.surface, "digit_run", True, f"run {ref} present")
    return MatchResult(token.surface, "digit_run", False)


def _match_pincode(token: EntityToken, hyp: str, config: ScoringConfig) -> MatchResult:
    """Exact 6-digit run match; the reference must be exactly 6 digits."""
    ref = _surface_digits(token.surface)
    if len(ref) != 6:
        raise ReferenceDataError(
            f"pincode token {token.surface!r} must have exactly 6 digits, found {len(ref)}"
        )
    if ref in _digit_runs(hyp):
        return MatchResult(token.surface, "pincode", True, f"run {ref} present")
    return MatchResult(token.surface, "pincode", False)


def _match_currency(token: EntityToken, hyp: str, config: ScoringConfig) -> MatchResult:
    """Numeric currency match within +/-0.5 percent of the reference value."""
    table = config.table_for(token.language)
    parsed = parse_amount_text(token.surface, table)
    if parsed is None:
        raise ReferenceDataError(f"currency token {token.surface!r} does not parse as an amount")

    # Verbatim recovery of the reference surface always counts.
    if _contains_token_seq(tokens_for_scoring(hyp), tokens_for_scoring(token.surface)):
        return MatchResult(token.surface, "currency_amount", True, "surface recovered verbatim")

    digit_anchored = any("0" <= ch <= "9" for ch in nfkc_normalize(token.surface))
    if config.currency_mode == "strict" and not digit_anchored:
        # The surface offers no Latin digits to compare, and strict mode
        # does not trust a word-level value for the reference.
        return MatchResult(token.surface, "currency_amount", False, "no digit anchor in strict mode")

    v_ref = parsed.value
    tolerance = v_ref * CURRENCY_TOLERANCE
    for amount in parse_currency_expression(hyp, table):
        if abs(amount.value - v_ref) <= tolerance:
            return MatchResult(
                token.surface,
                "currency_amount",
                True,
                f"hypothesis amount {amount.value} within 0.5% of {v_ref}",
            )
    return MatchResult(token.surface, "currency_amount", False)


def _match_brand(token: EntityToken, hyp: str, config: ScoringConfig) -> MatchResult:
    """Casefolded whole-token alias match ("Paytm" != "paytime")."""
    aliases = config.aliases.lookup(token.surface) if config.aliases is not None else None
    if aliases is None:  # the CLI warns of each such surface once, with its count
        aliases = (casefold_normalize(token.surface),)
    hyp_tokens = tokens_for_scoring(hyp)
    for alias in aliases:
        if _contains_token_seq(hyp_tokens, tokens_for_scoring(alias)):
            return MatchResult(token.surface, "brand", True, f"alias {alias!r} present")
    return MatchResult(token.surface, "brand", False)


def _match_proper_noun(token: EntityToken, hyp: str, config: ScoringConfig) -> MatchResult:
    """Token-set Jaccard >= JACCARD_THRESHOLD over k-1/k/k+1 hypothesis windows."""
    ref_set = set(tokens_for_scoring(token.surface))
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
        return MatchResult(token.surface, "proper_noun", True, f"jaccard {best:.3f}")
    return MatchResult(token.surface, "proper_noun", False, f"best jaccard {best:.3f}")


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


def _match_spelled_digit(token: EntityToken, hyp: str, config: ScoringConfig) -> MatchResult:
    """Digit-subsequence preservation: LCS ratio >= LCS_THRESHOLD."""
    table = config.table_for(token.language)
    ref = _digit_sequence(tokens_for_scoring(token.surface), table)
    if not ref:
        raise ReferenceDataError(f"spelled digit token {token.surface!r} yields no digits")
    ratio = lcs_length(ref, _digit_sequence(tokens_for_scoring(hyp), table)) / len(ref)
    detail = f"lcs {ratio:.3f} over {ref}"
    return MatchResult(token.surface, "spelled_digit", ratio >= LCS_THRESHOLD, detail)


def _match_house_or_plot(token: EntityToken, hyp: str, config: ScoringConfig) -> MatchResult:
    """Casefolded whole-token sequence match (identifiers like 8-2-293/82)."""
    needle = tokens_for_scoring(token.surface)
    if not needle:
        raise ReferenceDataError(f"house/plot token {token.surface!r} has no comparable tokens")
    if _contains_token_seq(tokens_for_scoring(hyp), needle):
        return MatchResult(token.surface, "house_or_plot", True, "token sequence present")
    return MatchResult(token.surface, "house_or_plot", False)


_MATCHERS: Mapping[str, Callable[[EntityToken, str, ScoringConfig], MatchResult]] = {
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

    This is the one entry point to the matchers. The hypothesis is
    normalized once, however many tokens it is matched against: its
    scoring tokens come from the `textnorm` memo that WER reads too.
    """
    config = config or ScoringConfig()
    return [_MATCHERS[token.matcher_class](token, hypothesis, config) for token in tokens]


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
        return sum(rates) / len(rates)


def aggregate_ehr(results: Iterable[MatchResult]) -> EhrReport:
    """Tally match results into an EhrReport; classes sorted by name."""
    counts: dict[str, list[int]] = {}
    for result in results:
        tally = counts.setdefault(result.matcher_class, [0, 0])
        tally[0] += 1
        tally[1] += result.hit
    per_class = {cls: ClassTally(n, hits) for cls, (n, hits) in sorted(counts.items())}
    return EhrReport(per_class)
