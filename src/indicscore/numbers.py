"""Bidirectional number machinery for Indian-system amounts.

Parsing accepts Latin numerals (plain, Western-grouped "50,000",
Indian-grouped "50,00,000", decimal amounts), number-word sequences
(units, tens, the hundred word, and multiplier words such as thousand /
hazaar / lakh / crore), and mixed forms like "5 lakh". Spelling emits
words under Indian grouping: crore, lakh, thousand, hundred, units,
largest multiplier first.

Word sequences follow a strict grammar so that corpus bugs surface as
parse failures instead of best-effort values:

* multipliers must descend ("five lakh forty-two thousand", never
  "forty-two thousand five lakh");
* every multiplier needs a count ("thousand lakh" does not parse);
* the one sanctioned ascending form is the crore compound ("one
  thousand crore", "five lakh crore"), where crore scales everything
  accumulated so far — that is how amounts above 99 crore are read out.

Values are exact: an int, or a fractions.Fraction (imported only then)
once a numeral with a decimal point takes part, so decimal amounts like
"1.5 lakh" carry no floating-point error into tolerance checks.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property, lru_cache
from pathlib import Path

from .errors import ConfigurationError, DataError, read_table
from .record import Record
from .script import LANGUAGES
from .textnorm import REWRITE_MODES, casefold_normalize, nfkc_normalize, tokens_for_scoring

_CRORE = 10**7
_SPELL_LIMIT = 10**12

# ---------------------------------------------------------------------------
# Latin numerals
# ---------------------------------------------------------------------------

# [0-9] throughout: \d would also match Devanagari and other decimal digits.
_NUMERAL_RE = re.compile(
    r"""(?:
          [0-9]+                              # plain run
        | [0-9]{1,3}(?:,[0-9]{3})+            # Western grouping 50,000
        | [0-9]{1,2}(?:,[0-9]{2})*,[0-9]{3}   # Indian grouping 50,00,000
        )
        (?:\.[0-9]+)?""",
    re.VERBOSE,
)

_DIGIT_RUN_RE = re.compile(r"[0-9]+")
# Grouped mode reads a whole grouped numeral with no zero first and no digit,
# comma or decimal point joined to it ("05,000", "1,2,3" and "1,500.50" go run
# by run); the leading [1-9] lets the scan skip ahead to the next digit.
_GROUPED_RUN_RE = re.compile(
    r"[1-9](?<![0-9,].)(?<![0-9]\..)(?:[0-9]{0,2}(?:,[0-9]{3})+|[0-9]?(?:,[0-9]{2})*,[0-9]{3})(?![.,]?[0-9])|[0-9]+"
)


def parse_latin_numeral(text: str) -> int | Fraction | None:
    """Parse one Latin numeral with optional grouping and decimal point.

    Comma placement must follow either the Western or the Indian
    convention; anything else (e.g. "5,0,0") is rejected.
    """
    s = nfkc_normalize(text)
    return _numeral_value(s) if _NUMERAL_RE.fullmatch(s) else None


def _numeral_value(numeral: str) -> int | Fraction:
    # a numeral _NUMERAL_RE matched, as an int or, with a decimal point, as
    # its exact Fraction: the one place fractions (and decimal) is imported
    digits = numeral.replace(",", "")
    if "." not in digits:
        return int(digits)
    from fractions import Fraction

    return Fraction(digits)


# ---------------------------------------------------------------------------
# Multiplier tables
# ---------------------------------------------------------------------------

LEXICON_KINDS = ("unit", "multiplier", "currency_marker")
LEXICON_SCRIPTS = ("latin", "native")


def _is_power_of_ten(n: int) -> bool:
    while n % 10 == 0 and n > 1:
        n //= 10
    return n == 1


class MultiplierTable(Record):
    """Number vocabulary for one language.

    ``units`` maps words to 0..99 plus the hundred word (value 100);
    ``multipliers`` maps words to powers of ten >= 1000. The first word
    for a value, in mapping order, is its canonical spelling.
    """

    language: str
    units: Mapping[str, int]
    multipliers: Mapping[str, int]
    currency_markers: frozenset[str]

    @cached_property
    def spellings(self) -> Mapping[int, str]:
        return _first_words({**self.units, **self.multipliers})  # their values never overlap

    @classmethod
    def from_entries(
        cls, language: str, entries: Iterable[tuple[str, int, str, str]]
    ) -> "MultiplierTable":
        words: dict[str, dict[str, int]] = {kind: {} for kind in LEXICON_KINDS}
        for word, value, kind, script in entries:
            _add_word(words, language, word, value, kind, script)
        return _table(language, words)

    def merged_with(self, other: "MultiplierTable") -> "MultiplierTable":
        """This table extended with ``other``'s words; own entries win.

        A word mapped to two different values is a real conflict and raises.
        Spelling stays canonical to this table wherever it has a word.
        """
        units = dict(self.units)
        multipliers = dict(self.multipliers)
        for mine, theirs, rest in ((units, other.units, multipliers), (multipliers, other.multipliers, units)):
            for word, value in theirs.items():
                if mine.get(word, value) != value or word in rest:
                    raise ConfigurationError(f"conflicting value for word {word!r} in merged table")
                mine.setdefault(word, value)
        return MultiplierTable(
            language=self.language,
            units=units,
            multipliers=multipliers,
            currency_markers=self.currency_markers | other.currency_markers,
        )


def _first_words(words: Mapping[str, int]) -> dict[int, str]:
    first: dict[int, str] = {}
    for word, value in words.items():
        first.setdefault(value, word)
    return first


def _add_word(
    words: Mapping[str, dict[str, int]], language: str, word: str, value: int | str, kind: str, script: str
) -> None:
    """Add one lexicon entry to ``words``, which maps each kind to its
    casefolded words and their values; an entry the table of ``language``
    cannot hold raises ConfigurationError. A currency marker's value is not read."""
    if kind not in words:
        raise ConfigurationError(f"unknown kind {kind!r}; expected one of {LEXICON_KINDS}")
    if script not in LEXICON_SCRIPTS:
        raise ConfigurationError(f"unknown script {script!r}; expected one of {LEXICON_SCRIPTS}")
    try:
        value = 0 if kind == "currency_marker" else int(value)
    except ValueError:
        raise ConfigurationError(f"value {value!r} is not an integer") from None
    w = casefold_normalize(word).strip()
    if not w or " " in w:
        raise ConfigurationError(f"lexicon word {word!r} must be one non-empty token")
    if w in words["unit"] or w in words["multiplier"] or w in words["currency_marker"]:
        raise ConfigurationError(f"duplicate lexicon word {word!r} in table {language!r}")
    if kind == "unit" and not 0 <= value <= 100:
        raise ConfigurationError(f"unit {word!r} has value {value}, outside 0..100")
    if kind == "multiplier" and (value < 1000 or not _is_power_of_ten(value)):
        raise ConfigurationError(f"multiplier {word!r} has value {value}; expected a power of 10 >= 1000")
    words[kind][w] = value


def _table(language: str, words: Mapping[str, dict[str, int]]) -> MultiplierTable:
    return MultiplierTable(
        language=language,
        units=words["unit"],
        multipliers=words["multiplier"],
        currency_markers=frozenset(words["currency_marker"]),
    )


def load_lexicon(path: str | Path, language: str | None = None) -> MultiplierTable:
    """Load a tab-separated lexicon file.

    One record per line: word, value, kind (unit|multiplier|currency_marker),
    script (latin|native), read by `errors.read_table`.
    The value field is ignored for currency markers. Every problem, a word
    the table cannot hold included, is raised together, each with its line.
    """
    path = Path(path)
    language = language or path.stem
    words: dict[str, dict[str, int]] = {kind: {} for kind in LEXICON_KINDS}
    problems: list[str] = []
    for lineno, fields in read_table(path):
        try:
            if len(fields) != 4:
                raise ConfigurationError(f"expected 4 tab-separated fields, got {len(fields)}")
            _add_word(words, language, *fields)
        except ConfigurationError as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        raise DataError(f"malformed lexicon {path}", problems)
    return _table(language, words)


# English is built in so the machinery is testable without data files.
_EN_ONES = (
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    "sixteen", "seventeen", "eighteen", "nineteen",
)
_EN_TENS = (
    None, None, "twenty", "thirty", "forty", "fifty", "sixty", "seventy",
    "eighty", "ninety",
)


def _english_entries() -> list[tuple[str, int, str, str]]:
    entries: list[tuple[str, int, str, str]] = []
    for value, word in enumerate(_EN_ONES):
        entries.append((word, value, "unit", "latin"))
    for t in range(2, 10):
        entries.append((_EN_TENS[t], t * 10, "unit", "latin"))
    for t in range(2, 10):
        for o in range(1, 10):
            entries.append((f"{_EN_TENS[t]}-{_EN_ONES[o]}", t * 10 + o, "unit", "latin"))
    entries.append(("hundred", 100, "unit", "latin"))
    for word, value in (
        ("thousand", 1000),
        ("hazaar", 1000),
        ("lakh", 100000),
        ("lakhs", 100000),
        ("million", 1000000),
        ("crore", 10000000),
        ("crores", 10000000),
    ):
        entries.append((word, value, "multiplier", "latin"))
    for marker in ("₹", "rs", "inr", "rupees", "rupee"):
        entries.append((marker, 0, "currency_marker", "latin"))
    return entries


ENGLISH_TABLE = MultiplierTable.from_entries("en", _english_entries())


@lru_cache(maxsize=None)
def load_language_table(language: str) -> MultiplierTable:
    """The bundled table for a language code ('en' is built in)."""
    if language == "en":
        return ENGLISH_TABLE
    if language not in LANGUAGES:
        raise ConfigurationError(f"no bundled number lexicon for language {language!r}")
    return load_lexicon(Path(__file__).parent / "data" / "lexicons" / f"{language}.tsv", language)


# ---------------------------------------------------------------------------
# Word-sequence parsing
# ---------------------------------------------------------------------------

def _parse_run(
    tokens: Sequence[str], table: MultiplierTable, start: int = 0
) -> tuple[int | Fraction, int] | None:
    """Parse the longest valid prefix of ``tokens[start:]`` as one amount,
    but for a count that the next hundred or multiplier word must scale.

    Returns (value, tokens consumed) or None. Tokens must already be
    casefold-normalized, and so NFKC: a numeral token is read as it is.
    """
    groups_total: int | Fraction = 0
    last_mult: int | None = None
    current: int | Fraction = 0
    has_current = numeral = False  # numeral: the pending count is written in digits
    best: tuple[int | Fraction, int] | None = None
    before_count = best  # best before the pending count began

    for i in range(start, len(tokens)):
        tok = tokens[i]
        unit = table.units.get(tok)
        mult = table.multipliers.get(tok)

        if unit is not None:
            if unit == 100:
                # the hundred word scales a pending 1..99 count
                if not has_current or current.denominator != 1 or not 1 <= current <= 99:
                    break
                current *= 100
            elif not has_current:
                before_count = best
                current = unit
                has_current = True
                numeral = False
            elif numeral:
                break  # a count written in digits takes no unit word: "₹500 five" is two amounts
            elif current >= 100 and current % 100 == 0 and 1 <= unit <= 99:
                before_count = best
                current += unit  # "two hundred" + "thirty-five"
            elif current % 10 == 0 and 20 <= current % 100 <= 90 and 1 <= unit <= 9:
                current += unit  # "twenty" + "one"
            else:
                break
        elif mult is not None:
            if has_current and current > 0:
                if last_mult is None or mult < last_mult:
                    groups_total += current * mult
                elif mult == _CRORE and last_mult < _CRORE:
                    # crore compound: scales everything read so far
                    groups_total = (groups_total + current) * mult
                else:
                    break
            elif has_current:
                break  # explicit zero count ("zero lakh")
            elif groups_total > 0 and mult == _CRORE and last_mult is not None and last_mult < _CRORE:
                groups_total *= mult  # "one thousand crore"
            else:
                break  # bare multiplier
            last_mult = mult
            current = 0
            has_current = False
        elif _NUMERAL_RE.fullmatch(tok):
            if has_current:
                break  # two numerals never fuse into one amount
            before_count = best
            current = _numeral_value(tok)
            has_current = numeral = True
        else:
            break

        # snapshot whenever the expression could legally end here
        if (has_current or last_mult is not None) and (last_mult is None or current < last_mult):
            best = (groups_total + current, i + 1 - start)
    else:
        return best
    # "two hundred five hundred" reads 200, then 500, not 205 and a lone hundred
    if has_current and (unit == 100 or mult is not None) and before_count is not None:
        return before_count
    return best


def parse_number_words(tokens: Sequence[str], table: MultiplierTable) -> int | Fraction | None:
    """Parse a whole token sequence as one amount, or None.

    Trailing tokens that are not part of the amount make the parse fail;
    use `parse_currency_expression` to scan free text instead.
    """
    return _parse_words([casefold_normalize(t) for t in tokens], table)


def _parse_words(tokens: Sequence[str], table: MultiplierTable) -> int | Fraction | None:
    # parse_number_words over tokens already casefold-normalized
    result = _parse_run(tokens, table)
    return result[0] if result is not None and result[1] == len(tokens) else None


def parse_amount_text(text: str, table: MultiplierTable) -> int | Fraction | None:
    """Parse one free-text amount ("₹5,00,000", "ఐదు లక్షల").

    Currency markers are stripped and ignored; the remaining tokens must
    form exactly one amount.
    """
    # the scoring tokens are casefolded already
    toks = [t for t in tokens_for_scoring(text) if t not in table.currency_markers]
    return _parse_words(toks, table)  # no tokens parse as no amount


def parse_currency_expression(text: str, table: MultiplierTable) -> list[int | Fraction]:
    """Scan text for the value of every maximal numeric expression, in order.

    Currency markers never change a value and act as transparent tokens.
    """
    toks = [t for t in tokens_for_scoring(text) if t not in table.currency_markers]
    amounts: list[int | Fraction] = []
    i = 0
    while i < len(toks):
        result = _parse_run(toks, table, i)
        if result is None:
            i += 1
            continue
        amounts.append(result[0])
        i += result[1]
    return amounts


# ---------------------------------------------------------------------------
# Spelling
# ---------------------------------------------------------------------------

def _spelling_word(table: MultiplierTable, value: int) -> str:
    word = table.spellings.get(value)
    if word is None:
        what = "multiplier" if value >= 1000 else "unit"
        raise ConfigurationError(f"table {table.language!r} has no {what} word for {value}; cannot spell")
    return word


def _spell(n: int, table: MultiplierTable) -> list[str]:
    # 1 <= n < 10**12: the largest scale n reaches, with its count and the rest
    # spelled by this same rule; below 100 the table's own word, else tens + ones
    for scale in (_CRORE, 10**5, 1000, 100):
        if n >= scale:
            count, rest = divmod(n, scale)
            return _spell(count, table) + [_spelling_word(table, scale)] + (_spell(rest, table) if rest else [])
    if n in table.spellings:
        return [table.spellings[n]]
    tens, ones = divmod(n, 10)
    if tens == 0 or ones == 0:
        raise ConfigurationError(f"table {table.language!r} has no unit word for {n}")
    return [_spelling_word(table, tens * 10), _spelling_word(table, ones)]


def spell_number(value: int, table: MultiplierTable) -> list[str]:
    """Spell a non-negative integer under Indian grouping.

    54235 -> ["fifty-four", "thousand", "two", "hundred", "thirty-five"].
    Values must be below 10**12.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"spell_number takes an int, got {type(value).__name__}")
    if not 0 <= value < _SPELL_LIMIT:
        raise ValueError(f"value {value} outside spellable range [0, 10^12)")
    return _spell(value, table) if value else [_spelling_word(table, 0)]


# ---------------------------------------------------------------------------
# Digit-run rewriting
# ---------------------------------------------------------------------------

def rewrite_digit_runs(text: str, table: MultiplierTable, mode: str = "grouped") -> str:
    """Replace every maximal ASCII digit run with its spelled-out form.

    ``grouped`` spells the run's value under Indian grouping, a Western- or
    Indian-grouped numeral ("50,000", "7,00,00,000") counting as one run;
    ``digit_by_digit`` emits one unit word per digit. Single digits become
    unit words in both modes. Runs with leading zeros ("054") and the
    digits after a decimal point ("2.50", but not "Rs.500") are spelled
    digit by digit even in grouped mode, since their value would silently
    drop the zeros or misread the fraction. A grouped run of 10**12 or more
    cannot be spelled and raises DataError.
    """
    if mode not in REWRITE_MODES:
        raise ConfigurationError(f"unknown rewrite mode {mode!r}; expected one of {REWRITE_MODES}")

    def replace(match: re.Match[str]) -> str:
        run, text, start = match.group().replace(",", ""), match.string, match.start()
        fraction = text[start - 1 : start] == "." and "0" <= text[start - 2 : start - 1] <= "9"
        if mode == "digit_by_digit" or len(run) == 1 or run[0] == "0" or fraction:
            return " ".join(_spelling_word(table, int(d)) for d in run)
        if int(run) >= _SPELL_LIMIT:
            raise DataError(f"digit run {match.group()} is too long to spell in grouped mode")
        return " ".join(spell_number(int(run), table))

    pattern = _GROUPED_RUN_RE if mode == "grouped" else _DIGIT_RUN_RE
    return pattern.sub(replace, nfkc_normalize(text))
