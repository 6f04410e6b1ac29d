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

Values are exact rationals (fractions.Fraction), so decimal amounts
like "1.5 lakh" carry no floating-point error into tolerance checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ConfigurationError, DataError, read_utf8
from .textnorm import casefold_normalize, nfkc_normalize, tokenize

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


@dataclass(frozen=True)
class ParsedAmount:
    """One parsed amount.

    ``span`` is a half-open index range into whatever the parse consumed:
    characters for `parse_latin_numeral`, tokens for the word-level parsers.
    """

    value: Fraction
    span: tuple[int, int]
    source_form: str  # "latin_numeral" | "word_sequence" | "mixed"


def parse_latin_numeral(text: str) -> ParsedAmount | None:
    """Parse one Latin numeral with optional grouping and decimal point.

    Comma placement must follow either the Western or the Indian
    convention; anything else (e.g. "5,0,0") is rejected.
    """
    s = nfkc_normalize(text)
    if not _NUMERAL_RE.fullmatch(s):
        return None
    return ParsedAmount(Fraction(s.replace(",", "")), (0, len(text)), "latin_numeral")


# ---------------------------------------------------------------------------
# Multiplier tables
# ---------------------------------------------------------------------------

LEXICON_KINDS = ("unit", "multiplier", "currency_marker")
LEXICON_SCRIPTS = ("latin", "native")


def _is_power_of_ten(n: int) -> bool:
    while n % 10 == 0 and n > 1:
        n //= 10
    return n == 1


@dataclass(frozen=True)
class MultiplierTable:
    """Number vocabulary for one language.

    ``units`` maps words to 0..99 plus the hundred word (value 100);
    ``multipliers`` maps words to powers of ten >= 1000. The first word
    loaded for a value becomes its canonical spelling.
    """

    language: str
    units: Mapping[str, int]
    multipliers: Mapping[str, int]
    currency_markers: frozenset[str]
    spell_units: Mapping[int, str] = field(repr=False)
    spell_multipliers: Mapping[int, str] = field(repr=False)

    @classmethod
    def from_entries(
        cls, language: str, entries: Iterable[tuple[str, int, str, str]]
    ) -> "MultiplierTable":
        units: dict[str, int] = {}
        multipliers: dict[str, int] = {}
        markers: set[str] = set()
        spell_units: dict[int, str] = {}
        spell_multipliers: dict[int, str] = {}
        for word, value, kind, script in entries:
            if script not in LEXICON_SCRIPTS:
                raise ConfigurationError(f"unknown lexicon script {script!r} for word {word!r}")
            w = casefold_normalize(word).strip()
            if not w or " " in w:
                raise ConfigurationError(f"lexicon word {word!r} must be one non-empty token")
            if w in units or w in multipliers or w in markers:
                raise ConfigurationError(f"duplicate lexicon word {word!r} in table {language!r}")
            if kind == "unit":
                if not (0 <= value <= 100):
                    raise ConfigurationError(f"unit {word!r} has value {value}, outside 0..100")
                units[w] = value
                spell_units.setdefault(value, w)
            elif kind == "multiplier":
                if value < 1000 or not _is_power_of_ten(value):
                    raise ConfigurationError(
                        f"multiplier {word!r} has value {value}; expected a power of 10 >= 1000"
                    )
                multipliers[w] = value
                spell_multipliers.setdefault(value, w)
            elif kind == "currency_marker":
                markers.add(w)
            else:
                raise ConfigurationError(f"unknown lexicon kind {kind!r} for word {word!r}")
        return cls(
            language=language,
            units=units,
            multipliers=multipliers,
            currency_markers=frozenset(markers),
            spell_units=spell_units,
            spell_multipliers=spell_multipliers,
        )

    def merged_with(self, other: "MultiplierTable") -> "MultiplierTable":
        """This table extended with ``other``'s words; own entries win.

        A word mapped to two different values is a real conflict and raises.
        Spelling stays canonical to this table wherever it has a word.
        """
        units = dict(self.units)
        multipliers = dict(self.multipliers)
        for word, value in other.units.items():
            if units.get(word, value) != value or word in multipliers:
                raise ConfigurationError(f"conflicting value for word {word!r} in merged table")
            units.setdefault(word, value)
        for word, value in other.multipliers.items():
            if multipliers.get(word, value) != value or word in units:
                raise ConfigurationError(f"conflicting value for word {word!r} in merged table")
            multipliers.setdefault(word, value)
        spell_units = dict(other.spell_units)
        spell_units.update(self.spell_units)
        spell_multipliers = dict(other.spell_multipliers)
        spell_multipliers.update(self.spell_multipliers)
        return MultiplierTable(
            language=self.language,
            units=units,
            multipliers=multipliers,
            currency_markers=self.currency_markers | other.currency_markers,
            spell_units=spell_units,
            spell_multipliers=spell_multipliers,
        )


def load_lexicon(path: str | Path, language: str | None = None) -> MultiplierTable:
    """Load a tab-separated lexicon file.

    One record per line: word, value, kind (unit|multiplier|currency_marker),
    script (latin|native). '#' starts a comment; blank lines are skipped.
    The value field is ignored for currency markers.
    """
    path = Path(path)
    entries: list[tuple[str, int, str, str]] = []
    problems: list[str] = []
    for lineno, line in enumerate(read_utf8(path).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) != 4:
            problems.append(f"line {lineno}: expected 4 tab-separated fields, got {len(fields)}")
            continue
        word, raw_value, kind, script = fields
        if kind not in LEXICON_KINDS:
            problems.append(f"line {lineno}: unknown kind {kind!r}; expected one of {LEXICON_KINDS}")
            continue
        if script not in LEXICON_SCRIPTS:
            problems.append(
                f"line {lineno}: unknown script {script!r}; expected one of {LEXICON_SCRIPTS}"
            )
            continue
        if kind == "currency_marker":
            value = 0
        else:
            try:
                value = int(raw_value)
            except ValueError:
                problems.append(f"line {lineno}: value {raw_value!r} is not an integer")
                continue
        entries.append((word, value, kind, script))
    if problems:
        raise DataError(f"malformed lexicon {path}", problems)
    try:
        return MultiplierTable.from_entries(language or path.stem, entries)
    except ConfigurationError as exc:
        raise DataError(f"invalid lexicon {path}: {exc}") from exc


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
    if language not in ("te", "ta", "hi"):
        raise ConfigurationError(f"no bundled number lexicon for language {language!r}")
    lexicons = resources.files("indicscore").joinpath("data", "lexicons")
    with resources.as_file(lexicons.joinpath(f"{language}.tsv")) as path:
        return load_lexicon(path, language)


# ---------------------------------------------------------------------------
# Word-sequence parsing
# ---------------------------------------------------------------------------

def _parse_run(tokens: Sequence[str], table: MultiplierTable) -> tuple[Fraction, int, str] | None:
    """Parse the longest valid prefix of ``tokens`` as one amount.

    Returns (value, tokens consumed, source form) or None. Tokens must
    already be casefold-normalized.
    """
    groups_total = Fraction(0)
    last_mult: int | None = None
    current = Fraction(0)
    has_current = False
    used_word = used_numeral = False
    best: tuple[Fraction, int, str] | None = None

    for i, tok in enumerate(tokens):
        unit = table.units.get(tok)
        mult = table.multipliers.get(tok)
        numeral = None
        if unit is None and mult is None:
            numeral = parse_latin_numeral(tok)

        if unit is not None:
            if unit == 100:
                # the hundred word scales a pending 1..99 count
                if not has_current or current.denominator != 1 or not 1 <= current <= 99:
                    break
                current *= 100
            elif not has_current:
                current = Fraction(unit)
                has_current = True
            elif current.denominator != 1:
                break
            elif current >= 100 and current % 100 == 0 and 1 <= unit <= 99:
                current += unit  # "two hundred" + "thirty-five"
            elif current % 10 == 0 and 20 <= current % 100 <= 90 and 1 <= unit <= 9:
                current += unit  # "twenty" + "one"
            else:
                break
            used_word = True
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
            current = Fraction(0)
            has_current = False
            used_word = True
        elif numeral is not None:
            if has_current:
                break  # two numerals never fuse into one amount
            current = numeral.value
            has_current = True
            used_numeral = True
        else:
            break

        # snapshot whenever the expression could legally end here
        if (has_current or last_mult is not None) and (last_mult is None or current < last_mult):
            form = "mixed" if used_word and used_numeral else (
                "word_sequence" if used_word else "latin_numeral"
            )
            best = (groups_total + current, i + 1, form)

    return best


def parse_number_words(tokens: Sequence[str], table: MultiplierTable) -> ParsedAmount | None:
    """Parse a whole token sequence as one amount, or None.

    Trailing tokens that are not part of the amount make the parse fail;
    use `parse_currency_expression` to scan free text instead.
    """
    norm = [casefold_normalize(t) for t in tokens]
    result = _parse_run(norm, table)
    if result is None or result[1] != len(norm):
        return None
    value, consumed, form = result
    return ParsedAmount(value, (0, consumed), form)


def parse_amount_text(text: str, table: MultiplierTable) -> ParsedAmount | None:
    """Parse one free-text amount ("₹5,00,000", "ఐదు లక్షల").

    Currency markers are stripped and ignored; the remaining tokens must
    form exactly one amount.
    """
    toks = [
        t for t in tokenize(casefold_normalize(text)) if t not in table.currency_markers
    ]
    if not toks:
        return None
    return parse_number_words(toks, table)


def parse_currency_expression(text: str, table: MultiplierTable) -> list[ParsedAmount]:
    """Scan text for every maximal numeric expression, in order.

    Currency markers never change a value and act as transparent tokens.
    Spans index into the marker-filtered token sequence.
    """
    return _scan_amounts(tokenize(casefold_normalize(text)), table)


def _scan_amounts(tokens: Iterable[str], table: MultiplierTable) -> list[ParsedAmount]:
    # The scan of parse_currency_expression over casefold-normalized tokens.
    toks = [t for t in tokens if t not in table.currency_markers]
    amounts: list[ParsedAmount] = []
    i = 0
    while i < len(toks):
        result = _parse_run(toks[i:], table)
        if result is None:
            i += 1
            continue
        value, consumed, form = result
        amounts.append(ParsedAmount(value, (i, i + consumed), form))
        i += consumed
    return amounts


# ---------------------------------------------------------------------------
# Spelling
# ---------------------------------------------------------------------------

def _spelling_word(table: MultiplierTable, value: int, what: str) -> str:
    words = table.spell_units if what == "unit" else table.spell_multipliers
    word = words.get(value)
    if word is None:
        raise ConfigurationError(
            f"table {table.language!r} has no {what} word for {value}; cannot spell"
        )
    return word


def _spell_small(n: int, table: MultiplierTable) -> list[str]:
    # 1..99: a single word when the table has one, else tens + ones.
    if n in table.spell_units:
        return [table.spell_units[n]]
    tens, ones = divmod(n, 10)
    if tens == 0 or ones == 0:
        raise ConfigurationError(f"table {table.language!r} has no unit word for {n}")
    return [_spelling_word(table, tens * 10, "unit"), _spelling_word(table, ones, "unit")]


def _spell_count(n: int, table: MultiplierTable) -> list[str]:
    # 1..99999, the count in front of one multiplier.
    words: list[str] = []
    if n >= 1000:
        q, n = divmod(n, 1000)
        words += _spell_small(q, table) + [_spelling_word(table, 1000, "multiplier")]
    if n >= 100:
        q, n = divmod(n, 100)
        words += _spell_small(q, table) + [_spelling_word(table, 100, "unit")]
    if n:
        words += _spell_small(n, table)
    return words


def spell_number(value: int, table: MultiplierTable) -> list[str]:
    """Spell a non-negative integer under Indian grouping.

    54235 -> ["fifty-four", "thousand", "two", "hundred", "thirty-five"].
    Values must be below 10**12.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"spell_number takes an int, got {type(value).__name__}")
    if not 0 <= value < _SPELL_LIMIT:
        raise ValueError(f"value {value} outside spellable range [0, 10^12)")
    if value == 0:
        return [_spelling_word(table, 0, "unit")]
    words: list[str] = []
    n = value
    for mult in (10**7, 10**5, 10**3):
        if n >= mult:
            q, n = divmod(n, mult)
            words += _spell_count(q, table) + [_spelling_word(table, mult, "multiplier")]
    if n >= 100:
        q, n = divmod(n, 100)
        words += _spell_small(q, table) + [_spelling_word(table, 100, "unit")]
    if n:
        words += _spell_small(n, table)
    return words


# ---------------------------------------------------------------------------
# Digit-run rewriting
# ---------------------------------------------------------------------------

REWRITE_MODES = ("grouped", "digit_by_digit")


def rewrite_digit_runs(text: str, table: MultiplierTable, mode: str = "grouped") -> str:
    """Replace every maximal ASCII digit run with its spelled-out form.

    ``grouped`` spells the run's value under Indian grouping;
    ``digit_by_digit`` emits one unit word per digit. Single digits become
    unit words in both modes. Runs with leading zeros ("054") are spelled
    digit by digit even in grouped mode, since their value would silently
    drop the zeros. A grouped run of 10**12 or more cannot be spelled and
    raises DataError.
    """
    if mode not in REWRITE_MODES:
        raise ConfigurationError(f"unknown rewrite mode {mode!r}; expected one of {REWRITE_MODES}")

    def replace(match: re.Match[str]) -> str:
        run = match.group()
        if mode == "digit_by_digit" or len(run) == 1 or run[0] == "0":
            return " ".join(_spelling_word(table, int(d), "unit") for d in run)
        if int(run) >= _SPELL_LIMIT:
            raise DataError(f"digit run {run} is too long to spell in grouped mode")
        return " ".join(spell_number(int(run), table))

    return _DIGIT_RUN_RE.sub(replace, nfkc_normalize(text))
