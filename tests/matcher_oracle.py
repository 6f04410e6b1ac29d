"""A naive restatement of the entity-class rules in `indicscore.matchers`.

Each function restates one rule of the `matchers` docstring with plain
loops, `unicodedata` and `re`, and shares no helper with the package, so
that a differential test against `score_utterance` checks the rule and
not the scorer against itself. An oracle may take data as input: the
brand alias groups, and a number table's ``units`` mapping.

`currency_amount` has no oracle yet: it needs a number grammar of its own.
"""

import re
import unicodedata


class NoReference(Exception):
    """The reference surface offers nothing its class rule can compare."""


def ascii_digits(text):
    """Every decimal digit (category Nd) of any script as its ASCII digit."""
    return "".join(
        str(unicodedata.decimal(ch)) if unicodedata.category(ch) == "Nd" else ch for ch in text
    )


def words(text):
    """The casefolded words of text, its digits read as ASCII digits.

    NFKC, casefold and NFKC again; split at whitespace; punctuation and
    symbols (categories P* and S*) stripped from each piece's two ends;
    pieces left empty dropped.
    """
    text = unicodedata.normalize("NFKC", unicodedata.normalize("NFKC", ascii_digits(text)).casefold())
    out = []
    for piece in text.split():
        while piece and unicodedata.category(piece[0])[0] in "PS":
            piece = piece[1:]
        while piece and unicodedata.category(piece[-1])[0] in "PS":
            piece = piece[:-1]
        if piece:
            out.append(piece)
    return out


def contains(haystack, needle):
    """Whether needle occurs in haystack as consecutive items; an empty
    needle never does."""
    if not needle:
        return False
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i : i + len(needle)] == needle:
            return True
    return False


def digit_blocks(text):
    """Every string the digit_run rule offers in text.

    Digits (after NFKC) with at most one space or comma between them form a
    run; the spaces cut it into groups; neighbouring one-digit groups are
    one block; any stretch of consecutive blocks is offered.
    """
    text = unicodedata.normalize("NFKC", text)
    offered = set()
    i = 0
    while i < len(text):
        if text[i] not in "0123456789":
            i += 1
            continue
        groups = [text[i]]
        i += 1
        while i < len(text):
            if text[i] in "0123456789":
                groups[-1] += text[i]
                i += 1
            elif text[i] in " ," and i + 1 < len(text) and text[i + 1] in "0123456789":
                if text[i] == " ":
                    groups.append("")
                i += 1
            else:
                break
        blocks = []
        for n, group in enumerate(groups):
            if len(group) == 1 and n > 0 and len(groups[n - 1]) == 1:
                blocks[-1] += group
            else:
                blocks.append(group)
        for start in range(len(blocks)):
            for end in range(start + 1, len(blocks) + 1):
                offered.add("".join(blocks[start:end]))
    return offered


def brand_hit(surface, hypothesis, groups):
    """Some alias of the surface's group, or the surface itself when no
    group lists it, occurs in the hypothesis as whole words.

    A group lists a surface when one of its entries equals it casefolded,
    both read with ASCII digits; the first such group counts.
    """
    def key(text):
        return unicodedata.normalize("NFKC", unicodedata.normalize("NFKC", ascii_digits(text)).casefold())

    aliases = [surface]
    for group in groups:
        if key(surface) in [key(entry) for entry in group]:
            aliases = list(group)
            break
    hyp = words(hypothesis)
    return any(contains(hyp, words(alias)) for alias in aliases)


def proper_noun_hit(surface, hypothesis):
    """The set of the surface's k distinct words has Jaccard similarity of at
    least 4/5 with the word set of some window of k-1, k or k+1
    consecutive hypothesis words (never fewer than one)."""
    ref = set(words(surface))
    if not ref:
        raise NoReference(surface)
    hyp = words(hypothesis)
    k = len(ref)
    for width in (k - 1, k, k + 1):
        if width < 1:
            continue
        for start in range(len(hyp) - width + 1):
            window = set(hyp[start : start + width])
            if 5 * len(ref & window) >= 4 * len(ref | window):
                return True
    return False


def spoken_digits(text, units):
    """The digits text says, in order: a word of ASCII digits says itself,
    and a number word of value 0 to 99 says its value; other words say none."""
    said = ""
    for word in words(text):
        if re.fullmatch("[0-9]+", word):
            said += word
        elif word in units and units[word] <= 99:
            said += str(units[word])
    return said


def longest_common_subsequence(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a)):
        for j in range(len(b)):
            if a[i] == b[j]:
                table[i + 1][j + 1] = table[i][j] + 1
            else:
                table[i + 1][j + 1] = max(table[i][j + 1], table[i + 1][j])
    return table[len(a)][len(b)]


def spelled_digit_hit(surface, hypothesis, units):
    """The hypothesis says at least 4/5 of the surface's digits in order
    (their longest common subsequence)."""
    ref = spoken_digits(surface, units)
    if not ref:
        raise NoReference(surface)
    return 5 * longest_common_subsequence(ref, spoken_digits(hypothesis, units)) >= 4 * len(ref)


def house_or_plot_hit(surface, hypothesis):
    """The surface's words occur in the hypothesis as consecutive words."""
    ref = words(surface)
    if not ref:
        raise NoReference(surface)
    return contains(words(hypothesis), ref)
