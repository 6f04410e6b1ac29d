"""Entity-aware evaluation toolkit for Indic ASR outputs.

The library answers two questions about a transcription system: how close
is the hypothesis to the reference overall (WER, CER), and did the parts
that carry real-world consequence survive (entity hit rate over digits,
currency amounts, brands, proper nouns, addresses, spelled-out numbers),
plus whether the output stayed in the expected script (script fidelity
rate).  A small pipeline layer covers deterministic corpus construction:
synthesis-backend routing, round-trip CER gating, held-out engine splits,
class balancing, and digit-run spelling.

The names below load lazily (PEP 562): ``import indicscore`` imports no
submodule, and reading a name imports only the module that defines it, so
a CLI verb loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# The module that defines each public name.
_EXPORTS = {
    "corpus": ("EntityToken", "MATCHER_CLASSES"),
    "distance": ("ErrorRate", "cer", "levenshtein", "wer"),
    "errors": ("ConfigurationError", "DataError", "ReferenceDataError"),
    "matchers": (
        "AliasTable", "CURRENCY_TOLERANCE_DIVISOR", "EhrReport", "MatchResult", "ScoringConfig",
        "aggregate_ehr", "lcs_length", "score_utterance",
    ),
    "numbers": (
        "MultiplierTable", "load_language_table", "load_lexicon",
        "parse_amount_text", "parse_currency_expression", "parse_latin_numeral",
        "parse_number_words", "rewrite_digit_runs", "spell_number",
    ),
    "script": (
        "LANGUAGES", "SCRIPT_BLOCKS", "SfrResult", "aggregate_sfr", "script_block",
        "script_purity_check", "sfr",
    ),
    "scorecard": (
        "DiagnosticVerdict", "Scorecard", "UtteranceDetail", "compare_records", "diagnose",
        "flatten_scorecard", "load_scorecard_record", "render_comparison", "render_scorecard",
        "render_verdict", "score_predictions", "scorecard_record", "write_score_outputs",
    ),
    "textnorm": (
        "CURRENCY_MODES", "DEFAULT_NORM", "STRICT_NORM", "NormConfig", "casefold_normalize",
        "collapse_whitespace", "nfkc_normalize", "tokenize",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
