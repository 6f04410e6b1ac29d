"""Entity-aware evaluation toolkit for Indic ASR outputs.

The library answers two questions about a transcription system: how close
is the hypothesis to the reference overall (WER, CER), and did the parts
that carry real-world consequence survive (entity hit rate over digits,
currency amounts, brands, proper nouns, addresses, spelled-out numbers),
plus whether the output stayed in the expected script (script fidelity
rate).  A small pipeline layer covers deterministic corpus construction:
synthesis-backend routing, round-trip CER gating, held-out engine splits,
class balancing, and digit-run spelling.
"""

from .distance import ErrorRate, cer, levenshtein, wer
from .errors import ConfigurationError, DataError, ReferenceDataError
from .matchers import (
    CURRENCY_MODES,
    CURRENCY_TOLERANCE,
    MATCHER_CLASSES,
    AliasTable,
    EhrReport,
    EntityToken,
    MatchResult,
    ScoringConfig,
    aggregate_ehr,
    lcs_length,
    score_utterance,
)
from .numbers import (
    MultiplierTable,
    ParsedAmount,
    load_language_table,
    load_lexicon,
    parse_amount_text,
    parse_currency_expression,
    parse_latin_numeral,
    parse_number_words,
    rewrite_digit_runs,
    spell_number,
)
from .script import (
    LANGUAGES,
    SCRIPT_BLOCKS,
    SfrResult,
    aggregate_sfr,
    script_block,
    script_purity_check,
    sfr,
)
from .scorecard import (
    DiagnosticVerdict,
    Scorecard,
    UtteranceDetail,
    compare_records,
    diagnose,
    render_comparison,
    render_scorecard,
    render_verdict,
    score_predictions,
    scorecard_record,
)
from .textnorm import (
    DEFAULT_NORM,
    STRICT_NORM,
    NormConfig,
    casefold_normalize,
    collapse_whitespace,
    nfkc_normalize,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "AliasTable",
    "CURRENCY_MODES",
    "CURRENCY_TOLERANCE",
    "ConfigurationError",
    "DEFAULT_NORM",
    "DataError",
    "DiagnosticVerdict",
    "EhrReport",
    "EntityToken",
    "ErrorRate",
    "LANGUAGES",
    "MATCHER_CLASSES",
    "MatchResult",
    "MultiplierTable",
    "NormConfig",
    "ParsedAmount",
    "ReferenceDataError",
    "SCRIPT_BLOCKS",
    "STRICT_NORM",
    "Scorecard",
    "ScoringConfig",
    "SfrResult",
    "UtteranceDetail",
    "aggregate_ehr",
    "aggregate_sfr",
    "casefold_normalize",
    "cer",
    "collapse_whitespace",
    "compare_records",
    "diagnose",
    "lcs_length",
    "levenshtein",
    "load_language_table",
    "load_lexicon",
    "nfkc_normalize",
    "parse_amount_text",
    "parse_currency_expression",
    "parse_latin_numeral",
    "parse_number_words",
    "render_comparison",
    "render_scorecard",
    "render_verdict",
    "rewrite_digit_runs",
    "scorecard_record",
    "score_predictions",
    "score_utterance",
    "script_block",
    "script_purity_check",
    "sfr",
    "spell_number",
    "tokenize",
    "wer",
    "__version__",
]
