"""Command-line harness.

Verbs:
  score           score a prediction file against a holdout
  diagnose        decide whether script-fidelity adaptation is warranted
  compare         diff scorecards produced by `score`
  pipeline        corpus-construction steps (route, filter, split,
                  balance, validate, rewrite-digits)

Exit codes: 0 success, 1 usage/configuration error, 2 data error, 141 stdout closed.
All output is deterministic: the same inputs produce byte-identical files.

Each verb imports the modules it runs inside its own function, so that the
pipeline verbs load neither the scorer nor the number parser (only
rewrite-digits spells numbers). The pipeline steps live in `pipeline_cli`,
with the manifest I/O of `manifest`, so score, diagnose and compare compile
none of that code. Warnings are printed here, to stderr; the library does
not log.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from collections import Counter
from pathlib import Path

from . import corpus
from .errors import ConfigurationError, DataError, read_utf8
from .script import LANGUAGES, aggregate_sfr, sfr
from .textnorm import CURRENCY_MODES, NORM_MODES, REWRITE_MODES, norm_config_from_label

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE: how a shell reports a writer killed by it

FORMATS = ("table", "records", "csv")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for data
    # errors, so remap.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(fmt: str, table, records, rows=None) -> None:
    """Print a verb's result as ``--format`` ``fmt`` asks, as it goes: the lines ``table()``
    returns, ``records`` as sorted-key JSON lines, or ``rows`` (else ``records``) as CSV
    headed by the first row's keys. Each argument is read only in its own format."""
    if fmt == "csv":
        rows = iter(records if rows is None else rows)
        first = next(rows, None)
        if first is None:  # no rows, no header
            return
        import csv
        from types import SimpleNamespace

        # writerow returns what its file's write returns: here the row's line, less its end
        writer = csv.DictWriter(SimpleNamespace(write=lambda line: line[:-1]), list(first), lineterminator="\n")
        lines = itertools.chain([writer.writeheader(), writer.writerow(first)], map(writer.writerow, rows))
    else:
        lines = iter(table()) if fmt == "table" else map(corpus.encode_sorted, records)
    while block := list(itertools.islice(lines, 64)):  # 64 lines a write, also on an unbuffered stdout
        print("\n".join(block))


def _warn(source: str, message: str) -> None:
    print(f"WARNING indicscore.{source}: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def cmd_score(args: argparse.Namespace) -> None:
    from . import scorecard
    from .matchers import AliasTable, ScoringConfig
    from .numbers import load_lexicon

    rows = corpus.load_holdout(args.holdout)
    predictions = corpus.load_predictions(args.predictions)
    if args.system is not None:
        predictions = [p for p in predictions if p.system == args.system]
        if not predictions:
            raise DataError(f"no predictions for system {args.system!r}")
    systems = sorted({p.system for p in predictions})
    if len(systems) > 1:
        raise DataError(f"predictions file mixes systems {systems}; pick one with --system")
    system = systems[0] if systems else ""

    aliases = AliasTable.from_file(args.aliases) if args.aliases else None
    tables = {args.lang: load_lexicon(args.lexicon, args.lang)} if args.lexicon else {}
    config = ScoringConfig(
        language=args.lang,
        currency_mode=args.currency_mode,
        aliases=aliases,
        tables=tables,
    )
    card, details = scorecard.score_predictions(
        rows,
        predictions,
        language=args.lang,
        system=system,
        holdout_name=args.holdout_name or Path(args.holdout).stem,
        config=config,
        normalization=norm_config_from_label(args.normalization),
    )
    # One line per brand surface that fell back to matching itself.
    unlisted = Counter(
        m.surface
        for detail in details
        for m in detail.matches
        if m.matcher_class == "brand" and (aliases is None or aliases.lookup(m.surface) is None)
    )
    for surface, count in unlisted.items():
        _warn(
            "matchers",
            f"brand {surface!r} has no alias entry; matching on its own surface only"
            f" ({count} token{'' if count == 1 else 's'})",
        )
    record = scorecard.scorecard_record(card)

    scorecard.write_score_outputs(
        record,
        details,
        args.out or Path(args.predictions).with_suffix(".scorecard.json"),
        args.detail or Path(args.predictions).with_suffix(".detail.jsonl"),
    )
    _emit(args.format, lambda: [scorecard.render_scorecard(card)], [record], [scorecard.flatten_scorecard(record)])


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def _parse_named_value(option: str, taken=()) -> tuple[str, str]:
    """The NAME and VALUE of a NAME=VALUE option whose NAME is not in ``taken``."""
    name, sep, value = option.partition("=")
    if not sep or not name or not value:
        raise ConfigurationError(f"expected NAME=VALUE, got {option!r}")
    if name in taken:
        raise ConfigurationError(f"name {name!r} is given twice")
    return name, value


def cmd_diagnose(args: argparse.Namespace) -> None:
    from . import scorecard

    names: set[str] = set()  # each holdout once, checked before any file is read
    for option in (args.sfr or []) + (args.transcripts or []):
        names.add(_parse_named_value(option, names)[0])
    per_holdout: dict[str, float] = {}
    for option in args.sfr or ():
        name, raw = _parse_named_value(option)
        try:
            per_holdout[name] = float(raw)
        except ValueError:
            raise ConfigurationError(f"--sfr {option!r}: {raw!r} is not a number") from None
    for option in args.transcripts or ():
        name, path = _parse_named_value(option)
        lines = [l for l in read_utf8(path).splitlines() if l.strip()]
        if not lines:
            raise DataError(f"transcript file {path} is empty")
        pooled = aggregate_sfr(sfr(line, args.lang) for line in lines).value
        if pooled is None:
            raise DataError(f"transcript file {path} has no letters; SFR undefined")
        per_holdout[name] = pooled
    verdict = scorecard.diagnose(per_holdout, args.lang)
    language, sfrs, decision = verdict.language, verdict.per_holdout_sfr, verdict.verdict
    _emit(
        args.format,
        lambda: [scorecard.render_verdict(verdict)],
        [{"language": language, "per_holdout_sfr": sfrs, "verdict": decision}],
        [
            {"language": language, "holdout": name, "sfr": value, "verdict": decision}
            for name, value in sfrs.items()
        ],
    )


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args: argparse.Namespace) -> None:
    from . import scorecard

    baseline = scorecard.load_scorecard_record(args.baseline)
    candidates = [scorecard.load_scorecard_record(p) for p in args.scorecards]
    comparisons = scorecard.compare_records(baseline, candidates)
    _emit(
        args.format,
        lambda: [scorecard.render_comparison(comparisons)],
        comparisons,
        (
            {
                "system": comp["system"],
                "baseline": comp["baseline"],
                **{f"delta_{k}": v for k, v in comp["deltas"].items()},
                "ehr_micro_ratio": comp["ehr_micro_ratio"],
            }
            for comp in comparisons
        ),
    )


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def cmd_pipeline(args: argparse.Namespace) -> None:
    # The steps live in their own module, which score, diagnose and compare never load.
    from . import pipeline_cli

    getattr(pipeline_cli, "cmd_pipeline_" + args.step.replace("-", "_"))(args)


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="indicscore", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="table", help="stdout format")

    p_score = sub.add_parser("score", help="score predictions against a holdout")
    p_score.add_argument("--holdout", required=True, help="holdout JSONL file")
    p_score.add_argument("--predictions", required=True, help="predictions JSONL file")
    p_score.add_argument("--lang", required=True, choices=LANGUAGES, help="holdout language")
    p_score.add_argument("--system", help="system name to select from the predictions file")
    p_score.add_argument("--holdout-name", help="label for the scorecard (default: file stem)")
    p_score.add_argument("--aliases", help="brand alias table (TSV: canonical, aliases...)")
    p_score.add_argument("--lexicon", help="number lexicon overriding the bundled one")
    p_score.add_argument("--currency-mode", choices=CURRENCY_MODES, default="strict")
    p_score.add_argument("--normalization", choices=NORM_MODES, default="default")
    p_score.add_argument("--out", help="scorecard JSON path (default: <predictions>.scorecard.json)")
    p_score.add_argument("--detail", help="per-utterance JSONL path (default: <predictions>.detail.jsonl)")
    add_format(p_score)
    p_score.set_defaults(func=cmd_score)

    p_diag = sub.add_parser("diagnose", help="script-fidelity adaptation diagnostic")
    p_diag.add_argument("--lang", required=True, choices=LANGUAGES)
    p_diag.add_argument(
        "--sfr", action="append", metavar="NAME=VALUE", help="precomputed SFR for one holdout"
    )
    p_diag.add_argument(
        "--transcripts",
        action="append",
        metavar="NAME=PATH",
        help="plain-text transcripts (one utterance per line) to compute SFR from",
    )
    add_format(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)

    p_cmp = sub.add_parser("compare", help="diff scorecards against a baseline")
    p_cmp.add_argument("--baseline", required=True, help="baseline scorecard JSON")
    p_cmp.add_argument("scorecards", nargs="+", help="candidate scorecard JSON files")
    add_format(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_pipe = sub.add_parser("pipeline", help="corpus-construction steps")
    pipe_sub = p_pipe.add_subparsers(dest="step", required=True)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_route = pipe_sub.add_parser("route", help="assign synthesis backends")
    p_route.add_argument("--manifest", required=True)
    p_route.add_argument("--out", required=True)
    p_route.add_argument("--seed", type=int, default=0)
    p_route.add_argument("--weights", help="override weights, e.g. praxy=0.6,elevenlabs=0.2,cartesia=0.2")

    p_filter = pipe_sub.add_parser("filter", help="gate rows on round-trip CER")
    p_filter.add_argument("--manifest", required=True)
    p_filter.add_argument("--out", required=True, help="accepted rows")
    p_filter.add_argument("--rejected", help="optional path for rejected rows")
    p_filter.add_argument("--threshold", type=float, default=0.5)

    p_split = pipe_sub.add_parser("split", help="split held-out engine rows from training rows")
    p_split.add_argument("--manifest", required=True)
    p_split.add_argument("--out-train", required=True)
    p_split.add_argument("--out-heldout", required=True)

    p_bal = pipe_sub.add_parser("balance", help="seeded per-class downsample")
    p_bal.add_argument("--manifest", required=True)
    p_bal.add_argument("--out", required=True)
    p_bal.add_argument("--per-class", type=int, required=True)
    p_bal.add_argument("--seed", type=int, default=0)

    p_val = pipe_sub.add_parser("validate", help="report corpus-row violations")
    p_val.add_argument("--manifest", required=True)
    p_val.add_argument("--purity-threshold", type=float, default=0.8)
    add_format(p_val)

    p_rw = pipe_sub.add_parser("rewrite-digits", help="spell out digit runs for synthesis")
    p_rw.add_argument("--manifest", required=True)
    p_rw.add_argument("--out", required=True)
    p_rw.add_argument("--mode", choices=REWRITE_MODES, default="grouped")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # raised by --help (0) and by _Parser.error (1)
        return int(exc.code or 0)
    try:
        args.func(args)  # a verb fails by raising; it returns nothing
        return EXIT_OK
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        raise  # a reader that closed stdout is not a data error; see entrypoint
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    try:
        code = main()
        if sys.stdout is not None:  # None when the call started with stdout closed
            sys.stdout.flush()  # so that a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:
        # The reader closed stdout (`| head`) after every output file was committed:
        # end silently, as a writer killed by SIGPIPE does, and send later writes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
