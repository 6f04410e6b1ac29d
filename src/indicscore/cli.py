"""Command-line harness.

Verbs:
  score           score a prediction file against a holdout
  diagnose        decide whether script-fidelity adaptation is warranted
  compare         diff scorecards produced by `score`
  pipeline        corpus-construction steps (route, filter, split,
                  balance, validate, rewrite-digits)

Exit codes: 0 success, 1 usage/configuration error, 2 data error.
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
import io
import json
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

FORMATS = ("table", "records", "csv")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for data
    # errors, so remap.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _dump_json(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def _print_records(records: list[dict]) -> None:
    for record in records:
        print(json.dumps(record, ensure_ascii=False, sort_keys=True))


def _print_csv(rows: list[dict]) -> None:
    if not rows:
        return
    import csv

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    print(buffer.getvalue(), end="")


def _warn(source: str, message: str) -> None:
    print(f"WARNING indicscore.{source}: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def _flatten_scorecard(record: dict) -> dict:
    from . import scorecard

    flat = {key: record[key] for key in ("system", "holdout", "language", "n")}
    flat.update(scorecard._metric_values(record))
    for cls, tally in record["ehr"]["per_class"].items():
        flat[f"ehr[{cls}]"] = tally["rate"]
    return flat


def cmd_score(args: argparse.Namespace) -> int:
    from . import scorecard
    from .matchers import AliasTable, ScoringConfig
    from .numbers import load_lexicon

    rows = corpus.load_holdout(args.holdout)
    predictions = corpus.load_predictions(args.predictions)
    systems = sorted({p.system for p in predictions})
    if args.system is not None:
        predictions = [p for p in predictions if p.system == args.system]
        if not predictions:
            raise DataError(f"no predictions for system {args.system!r}")
        system = args.system
    elif len(systems) > 1:
        raise DataError(
            f"predictions file mixes systems {systems}; pick one with --system"
        )
    else:
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

    out_path = args.out or Path(args.predictions).with_suffix(".scorecard.json")
    detail_path = args.detail or Path(args.predictions).with_suffix(".detail.jsonl")
    detail_lines = []
    for detail in details:
        detail_lines.append(
            json.dumps(
                {
                    "id": detail.id,
                    "wer": detail.wer,
                    "cer": detail.cer,
                    "sfr": detail.sfr,
                    "entities": [
                        {
                            "surface": m.surface,
                            "matcher_class": m.matcher_class,
                            "hit": m.hit,
                            "detail": m.detail,
                        }
                        for m in detail.matches
                    ],
                },
                ensure_ascii=False,
                sort_keys=True,
            )
        )
    # both files are renamed into place only once both are written
    with corpus.replacing(out_path, detail_path) as (card_file, detail_file):
        card_file.handle.write(_dump_json(record))
        detail_file.handle.write("\n".join(detail_lines) + ("\n" if detail_lines else ""))

    if args.format == "table":
        print(scorecard.render_scorecard(card))
    elif args.format == "records":
        _print_records([record])
    else:
        _print_csv([_flatten_scorecard(record)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def _parse_named_value(option: str) -> tuple[str, str]:
    name, sep, value = option.partition("=")
    if not sep or not name or not value:
        raise ConfigurationError(f"expected NAME=VALUE, got {option!r}")
    return name, value


def cmd_diagnose(args: argparse.Namespace) -> int:
    from . import scorecard

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
    if args.format == "records":
        _print_records(
            [
                {
                    "language": verdict.language,
                    "per_holdout_sfr": verdict.per_holdout_sfr,
                    "verdict": verdict.verdict,
                }
            ]
        )
    elif args.format == "csv":
        _print_csv(
            [
                {"language": verdict.language, "holdout": name, "sfr": value, "verdict": verdict.verdict}
                for name, value in verdict.per_holdout_sfr.items()
            ]
        )
    else:
        print(scorecard.render_verdict(verdict))
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _load_scorecard_record(path: str) -> dict:
    from . import scorecard

    try:
        record = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"scorecard {path} is not valid JSON ({exc.msg})") from exc
    try:
        values = scorecard._metric_values(record).values()
        valid = all(v is None or type(v) in (int, float) for v in values)
    except (KeyError, TypeError):
        valid = False
    if not valid:
        raise DataError(
            f"scorecard {path} needs a number or null at each of wer.rate, cer.rate,"
            " sfr.value, ehr.micro and ehr.macro"
        )
    return record


def cmd_compare(args: argparse.Namespace) -> int:
    from . import scorecard

    baseline = _load_scorecard_record(args.baseline)
    candidates = [_load_scorecard_record(p) for p in args.scorecards]
    comparisons = scorecard.compare_records(baseline, candidates)
    if args.format == "records":
        _print_records(comparisons)
    elif args.format == "csv":
        _print_csv(
            [
                {
                    "system": comp["system"],
                    "baseline": comp["baseline"],
                    **{f"delta_{k}": v for k, v in comp["deltas"].items()},
                    "ehr_micro_ratio": comp["ehr_micro_ratio"],
                }
                for comp in comparisons
            ]
        )
    else:
        print(scorecard.render_comparison(comparisons))
    return EXIT_OK


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def cmd_pipeline(args: argparse.Namespace) -> int:
    # The steps live in their own module, which score, diagnose and compare
    # never load.
    from . import pipeline_cli

    return getattr(pipeline_cli, "cmd_pipeline_" + args.step.replace("-", "_"))(args)


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
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
