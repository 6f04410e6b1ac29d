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
rewrite-digits spells numbers), and score, diagnose and compare do not load
the pipeline.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import sys
from collections import Counter
from pathlib import Path

from . import corpus
from .errors import ConfigurationError, DataError, read_utf8
from .script import LANGUAGES, aggregate_sfr, sfr
from .textnorm import CURRENCY_MODES, NORM_MODES, REWRITE_MODES, format_value, norm_config_from_label

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


def _write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


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
    record = scorecard.scorecard_record(card)

    out_path = args.out or Path(args.predictions).with_suffix(".scorecard.json")
    detail_path = args.detail or Path(args.predictions).with_suffix(".detail.jsonl")
    _write_text(out_path, _dump_json(record))
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
    _write_text(detail_path, "\n".join(detail_lines) + ("\n" if detail_lines else ""))

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

def _parse_weights(raw: str) -> dict[str, float]:
    weights: dict[str, float] = {}
    for part in raw.split(","):
        name, raw = _parse_named_value(part.strip())
        try:
            weights[name] = float(raw)
        except ValueError:
            raise ConfigurationError(f"--weights: {raw!r} is not a number") from None
    return weights


@contextlib.contextmanager
def _reading(manifest: str):
    """Yield the rows of ``manifest``.

    When the block raises, the rest of the manifest is still read, so that
    a malformed manifest is the error reported, as it was when a verb
    loaded the whole file before acting on any row. A verb checks its
    options inside this block but before it opens its outputs.
    """
    rows = corpus.read_manifest(manifest)
    try:
        yield rows
    except (ValueError, OSError):  # DataError and ConfigurationError are ValueErrors
        for _ in rows:
            pass
        raise


def cmd_pipeline_route(args: argparse.Namespace) -> int:
    from . import pipeline

    counts: Counter = Counter()
    with _reading(args.manifest) as rows:
        policy_kwargs: dict = {"seed": args.seed}
        if args.weights:
            weights = _parse_weights(args.weights)
            policy_kwargs["weights"] = weights
            # a bucket-relabel rule is vacuous once its bucket has no weight
            policy_kwargs["overrides"] = tuple(
                rule
                for rule in pipeline.DEFAULT_OVERRIDES
                if rule.bucket is None or rule.bucket in weights
            )
        policy = pipeline.RouterPolicy(**policy_kwargs)
        with corpus.manifest_writers(args.out) as (out,):
            for row in rows:
                routed = pipeline.route_row(row, policy)
                out.write(routed)
                counts[pipeline.synth_key(routed)] += 1
    print(pipeline.render_distribution(counts))
    return EXIT_OK


def cmd_pipeline_filter(args: argparse.Namespace) -> int:
    from . import pipeline

    rejected_count = 0
    outs = corpus.manifest_writers(args.out, args.rejected)
    with _reading(args.manifest) as rows, outs as (accepted, rejected):
        for passed, row in pipeline.gate_rows(rows, args.threshold):
            if passed:
                accepted.write(row)
                continue
            rejected_count += 1
            if rejected is not None:
                rejected.write(row)
    print(
        f"accepted {accepted.count}  rejected {rejected_count}"
        f"  (threshold {format_value(args.threshold)})"
    )
    return EXIT_OK


def cmd_pipeline_split(args: argparse.Namespace) -> int:
    from . import pipeline

    counts: Counter = Counter()
    outs = corpus.manifest_writers(args.out_train, args.out_heldout)
    with _reading(args.manifest) as rows, outs as (train, heldout):
        for held, row in pipeline.split_rows(rows):
            (heldout if held else train).write(row)
            counts[pipeline.synth_key(row)] += 1
    print(f"train {train.count}  heldout {heldout.count}")
    print(pipeline.render_distribution(counts))
    return EXIT_OK


def cmd_pipeline_balance(args: argparse.Namespace) -> int:
    from . import pipeline

    # Two reads of the manifest: ids and classes pick the rows, then the
    # picked rows are copied in input order.
    kept: Counter = Counter()
    total = 0
    with _reading(args.manifest) as rows:
        selected = pipeline.balanced_ids(rows, args.per_class, args.seed)
        if not os.path.isfile(args.manifest):
            raise DataError(f"balance reads its manifest twice; {args.manifest} is not a regular file")
        with corpus.manifest_writers(args.out) as (out,):
            for row in corpus.read_manifest(args.manifest):
                total += 1
                if row.id in selected:
                    out.write(row)
                    kept[row.corpus_class] += 1
    for corpus_class in sorted(kept):
        print(f"{corpus_class}: {kept[corpus_class]}")
    print(f"kept {out.count} of {total} rows")
    return EXIT_OK


def cmd_pipeline_validate(args: argparse.Namespace) -> int:
    config = corpus.ValidationConfig(purity_threshold=args.purity_threshold)
    found: list[tuple[str, str, str]] = []  # (id, kind, detail); a dict each only while printing
    clean = total = 0
    with _reading(args.manifest) as rows:
        for row in rows:
            total += 1
            violations = corpus.validate_corpus_row(row, config=config)
            if not violations:
                clean += 1
                continue
            found.extend((row.id, violation.kind, violation.detail) for violation in violations)
    if args.format == "table":
        for row_id, kind, detail in found:
            print(f"{row_id}: {kind}: {detail}")
        print(f"{clean} of {total} rows clean, {len(found)} violations")
        return EXIT_OK
    records = [{"id": row_id, "kind": kind, "detail": detail} for row_id, kind, detail in found]
    if args.format == "records":
        _print_records(records)
    else:
        _print_csv(records)
    return EXIT_OK


def cmd_pipeline_rewrite_digits(args: argparse.Namespace) -> int:
    from .numbers import load_language_table, rewrite_digit_runs

    changed = 0
    with _reading(args.manifest) as rows, corpus.manifest_writers(args.out) as (out,):
        for row in rows:
            table = load_language_table(row.language)
            try:
                new_text = rewrite_digit_runs(row.text, table, args.mode)
            except DataError as exc:
                raise DataError(f"row {row.id!r}: {exc}") from exc
            if new_text != row.text:
                changed += 1
            out.write(corpus._evolve(row, text=new_text))
    print(f"rewrote digit runs in {changed} of {out.count} rows ({args.mode})")
    return EXIT_OK


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

    p_route = pipe_sub.add_parser("route", help="assign synthesis backends")
    p_route.add_argument("--manifest", required=True)
    p_route.add_argument("--out", required=True)
    p_route.add_argument("--seed", type=int, default=0)
    p_route.add_argument("--weights", help="override weights, e.g. praxy=0.6,elevenlabs=0.2,cartesia=0.2")
    p_route.set_defaults(func=cmd_pipeline_route)

    p_filter = pipe_sub.add_parser("filter", help="gate rows on round-trip CER")
    p_filter.add_argument("--manifest", required=True)
    p_filter.add_argument("--out", required=True, help="accepted rows")
    p_filter.add_argument("--rejected", help="optional path for rejected rows")
    p_filter.add_argument("--threshold", type=float, default=0.5)
    p_filter.set_defaults(func=cmd_pipeline_filter)

    p_split = pipe_sub.add_parser("split", help="split held-out engine rows from training rows")
    p_split.add_argument("--manifest", required=True)
    p_split.add_argument("--out-train", required=True)
    p_split.add_argument("--out-heldout", required=True)
    p_split.set_defaults(func=cmd_pipeline_split)

    p_bal = pipe_sub.add_parser("balance", help="seeded per-class downsample")
    p_bal.add_argument("--manifest", required=True)
    p_bal.add_argument("--out", required=True)
    p_bal.add_argument("--per-class", type=int, required=True)
    p_bal.add_argument("--seed", type=int, default=0)
    p_bal.set_defaults(func=cmd_pipeline_balance)

    p_val = pipe_sub.add_parser("validate", help="report corpus-row violations")
    p_val.add_argument("--manifest", required=True)
    p_val.add_argument("--purity-threshold", type=float, default=0.8)
    add_format(p_val)
    p_val.set_defaults(func=cmd_pipeline_validate)

    p_rw = pipe_sub.add_parser("rewrite-digits", help="spell out digit runs for synthesis")
    p_rw.add_argument("--manifest", required=True)
    p_rw.add_argument("--out", required=True)
    p_rw.add_argument("--mode", choices=REWRITE_MODES, default="grouped")
    p_rw.set_defaults(func=cmd_pipeline_rewrite_digits)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
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
