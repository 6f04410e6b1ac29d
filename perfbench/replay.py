"""Traced in-process replay of the CLI calls, through the package's public
functions, in the order the CLI verbs call them.

Spans are recorded here, around calls into each layer; nothing inside the
package is instrumented. Two hooks wrap a package function for the length
of a replay so that it shows as a child span of its caller:
``ScoringConfig.table_for`` (inside the matchers) and the
``script_purity_check`` that ``corpus.validate_corpus_row`` calls.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

from indicscore import cli, corpus, pipeline, scorecard
from indicscore.scorecard import UtteranceDetail, format_value
from indicscore.distance import ErrorRate, cer, wer
from indicscore.matchers import MATCHER_CLASSES, AliasTable, ScoringConfig, aggregate_ehr, score_utterance
from indicscore.numbers import load_language_table, load_lexicon, parse_currency_expression, rewrite_digit_runs
from indicscore.script import SfrResult, sfr
from indicscore.textnorm import norm_config_from_label, normalize_for_scoring, tokens_for_scoring

# Layer timings reported as self time, in seconds, by span name.
TIMED_SPANS = (
    "corpus.load", "corpus.save", "corpus.validate",
    "textnorm.norm",
    "distance.wer", "distance.cer",
    "script.sfr", "script.purity",
    *(f"matchers.{cls}" for cls in MATCHER_CLASSES), "matchers.table_for",
    "numbers.parse", "numbers.rewrite",
    "scorecard.score_predictions", "scorecard.aggregate",
    "pipeline.route", "pipeline.filter", "pipeline.split", "pipeline.balance",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, request id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        parent = self._stack[-1] if self._stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        record = [name, time.perf_counter(), 0.0, parent, request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Counter:
        """Per span name: duration minus the time its child spans cover."""
        totals: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "request": request}) + "\n")


@contextlib.contextmanager
def wrapped(owner, attr: str, tracer: Tracer, name: str):
    """Make ``owner.attr`` record a span named ``name`` while the block runs."""
    original = getattr(owner, attr)

    def traced(*args, **kwargs):
        with tracer.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, traced)
    try:
        yield
    finally:
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# score: cmd_score, then score_predictions
# ---------------------------------------------------------------------------

def _score_inputs(args):
    aliases = AliasTable.from_file(args.aliases) if args.aliases else None
    tables = {args.lang: load_lexicon(args.lexicon, args.lang)} if args.lexicon else {}
    config = ScoringConfig(language=args.lang, currency_mode=args.currency_mode, aliases=aliases, tables=tables)
    return config, norm_config_from_label(args.normalization)


def replay_score(args, tr: Tracer, counts: Counter, label: str) -> dict:
    """Replay one ``score`` call; returns the pooled figures to compare."""
    with tr.span("replay", label):
        with tr.span("corpus.load"):
            rows = corpus.load_holdout(args.holdout)
            predictions = corpus.load_predictions(args.predictions)
        counts["corpus.load_rows"] += len(rows) + len(predictions)
        if args.system is not None:
            predictions = [p for p in predictions if p.system == args.system]
        system = args.system or min((p.system for p in predictions), default="")
        config, norm = _score_inputs(args)
        by_id = {p.id: p for p in predictions}
        matched = [row for row in rows if row.id in by_id]
        pooled = Counter()
        results = []
        details = []
        with wrapped(ScoringConfig, "table_for", tr, "matchers.table_for"):
            for row in matched:
                hypothesis = by_id[row.id].hypothesis
                row_results = []
                with tr.span("scorecard.row", row.id):
                    with tr.span("distance.wer"):
                        row_wer = wer(row.text, hypothesis, norm)
                    with tr.span("distance.cer"):
                        row_cer = cer(row.text, hypothesis, norm)
                    with tr.span("script.sfr"):
                        row_sfr = sfr(hypothesis, args.lang)
                    for token in row.entity_tokens:
                        with tr.span(f"matchers.{token.matcher_class}"):
                            row_results += score_utterance([token], hypothesis, config)
                results += row_results
                details.append(UtteranceDetail(row.id, row_wer.rate, row_cer.rate, row_sfr.value, tuple(row_results)))
                pooled["wer_distance"] += row_wer.distance
                pooled["wer_length"] += row_wer.reference_length
                pooled["cer_distance"] += row_cer.distance
                pooled["cer_length"] += row_cer.reference_length
                pooled["letters"] += row_sfr.letter_count
                pooled["in_block"] += row_sfr.in_block_count
        with tr.span("scorecard.aggregate"):
            ehr = aggregate_ehr(results)
            card = scorecard.Scorecard(
                system=system,
                holdout=args.holdout_name or Path(args.holdout).stem,
                language=args.lang,
                n=len(matched),
                wer=ErrorRate(pooled["wer_distance"], pooled["wer_length"]),
                cer=ErrorRate(pooled["cer_distance"], pooled["cer_length"]),
                sfr=SfrResult(pooled["letters"], pooled["in_block"]),
                ehr=ehr,
                unmatched_row_ids=tuple(row.id for row in rows if row.id not in by_id),
                unmatched_prediction_ids=tuple(sorted(set(by_id) - {row.id for row in rows})),
                currency_mode=config.currency_mode,
                normalization=norm.label,
            )
            record = scorecard.scorecard_record(card)
        # The CLI's output, so that the replay does the same work as cli.main.
        write_score_outputs(args, card, record, details)
    counts["script.letters"] += pooled["letters"]
    for result in results:
        counts[f"matchers.{result.matcher_class}_n"] += 1
        counts[f"matchers.{result.matcher_class}_hits"] += result.hit
    counts["scorecard.row_samples"] += len(matched)

    # Passes of their own, outside the replay: normalization alone, currency
    # parsing alone, and the whole score_predictions call.
    for row in matched:
        hypothesis = by_id[row.id].hypothesis
        with tr.span("textnorm.norm", row.id):
            ref_chars = normalize_for_scoring(row.text, norm)
            ref_words = tokens_for_scoring(row.text, norm)
            hyp_chars = normalize_for_scoring(hypothesis, norm)
            hyp_words = tokens_for_scoring(hypothesis, norm)
        counts["distance.wer_cells"] += len(ref_words) * len(hyp_words)
        counts["distance.cer_cells"] += len(ref_chars) * len(hyp_chars)
        currency = [t for t in row.entity_tokens if t.matcher_class == "currency_amount"]
        if currency:
            table = config.table_for(currency[0].language)
            with tr.span("numbers.parse", row.id):
                parse_currency_expression(hypothesis, table)
    with tr.span("scorecard.score_predictions", label):
        scorecard.score_predictions(
            rows, predictions, language=args.lang, system=system,
            holdout_name=args.holdout_name or Path(args.holdout).stem,
            config=config, normalization=norm,
        )
    return pooled_figures(record)


def write_score_outputs(args, card: scorecard.Scorecard, record: dict, details: list[UtteranceDetail]) -> None:
    """Write the scorecard and detail files and print the table, as ``cmd_score`` does."""
    Path(args.out).write_text(json.dumps(record, ensure_ascii=False, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    lines = [
        json.dumps(
            {
                "id": d.id, "wer": d.wer, "cer": d.cer, "sfr": d.sfr,
                "entities": [
                    {"surface": m.surface, "matcher_class": m.matcher_class, "hit": m.hit, "detail": m.detail}
                    for m in d.matches
                ],
            },
            ensure_ascii=False, sort_keys=True,
        )
        for d in details
    ]
    Path(args.detail).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    print(scorecard.render_scorecard(card))


def pooled_figures(record: dict) -> dict:
    """The scorecard figures the replay must reproduce exactly."""
    return {
        "n": record["n"],
        "wer": (record["wer"]["distance"], record["wer"]["reference_length"]),
        "cer": (record["cer"]["distance"], record["cer"]["reference_length"]),
        "sfr": (record["sfr"]["letter_count"], record["sfr"]["in_block_count"]),
        "ehr": {cls: (t["n"], t["hits"]) for cls, t in record["ehr"]["per_class"].items()},
    }


# ---------------------------------------------------------------------------
# pipeline verbs
# ---------------------------------------------------------------------------

def _load(tr: Tracer, counts: Counter, path) -> list:
    with tr.span("corpus.load"):
        rows = corpus.load_manifest(path)
    counts["corpus.load_rows"] += len(rows)
    return rows


def _save(tr: Tracer, counts: Counter, path, rows) -> None:
    with tr.span("corpus.save"):
        corpus.save_manifest(path, rows)
    counts["corpus.save_rows"] += len(rows)


def replay_pipeline(args, tr: Tracer, counts: Counter, label: str) -> dict:
    """Replay one ``pipeline`` call; returns what its stdout summary says."""
    summary: dict = {}
    with tr.span("replay", label):
        rows = _load(tr, counts, args.manifest)
        if args.step == "validate":
            config = corpus.ValidationConfig(purity_threshold=args.purity_threshold)
            clean = violations = 0
            with wrapped(corpus, "script_purity_check", tr, "script.purity"):
                for row in rows:
                    with tr.span("corpus.validate", row.id):
                        found = corpus.validate_corpus_row(row, config=config)
                    clean += not found
                    violations += len(found)
                    for violation in found:
                        print(f"{row.id}: {violation.kind}: {violation.detail}")
            print(f"{clean} of {len(rows)} rows clean, {violations} violations")
            counts["corpus.violations"] += violations
            summary = {"clean": clean, "rows": len(rows), "violations": violations}
        elif args.step == "route":
            if args.weights:
                raise ValueError("the replay covers the default routing policy only")
            with tr.span("pipeline.route"):
                routed = pipeline.route_rows(rows, pipeline.RouterPolicy(seed=args.seed))
                table = pipeline.render_distribution_table(routed)
            _save(tr, counts, args.out, routed)
            print(table)
        elif args.step == "filter":
            with tr.span("pipeline.filter"):
                result = pipeline.apply_cer_filter(rows, args.threshold)
            _save(tr, counts, args.out, result.accepted)
            if args.rejected:
                _save(tr, counts, args.rejected, result.rejected)
            print(f"accepted {len(result.accepted)}  rejected {len(result.rejected)}"
                  f"  (threshold {format_value(args.threshold)})")
            counts["pipeline.accepted"] += len(result.accepted)
            counts["pipeline.rejected"] += len(result.rejected)
        elif args.step == "split":
            with tr.span("pipeline.split"):
                result = pipeline.split_heldout(rows)
                table = pipeline.render_distribution_table(list(rows))
            _save(tr, counts, args.out_train, result.train)
            _save(tr, counts, args.out_heldout, result.heldout)
            print(f"train {len(result.train)}  heldout {len(result.heldout)}")
            print(table)
        elif args.step == "balance":
            with tr.span("pipeline.balance"):
                balanced = pipeline.class_balance(rows, args.per_class, args.seed)
            _save(tr, counts, args.out, balanced)
            kept = Counter(row.corpus_class for row in balanced)
            for corpus_class in sorted(kept):
                print(f"{corpus_class}: {kept[corpus_class]}")
            print(f"kept {len(balanced)} of {len(rows)} rows")
        elif args.step == "rewrite-digits":
            rewritten = []
            changed = 0
            for row in rows:
                with tr.span("numbers.rewrite", row.id):
                    text = rewrite_digit_runs(row.text, load_language_table(row.language), args.mode)
                changed += text != row.text
                rewritten.append(replace(row, text=text))
            _save(tr, counts, args.out, rewritten)
            print(f"rewrote digit runs in {changed} of {len(rows)} rows ({args.mode})")
            counts["numbers.rewrite_changed"] += changed
        else:
            raise ValueError(f"no replay for pipeline step {args.step!r}")
    return summary


def replay(argv: list[str], tr: Tracer, counts: Counter, label: str) -> dict:
    """Replay one CLI call given its argv; returns the figures to compare."""
    args = cli.build_parser().parse_args(argv)
    if args.command == "score":
        return replay_score(args, tr, counts, label)
    return replay_pipeline(args, tr, counts, label)
