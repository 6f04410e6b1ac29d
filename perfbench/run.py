"""indicscore benchmark: seeded Indic inputs, timed CLI runs, traced replay.

    python3 perfbench/run.py --workload score_long_te --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports and runs the package
from that checkout's ``src/`` and writes only under ``.perfbench_work/``.

With ``--trace 0`` it makes the workload's CLI calls in a closed loop from
this one process (each call starts after the previous one exits) for
``--seconds`` seconds and reports the end-to-end metrics. With
``--trace 1`` it runs the calls once, then replays them in-process through
the package's public functions with spans around each layer, and reports
the per-layer metrics. Every CLI call's output is checked; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gen
import workloads
from probes import run_probes
from workloads import Call, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = {"rows_per_s": "rows/s", "wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "cli.main_s": "s", "cli.stderr_lines": "count",
    "corpus.load_s": "s", "corpus.load_rows": "count", "corpus.save_s": "s", "corpus.save_rows": "count",
    "corpus.validate_s": "s", "corpus.violations": "count",
    "textnorm.norm_s": "s",
    "distance.wer_s": "s", "distance.cer_s": "s", "distance.wer_cells": "count", "distance.cer_cells": "count",
    "script.sfr_s": "s", "script.letters": "count", "script.purity_s": "s",
    **{
        f"matchers.{cls}_{kind}": unit
        for cls in gen.MATCHER_CLASSES
        for kind, unit in (("s", "s"), ("n", "count"), ("hits", "count"))
    },
    "matchers.table_for_s": "s",
    "numbers.parse_s": "s", "numbers.rewrite_s": "s", "numbers.rewrite_changed": "count",
    "scorecard.score_predictions_s": "s", "scorecard.aggregate_s": "s",
    "scorecard.row_p50_ms": "ms", "scorecard.row_p99_ms": "ms", "scorecard.row_samples": "count",
    "pipeline.route_s": "s", "pipeline.filter_s": "s", "pipeline.split_s": "s", "pipeline.balance_s": "s",
    "pipeline.accepted": "count", "pipeline.rejected": "count",
    "trace.replay_s": "s", "trace.overhead_s": "s",
}

# Set-up is timed once per pass, and at least this many times per run,
# after one untimed warm-up start.
SETUP_MIN_REPEATS = 7
CALL_TIMEOUT_S = 120

CLI_BOOT = "import sys; from indicscore.cli import entrypoint; sys.argv[0] = 'indicscore'; entrypoint()"
SETUP_CODE = (
    "import indicscore.cli\n"
    "from indicscore.numbers import load_language_table\n"
    "for lang in {langs!r}:\n"
    "    load_language_table(lang)\n"
)


class Spawner:
    """Starts fresh interpreters that import indicscore from ``src/``.

    Children are started and reaped by ``launch.py``, one small process per
    run, so that each child's peak RSS from ``wait4`` is its own and not
    this process's. A child still running after CALL_TIMEOUT_S is killed.
    """

    def __init__(self, scratch: Path):
        scratch.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.stdout, self.stderr = scratch / "child.stdout", scratch / "child.stderr"
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def python(self, args: list[str]) -> Outcome:
        request = {"args": args, "stdout": str(self.stdout), "stderr": str(self.stderr), "timeout": CALL_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError(f"the launcher exited with code {self.launcher.wait()}")
        reply = json.loads(reply)
        return Outcome(
            reply["code"], reply["wall_s"], reply["maxrss_kb"] / 1024,
            self.stdout.read_text(encoding="utf-8", errors="replace"),
            self.stderr.read_text(encoding="utf-8", errors="replace"),
        )

    def cli(self, argv: list[str]) -> Outcome:
        return self.python(["-c", CLI_BOOT, *argv])


def _setup_once(spawner: Spawner, langs: tuple[str, ...]) -> float:
    outcome = spawner.python(["-c", SETUP_CODE.format(langs=langs)])
    if outcome.code != 0:
        raise RuntimeError(f"set-up interpreter failed with exit {outcome.code}:\n{outcome.stderr}")
    return outcome.wall_s


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"\0missing\0")
    return h.hexdigest()


def _count_rows(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(1 for line in path.read_text(encoding="utf-8").split("\n") if line.strip())


class Checker:
    """Checks each call's output and that every pass writes the same bytes."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def run_pass(self, spawner: Spawner, calls: list[Call]) -> list[Outcome]:
        for call in calls:
            for path in call.outputs:
                path.unlink(missing_ok=True)
        outcomes = [spawner.cli(call.argv) for call in calls]
        for call, outcome in zip(calls, outcomes):
            found = call.check(outcome)
            digest = _digest(call.outputs)
            if self.digests.setdefault(call.label, digest) != digest:
                found.append("output bytes differ from the first pass")
            self.attempted += 1
            self.failed += bool(found)
            self.problems += [f"{call.label}: {p}" for p in found]
        return outcomes

    def output_sha256(self) -> str:
        return hashlib.sha256("".join(self.digests.values()).encode()).hexdigest()


# ---------------------------------------------------------------------------
# End-to-end run (tracing off)
# ---------------------------------------------------------------------------

def measure(workload: str, calls: list[Call], spawner: Spawner, checker: Checker, seconds: float) -> tuple[dict, dict]:
    langs = workloads.LANGUAGES[workload]
    _setup_once(spawner, langs)  # warm-up, untimed
    walls: dict[str, list[float]] = {call.label: [] for call in calls}
    setups: list[float] = []
    peak_rss = 0.0
    rows = None
    deadline = time.perf_counter() + seconds
    while True:
        outcomes = checker.run_pass(spawner, calls)
        for call, outcome in zip(calls, outcomes):
            walls[call.label].append(outcome.wall_s)
        peak_rss = max(peak_rss, *(o.maxrss_mb for o in outcomes))
        if rows is None:
            rows = sum(_count_rows(call.input) for call in calls)
        setups.append(_setup_once(spawner, langs))
        if time.perf_counter() >= deadline:
            break
    while len(setups) < SETUP_MIN_REPEATS:
        setups.append(_setup_once(spawner, langs))
    # Host interference only ever adds time, so each call counts at its
    # fastest pass (best-of-N); the median pass spread twice as much across
    # seeds on a shared 2-vCPU host.
    wall = sum(min(times) for times in walls.values())
    metrics = {
        "rows_per_s": rows / wall,
        "wall_s": wall,
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setups),
    }
    detail = {
        "passes": len(walls[calls[0].label]),
        "rows_per_pass": rows,
        "wall_s_per_pass": [round(sum(w), 4) for w in zip(*walls.values())],
        "wall_s_per_call": {label: [round(w, 4) for w in times] for label, times in walls.items()},
        "setup_s_each": [round(s, 4) for s in setups],
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

_VALIDATE_SUMMARY = re.compile(r"(\d+) of (\d+) rows clean, (\d+) violations")


def _replay_mismatch(cli_call: Call, outcome: Outcome, replay_call: Call, figures: dict) -> str | None:
    """Compare one replayed call with what the CLI call wrote."""
    import replay

    if outcome is not None and outcome.code != 0:
        return f"{cli_call.label}: the CLI call failed, nothing to compare"
    if cli_call.label.startswith("score:"):
        card = json.loads(cli_call.outputs[0].read_text(encoding="utf-8"))
        expected = replay.pooled_figures(card)
    elif cli_call.label == "pipeline:validate":
        m = _VALIDATE_SUMMARY.search(outcome.stdout)
        expected = m and {"clean": int(m.group(1)), "rows": int(m.group(2)), "violations": int(m.group(3))}
    else:
        expected = [p.read_bytes() for p in cli_call.outputs]
        figures = [p.read_bytes() for p in replay_call.outputs]
    if figures != expected:
        return f"{cli_call.label}: replay disagrees with the CLI output"
    return None


def trace(workload: str, calls: list[Call], replay_calls: list[Call], inproc_calls: list[Call],
          spawner: Spawner, checker: Checker, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    import replay
    from indicscore import cli

    outcomes = checker.run_pass(spawner, calls)
    stderr_lines = sum(
        1 for o in outcomes for line in o.stderr.splitlines() if line.startswith("WARNING")
    )
    # Warnings from in-process runs go to memory; cli.main's own logging
    # set-up is then a no-op, so their formatting cost is still paid.
    sink = io.StringIO()
    logging.basicConfig(stream=sink, level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    rounds: list[dict] = []
    mismatches: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            codes = [cli.main(call.argv) for call in inproc_calls]
            cli_main = time.perf_counter() - start
            tracer, counts = replay.Tracer(), Counter()
            for cli_call, outcome, call in zip(calls, outcomes, replay_calls):
                figures = replay.replay(call.argv, tracer, counts, call.label)
                mismatch = _replay_mismatch(cli_call, outcome, call, figures)
                if mismatch and mismatch not in mismatches:
                    mismatches.append(mismatch)
        if any(codes):
            mismatches.append(f"in-process cli.main exit codes {codes}")
        sink.seek(0)
        sink.truncate()

        self_times = tracer.self_times()
        rows_ms = sorted(d * 1000 for d in tracer.durations("scorecard.row"))
        replay_s = sum(tracer.durations("replay"))
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update({f"{name}_s": self_times[name] for name in replay.TIMED_SPANS})
        metrics.update(counts)
        metrics.update({
            "cli.main_s": cli_main,
            "cli.stderr_lines": stderr_lines,
            "scorecard.row_p50_ms": statistics.median(rows_ms) if rows_ms else 0.0,
            "scorecard.row_p99_ms": statistics.quantiles(rows_ms, n=100)[98] if len(rows_ms) > 1 else 0.0,
            "trace.replay_s": replay_s,
        })
        rounds.append(metrics)
        if time.perf_counter() >= deadline:
            break
    tracer.dump(trace_path)

    metrics = {name: statistics.median(r[name] for r in rounds) for name in PER_LAYER}
    metrics["trace.overhead_s"] = metrics["trace.replay_s"] - metrics["cli.main_s"]
    layer_total = sum(metrics[f"{name}_s"] for name in replay.TIMED_SPANS if name != "scorecard.score_predictions")
    matcher_numbers = sum(
        v for k, v in metrics.items() if k.endswith("_s") and k.startswith(("matchers.", "numbers."))
    )
    ranking = sorted(
        (name for name in replay.TIMED_SPANS if name != "scorecard.score_predictions"),
        key=lambda name: -metrics[f"{name}_s"],
    )
    detail = {
        "rounds": len(rounds),
        "replay_mismatches": mismatches,
        "largest_self_time": ranking[:5],
        "matchers_numbers_share": matcher_numbers / layer_total if layer_total else 0.0,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, traced: bool, rows: int | None = None) -> tuple[dict, dict]:
    """Generate inputs, probe, measure; returns (result line, run record)."""
    rows = rows or workloads.SIZES[workload]
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        data = work / "data"
        meta = gen.generate(workload, seed, data, rows)
        with Spawner(work / "proc") as spawner:
            record = {
                "workload": workload,
                "seed": seed,
                "trace": int(traced),
                "rows_per_file": rows,
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "loadavg_start": os.getloadavg(),
                "probes": run_probes(spawner.cli, work / "probes"),
            }
            checker = Checker()
            calls = workloads.calls(workload, data, work / "cli", meta, seed)
            if traced:
                metrics, detail = trace(
                    workload, calls,
                    workloads.calls(workload, data, work / "replay", meta, seed),
                    workloads.calls(workload, data, work / "inproc", meta, seed),
                    spawner, checker, seconds, WORK / f"trace-{workload}-seed{seed}.jsonl",
                )
                units = PER_LAYER
                correct = not checker.failed and not detail["replay_mismatches"]
            else:
                metrics, detail = measure(workload, calls, spawner, checker, seconds)
                units = END_TO_END
                correct = not checker.failed
        record.update(detail)
        record.update({
            "error_rate": checker.failed / checker.attempted,
            "output_sha256": checker.output_sha256(),
            "problems": checker.problems[:20],
            "loadavg_end": os.getloadavg(),
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="indicscore benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "indicscore" / "cli.py").is_file():
        print(f"perfbench: no indicscore package under {SRC}; run inside a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"checks: {result['attempted'] - result['failed']} of {result['attempted']} calls passed;"
          f" error_rate {record['error_rate']:.4f}; correct {str(result['correct']).lower()}")
    print("record " + json.dumps(record, sort_keys=True, ensure_ascii=False))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
