"""Self-tests for the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gen
import oracle
import run
import workloads

sys.path.insert(0, str(run.SRC))

from indicscore import cli  # noqa: E402
from indicscore.distance import levenshtein  # noqa: E402


@pytest.fixture
def quick(monkeypatch):
    """Smoke-size runs: one set-up sample and no probes."""
    monkeypatch.setattr(run, "SETUP_MIN_REPEATS", 1)
    monkeypatch.setattr(run, "run_probes", lambda run_cli, work: {})


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.SIZES))
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    rows = workloads.SMOKE_SIZES[workload]
    gen.generate(workload, 5, tmp_path / "a", rows)
    gen.generate(workload, 5, tmp_path / "b", rows)
    gen.generate(workload, 6, tmp_path / "c", rows)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_generator_covers_languages_classes_and_known_defects(tmp_path):
    gen.generate("score_entity_dense", 1, tmp_path / "dense", 60)
    gen.generate("corpus_pipeline", 1, tmp_path / "pipe", 120)
    rows = [
        json.loads(line)
        for lang in gen.LANGS
        for line in (tmp_path / "dense" / f"{lang}.holdout.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert {r["language"] for r in rows} == set(gen.LANGS)
    tokens = [t for r in rows for t in r["entity_tokens"]]
    assert {t["matcher_class"] for t in tokens} == set(gen.MATCHER_CLASSES)

    adjacent = [
        r for r in rows
        for a, b in zip(r["entity_tokens"], r["entity_tokens"][1:])
        if (a["matcher_class"], b["matcher_class"]) == ("digit_run", "pincode")
        and f"{a['surface']} {b['surface']}" in r["text"]
    ]
    assert adjacent, "no phone number directly followed by a pincode"
    assert any(len(t["surface"].replace(" ", "")) == 16 for t in tokens if t["matcher_class"] == "digit_run")
    brands = {t["surface"] for t in tokens if t["matcher_class"] == "brand"}
    aliases = (tmp_path / "dense" / "aliases.tsv").read_text(encoding="utf-8")
    assert brands & set(gen.UNLISTED_BRANDS) and not any(b in aliases for b in gen.UNLISTED_BRANDS)
    assert brands & {name for name, _ in gen.BRANDS}
    assert any(r["entity_class"] == "codemix" for r in rows)

    manifest = (tmp_path / "pipe" / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    assert {json.loads(line)["corpus_class"] for line in manifest} == set(gen.CORPUS_CLASSES)


def test_oracle_agrees_with_known_distances_and_the_package():
    assert oracle.edit_distance("kitten", "sitting") == 3
    assert oracle.edit_distance("", "abc") == 3
    assert oracle.words("₹5,00,000 ఇవ్వండి.") == ["5,00,000", "ఇవ్వండి"]
    rng = random.Random(0)
    for _ in range(200):
        a = "".join(rng.choice("abc ") for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice("abc ") for _ in range(rng.randint(0, 12)))
        assert oracle.edit_distance(a, b) == levenshtein(a, b)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload", sorted(workloads.SIZES))
def test_every_workload_runs_at_smoke_size(quick, workload, traced):
    result, record = run.run(workload, seed=3, seconds=0, traced=traced, rows=workloads.SMOKE_SIZES[workload])
    assert result["correct"], record
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.PER_LAYER if traced else run.END_TO_END)
    assert len(record["output_sha256"]) == 64
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _scored_call(tmp_path: Path) -> workloads.Call:
    data = tmp_path / "data"
    meta = gen.generate("score_long_te", 4, data, 30)
    (call,) = workloads.calls("score_long_te", data, tmp_path / "out", meta, 4)
    assert cli.main(call.argv) == 0
    return call


def _corrupt(path: Path, edit) -> None:
    card = json.loads(path.read_text(encoding="utf-8"))
    edit(card)
    path.write_text(json.dumps(card), encoding="utf-8")


def _flip_one_hit(card: dict) -> None:
    tally = next(t for t in card["ehr"]["per_class"].values() if t["hits"] < t["n"])
    tally["hits"] += 1


def _add_one_edit(card: dict) -> None:
    card["cer"]["distance"] += 1


@pytest.mark.parametrize("corruption", [_flip_one_hit, _add_one_edit])
def test_corrupted_scorecard_is_caught(tmp_path, capsys, corruption):
    call = _scored_call(tmp_path)
    ok = workloads.Outcome(0, 1.0, 1.0, "", "")
    assert call.check(ok) == []
    _corrupt(call.outputs[0], corruption)
    assert call.check(ok) != []


@pytest.mark.parametrize("corruption", [_flip_one_hit, _add_one_edit])
def test_replay_catches_a_corrupted_scorecard(tmp_path, capsys, corruption):
    import replay

    call = _scored_call(tmp_path)
    (replayed,) = workloads.calls("score_long_te", tmp_path / "data", tmp_path / "replay",
                                  {"te": {}}, 4)
    figures = replay.replay(replayed.argv, replay.Tracer(), Counter(), replayed.label)
    assert run._replay_mismatch(call, None, replayed, figures) is None
    _corrupt(call.outputs[0], corruption)
    assert run._replay_mismatch(call, None, replayed, figures) is not None


def test_self_time_subtracts_children():
    import replay

    tracer = replay.Tracer()
    with tracer.span("outer", "r1"):
        with tracer.span("inner"):
            sum(range(10000))
    times = tracer.self_times()
    outer, inner = tracer.durations("outer")[0], tracer.durations("inner")[0]
    assert times["outer"] == pytest.approx(outer - inner)
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == "r1"


def test_probes_record_every_defect(tmp_path):
    with run.Spawner(tmp_path / "proc") as spawner:
        results = run.run_probes(spawner.cli, tmp_path / "probes")
    assert len(results) == 6
    assert all(set(r) == {"pass", "exit"} for r in results.values())


def test_child_peak_rss_is_the_childs_own(tmp_path):
    # On Linux a child's ru_maxrss also counts its spawner's peak RSS, so
    # children must not be spawned by this (here deliberately large) process.
    ballast = bytearray(64 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    with run.Spawner(tmp_path / "proc") as spawner:
        outcome = spawner.python(["-c", "pass"])
    assert outcome.code == 0
    assert outcome.maxrss_mb < 40
    del ballast


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SIZES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_a_checkout(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score_long_te", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
