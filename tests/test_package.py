import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import indicscore
from conftest import write_jsonl

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = str(Path(indicscore.__file__).resolve().parent.parent)


def run_python(code, *args, flags=()):
    """Run ``code`` in a fresh interpreter, started with ``flags``, that imports
    this checkout's package."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result


def test_all_names_resolve_without_duplicates():
    missing = [name for name in indicscore.__all__ if not hasattr(indicscore, name)]
    assert missing == []
    assert len(indicscore.__all__) == len(set(indicscore.__all__))


def test_import_loads_no_submodule_until_a_name_is_read():
    code = (
        "import json, sys, indicscore\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('indicscore.'))\n"
        "before = loaded()\n"
        "indicscore.cer\n"
        "print(json.dumps([before, loaded()]))\n"
    )
    assert json.loads(run_python(code).stdout) == [
        [], ["indicscore.distance", "indicscore.errors", "indicscore.record", "indicscore.textnorm"]
    ]
    assert set(indicscore.__all__) <= set(dir(indicscore))
    with pytest.raises(AttributeError):
        indicscore.no_such_name


# A verb's modules are listed after it exits, on the last line of stderr,
# with the number of times it forked. A first argument "parts" lets the verb
# use two CPUs, so that a manifest of two parts or more is run in parts.
VERB_BOOT = (
    "import json, os, sys\n"
    "from indicscore import cli\n"
    "forks, fork = [], os.fork\n"
    "os.fork = lambda: forks.append(1) or fork()\n"
    "if sys.argv[1] == 'parts':\n"
    "    from indicscore import pipeline_cli\n"
    "    pipeline_cli._usable_cpus = lambda: 2\n"
    "code = cli.main(sys.argv[2:])\n"
    "print(json.dumps([code, sorted(sys.modules), len(forks)]), file=sys.stderr)\n"
)

HAS_BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))

PIPELINE_VERBS = {
    "validate": ["--manifest", "{m}"],
    "route": ["--manifest", "{m}", "--out", "{o}", "--seed", "5"],
    "filter": ["--manifest", "{m}", "--out", "{o}", "--rejected", "{o}.rejected"],
    "split": ["--manifest", "{m}", "--out-train", "{o}", "--out-heldout", "{o}.heldout"],
    "balance": ["--manifest", "{m}", "--out", "{o}", "--per-class", "1"],
    "rewrite-digits": ["--manifest", "{m}", "--out", "{o}"],
}


def verb_modules(*argv, parts=False, flags=()):
    result = run_python(VERB_BOOT, "parts" if parts else "one", *argv, flags=flags)
    code, modules, forks = json.loads(result.stderr.splitlines()[-1])
    assert code == 0
    assert bool(forks) == parts
    return set(modules)


def write_manifest(path, rows, verb):
    text = "పిన్ కోడ్ 500081 పంపండి సరే"
    return write_jsonl(path, [
        {"id": f"r{i}", "text": text, "language": "te", "corpus_class": "digits",
         "entity_tokens": ["500081"], "synth_system": ["praxy", "cartesia", "elevenlabs"][i % 3],
         "cer_against_source": 0.1, "status": "pending" if verb == "route" else "accepted"}
        for i in range(rows)
    ])


def pipeline_verb_modules(verb, manifest, out, parts=False):
    args = [a.format(m=manifest, o=out) for a in PIPELINE_VERBS[verb]]
    return verb_modules("pipeline", verb, *args, parts=parts)


@pytest.mark.parametrize("verb", sorted(PIPELINE_VERBS))
def test_pipeline_verb_loads_neither_scorer_nor_openssl(tmp_path, verb):
    manifest = write_manifest(tmp_path / "manifest.jsonl", 3, verb)
    modules = pipeline_verb_modules(verb, manifest, tmp_path / "out.jsonl")
    unwanted = {"indicscore.matchers", "indicscore.distance", "indicscore.scorecard", "logging"}
    if verb != "rewrite-digits":
        unwanted.add("indicscore.numbers")
    if HAS_BUILTIN_SHA256:
        unwanted.add("_hashlib")
    assert modules & unwanted == set()


@pytest.mark.parametrize("verb", sorted(PIPELINE_VERBS))
def test_a_verb_run_in_parts_loads_what_it_loads_in_one_process(tmp_path, verb):
    from indicscore.pipeline_cli import PART_BYTES

    small = write_manifest(tmp_path / "small.jsonl", 3, verb)
    large = write_manifest(tmp_path / "large.jsonl", 2 * PART_BYTES // 200 + 1, verb)
    assert os.path.getsize(large) >= 2 * PART_BYTES
    one = pipeline_verb_modules(verb, small, tmp_path / "out.jsonl")
    assert pipeline_verb_modules(verb, large, tmp_path / "out.jsonl", parts=True) == one


def test_score_loads_the_scorer(tmp_path):
    row = {"id": "u1", "text": "పిన్ కోడ్ 500081 పంపండి", "language": "te",
           "entity_class": "digits", "entity_tokens": ["500081"]}
    holdout = write_jsonl(tmp_path / "holdout.jsonl", [row])
    preds = write_jsonl(tmp_path / "preds.jsonl", [{"id": "u1", "hypothesis": row["text"]}])
    modules = verb_modules("score", "--holdout", str(holdout), "--predictions", str(preds), "--lang", "te")
    assert {m for m in modules if m.startswith("indicscore")} == {
        "indicscore", *(f"indicscore.{name}" for name in (
            "cli", "corpus", "distance", "errors", "matchers", "numbers", "record", "scorecard", "script", "textnorm",
        ))
    }


# What score, diagnose and compare must not load: the pipeline steps, the
# manifest I/O, logging (warnings are printed by the CLI), dataclasses (the
# scoring records are `record.Record`s) and fractions with decimal (amounts
# are ints unless a numeral has a decimal point).
NOT_FOR_SCORING = {
    "indicscore.pipeline", "indicscore.pipeline_cli", "indicscore.manifest", "logging", "dataclasses",
    "fractions", "decimal",
}


def test_importing_the_cli_loads_no_pipeline_code():
    # then every bundled lexicon, as the benchmark's set-up does
    code = (
        "import json, sys\n"
        "import indicscore.cli\n"
        "from indicscore.numbers import load_language_table\n"
        "for lang in ('en', 'hi', 'ta', 'te'):\n"
        "    load_language_table(lang)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert set(json.loads(run_python(code).stdout)) & NOT_FOR_SCORING == set()


def scoring_verb_modules(tmp_path, flags=()):
    """The modules loaded by score, diagnose and compare, each run with ``flags``."""
    row = {"id": "u1", "text": "Flipkart లో ఆర్డర్ ₹500 500081", "language": "te",
           "entity_tokens": [{"surface": "Flipkart", "class": "brand"}, {"surface": "500081", "class": "pincode"},
                             {"surface": "₹500", "class": "currency_amount"}]}
    holdout = write_jsonl(tmp_path / "holdout.jsonl", [row])
    preds = write_jsonl(tmp_path / "preds.jsonl", [{"id": "u1", "hypothesis": row["text"]}])
    card = tmp_path / "card.json"
    # an unlisted brand: score warns, and still loads no logging
    score = verb_modules("score", "--holdout", str(holdout), "--predictions", str(preds), "--lang", "te",
                         "--out", str(card), "--detail", str(tmp_path / "detail.jsonl"), flags=flags)
    transcripts = tmp_path / "t.txt"
    transcripts.write_text("నమస్కారం\n", encoding="utf-8")
    diagnose = verb_modules("diagnose", "--lang", "te", "--sfr", "a=0.5", "--transcripts", f"b={transcripts}",
                            flags=flags)
    compare = verb_modules("compare", "--baseline", str(card), str(card), flags=flags)
    return score, diagnose, compare


def test_scoring_verbs_load_no_pipeline_code(tmp_path):
    for modules in scoring_verb_modules(tmp_path):
        assert modules & NOT_FOR_SCORING == set()


def test_scoring_verbs_import_neither_typing_nor_importlib_resources(tmp_path):
    # -S: no site hook (such as a .pth file) may import either before the package
    for modules in scoring_verb_modules(tmp_path, flags=("-S",)):
        assert modules & {"typing", "importlib.resources"} == set()


def test_manifest_names_read_through_corpus_are_the_manifest_objects():
    from indicscore import corpus, manifest

    for name in sorted(corpus._MANIFEST_NAMES):
        assert getattr(corpus, name) is getattr(manifest, name), name
    with pytest.raises(AttributeError):
        corpus.no_such_name


def test_routing_hash_falls_back_to_hashlib():
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from indicscore import pipeline\n"
        "assert pipeline._sha256 is hashlib.sha256\n"
        "print(repr(pipeline._unit_interval_hash(5, 'r0')))\n"
    )
    from indicscore.pipeline import _unit_interval_hash

    assert run_python(code).stdout.strip() == repr(_unit_interval_hash(5, "r0"))


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    row = {"id": "u1", "text": "మొత్తం ₹5,00,000 చెల్లించండి", "language": "te",
           "entity_tokens": [{"surface": "₹5,00,000", "class": "currency_amount"}]}
    pred = {"id": "u1", "hypothesis": "మొత్తం ఐదు లక్షల రూపాయలు చెల్లించండి"}
    (tmp_path / "holdout.jsonl").write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
    (tmp_path / "preds.jsonl").write_text(json.dumps(pred, ensure_ascii=False) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {})
    assert capsys.readouterr().out.split()[-1] == "1.0"  # the amount is recovered
