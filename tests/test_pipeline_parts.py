"""A pipeline verb that splits its manifest into byte ranges, one process
each, must give what the run in one process gives: exit code, stdout,
stderr (warnings included), output bytes and the files left in the
directory.

The split is forced on small manifests by making every byte a part
(``PART_BYTES = 1``) and by choosing the number of usable CPUs.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indicscore import cli, pipeline, pipeline_cli
from indicscore.corpus import CORPUS_CLASSES
from indicscore.errors import DataError

TEXTS = {
    "te": ["ఇది ఒక పరీక్ష వాక్యం సరే", "ఖాతా 98765 43210 పంపండి సరే", "ok"],
    "ta": ["இங்கே ஒரு சோதனை வாக்கியம் உள்ளது சரி", "இது Latin words here only"],
    "hi": ["यहाँ एक परीक्षण वाक्य है ठीक", "पिन 500081 भेजो ठीक है"],
}
THIRTEEN_DIGITS = "ఖాతా 1234567890123 సరే"


def good_row(i, **fields):
    # every third row is too short, so validate finds violations in every range
    row = {"id": f"r{i:03d}", "text": TEXTS["te"][i % 3], "language": "te",
           "corpus_class": CORPUS_CLASSES[i % len(CORPUS_CLASSES)],
           "synth_system": "cartesia" if i % 4 == 0 else "praxy", "status": "accepted",
           "cer_against_source": 0.2 if i % 3 else 0.7}
    row.update(fields)
    return row


def encode(lines, newline="\n", bom=False, last_newline=True):
    data = newline.join(line if isinstance(line, str) else json.dumps(line, ensure_ascii=False) for line in lines)
    data = ("﻿" if bom else "") + data + (newline if last_newline else "")
    return data.encode("utf-8")


def verb_argv(verb, **options):
    """The argv of ``verb`` on manifest ``{d}/m.jsonl``, writing under ``{d}``."""
    out = options.get("out", "{d}/out.jsonl")
    argv = {
        "validate": ["--format", options.get("format", "table")],
        "route": ["--out", out, "--seed", "3", *options.get("weights", [])],
        "filter": ["--out", out, *options.get("rejected", ["--rejected", "{d}/rejected.jsonl"])],
        "split": ["--out-train", out, "--out-heldout", "{d}/heldout.jsonl"],
        "balance": ["--out", out, "--per-class", options.get("per_class", "2"), "--seed", "5"],
        "rewrite-digits": ["--out", out, "--mode", options.get("mode", "digit_by_digit")],
    }[verb]
    return ["pipeline", verb, "--manifest", "{d}/m.jsonl", *argv]


def outcome(directory, manifest, argv, cpus):
    """Run ``argv`` on a fresh copy of ``manifest`` with ``cpus`` usable CPUs;
    returns what it shows and leaves, how many times it forked, and whether
    the manifest is cut in more than one range."""
    for path in directory.iterdir():
        path.unlink()
    (directory / "m.jsonl").write_bytes(manifest)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(pipeline_cli, "PART_BYTES", 1), \
            mock.patch.object(pipeline_cli, "_usable_cpus", lambda: cpus), \
            mock.patch.object(os, "fork", counting_fork), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        cut = len(pipeline_cli._byte_ranges(str(directory / "m.jsonl"), ())) > 1
        code = cli.main([arg.format(d=directory) for arg in argv])
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    return (code, stdout.getvalue(), stderr.getvalue(), files), len(forks), cut


def assert_parts_match_one_process(directory, manifest, argv, cpus=2):
    expected, _, _ = outcome(directory, manifest, argv, 1)
    got, forks, cut = outcome(directory, manifest, argv, cpus)
    assert got == expected
    assert bool(forks) == cut  # a manifest cut in ranges is run in parts first
    return expected


ROWS = [good_row(i) for i in range(12)]
SYNTHESIZED = [good_row(i, status="synthesized") for i in range(12)]  # what filter takes
PENDING = [good_row(i, status="pending") for i in range(12)]  # what route takes
VERBS = ["validate", "route", "filter", "split", "balance", "rewrite-digits"]


def clean_rows(verb):
    return {"filter": SYNTHESIZED, "route": PENDING}.get(verb, ROWS)


def test_parts_are_forced_and_kept_on_a_clean_manifest(tmp_path):
    (tmp_path / "m.jsonl").write_bytes(encode(ROWS))
    with mock.patch.object(pipeline_cli, "PART_BYTES", 1), mock.patch.object(pipeline_cli, "_usable_cpus", lambda: 3):
        ranges = pipeline_cli._byte_ranges(str(tmp_path / "m.jsonl"), ())
    assert len(ranges) == 3 and ranges[0][0] == 0 and ranges[-1][1] is None
    assert all(stop == start for (_, stop), (start, _) in zip(ranges, ranges[1:]))
    data = (tmp_path / "m.jsonl").read_bytes()
    assert all(data[start - 1:start] == b"\n" for start, _ in ranges[1:])
    # below two parts, or on one CPU, a verb runs in one process
    with mock.patch.object(pipeline_cli, "_usable_cpus", lambda: 2):
        assert len(pipeline_cli._byte_ranges(str(tmp_path / "m.jsonl"), ())) == 1
    with mock.patch.object(pipeline_cli, "PART_BYTES", 1), mock.patch.object(pipeline_cli, "_usable_cpus", lambda: 1):
        assert len(pipeline_cli._byte_ranges(str(tmp_path / "m.jsonl"), ())) == 1


def test_a_process_with_other_threads_runs_the_verb_in_one_process(tmp_path):
    (tmp_path / "m.jsonl").write_bytes(encode(ROWS))
    release = threading.Event()
    other = threading.Thread(target=release.wait, daemon=True)
    other.start()
    try:
        with mock.patch.object(pipeline_cli, "PART_BYTES", 1), mock.patch.object(pipeline_cli, "_usable_cpus", lambda: 3):
            assert len(pipeline_cli._byte_ranges(str(tmp_path / "m.jsonl"), ())) <= 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_an_output_written_in_place_keeps_the_verb_in_one_process(tmp_path):
    # a discarded run in parts would already have written to it
    (tmp_path / "m.jsonl").write_bytes(encode(ROWS))
    os.mkfifo(tmp_path / "out.fifo")
    with mock.patch.object(pipeline_cli, "PART_BYTES", 1), mock.patch.object(pipeline_cli, "_usable_cpus", lambda: 3):
        for out in (os.devnull, str(tmp_path / "out.fifo")):
            assert len(pipeline_cli._byte_ranges(str(tmp_path / "m.jsonl"), (None, out))) <= 1
        assert len(pipeline_cli._byte_ranges(str(tmp_path / "m.jsonl"), (None, str(tmp_path / "new.jsonl")))) == 3


@pytest.mark.parametrize("verb", VERBS)
def test_a_clean_run_in_parts_is_kept(tmp_path, verb):
    kept = []
    real = pipeline_cli._run_in_parts

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        kept.append(result)
        return result

    with mock.patch.object(pipeline_cli, "_run_in_parts", spy):
        expected = assert_parts_match_one_process(tmp_path, encode(clean_rows(verb)), verb_argv(verb), cpus=3)
    assert expected[0] == 0
    assert kept  # no fallback: the merged run's summary was returned
    assert not [name for name in expected[3] if name.startswith(".")]


CASES = {
    "malformed first line": lambda rows: ["{not json", *rows],
    "malformed last line": lambda rows: [*rows, "[1, 2]"],
    "duplicate ids in the first range": lambda rows: [rows[0], rows[0], *rows[1:]],
    "duplicate ids in the last range": lambda rows: [*rows, rows[-1]],
    "duplicate ids across ranges": lambda rows: [*rows, rows[0]],
    "unknown class in the last range": lambda rows: [*rows, dict(rows[0], id="r099", corpus_class="poetry")],
}


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_problem_in_any_range_gives_the_one_process_result(tmp_path, case, verb):
    manifest = encode(CASES[case](clean_rows(verb)))
    assert assert_parts_match_one_process(tmp_path, manifest, verb_argv(verb))[0] != 0


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("layout", [
    {"bom": True}, {"newline": "\r\n"}, {"last_newline": False}, {"newline": "\r\n", "last_newline": False},
])
def test_line_layouts_give_the_one_process_result(tmp_path, layout, verb):
    assert_parts_match_one_process(tmp_path, encode(clean_rows(verb), **layout), verb_argv(verb))


@pytest.mark.parametrize("verb, options, code", [
    ("route", {"weights": ["--weights", "praxy=lots"]}, 1),
    ("route", {"weights": ["--weights", "praxy=2"]}, 1),
    ("route", {"weights": ["--weights", "cartesia=1.0"]}, 0),
    ("balance", {"per_class": "-1"}, 1),
    ("balance", {"per_class": "0"}, 0),
    ("filter", {"rejected": []}, 0),
    ("validate", {"format": "records"}, 0),
    ("validate", {"format": "csv"}, 0),
    ("route", {"out": "{d}/m.jsonl"}, 0),
    ("rewrite-digits", {"out": "{d}/m.jsonl", "mode": "grouped"}, 0),
])
def test_options_give_the_one_process_result(tmp_path, verb, options, code):
    manifest = encode(clean_rows(verb))
    assert assert_parts_match_one_process(tmp_path, manifest, verb_argv(verb, **options))[0] == code


@pytest.mark.parametrize("verb, options, name", [
    ("filter", {"rejected": ["--rejected", "{d}/out.jsonl"]}, "out.jsonl"),
    ("filter", {"rejected": ["--rejected", "{d}/../{d.name}/out.jsonl"]}, "out.jsonl"),
    ("split", {"out": "{d}/heldout.jsonl"}, "heldout.jsonl"),
])
def test_two_outputs_naming_one_file_are_refused(tmp_path, verb, options, name):
    code, _, err, files = assert_parts_match_one_process(
        tmp_path, encode(clean_rows(verb)), verb_argv(verb, **options), cpus=3)
    assert (code, err) == (1, f"configuration error: two outputs name the same file: {tmp_path / name}\n")
    assert list(files) == ["m.jsonl"]


@pytest.mark.parametrize("cpus, range_count", [(2, 1), (3, 2)])
@pytest.mark.parametrize("verb", VERBS)
def test_a_cut_in_a_last_line_without_a_newline_gives_the_one_process_result(tmp_path, verb, cpus, range_count):
    # the last cut falls inside the long last line, which no newline ends, so
    # the range before it runs to the end of the file
    long_row = good_row(12, text=" ".join(["పరీక్ష"] * 60), status=clean_rows(verb)[0]["status"])
    manifest = encode(clean_rows(verb)[:6] + [long_row], last_newline=False)
    last_line = manifest.rindex(b"\n") + 1
    assert last_line < len(manifest) * (cpus - 1) // cpus - 1  # where _byte_ranges looks for its last cut
    (tmp_path / "m.jsonl").write_bytes(manifest)
    with mock.patch.object(pipeline_cli, "PART_BYTES", 1), mock.patch.object(pipeline_cli, "_usable_cpus", lambda: cpus):
        ranges = pipeline_cli._byte_ranges(str(tmp_path / "m.jsonl"), ())
    assert len(ranges) == range_count and ranges[-1][0] < last_line and ranges[-1][1] is None
    assert_parts_match_one_process(tmp_path, manifest, verb_argv(verb), cpus)


@pytest.mark.parametrize("verb, row", [
    ("filter", good_row(50, status="synthesized", cer_against_source=None)),
    ("split", good_row(50, status="synthesized")),
    ("split", good_row(50, synth_system=None)),
    ("rewrite-digits", good_row(50, text=THIRTEEN_DIGITS)),
])
def test_a_row_error_in_the_last_range_gives_the_one_process_result(tmp_path, verb, row):
    options = {"mode": "grouped"} if verb == "rewrite-digits" else {}
    result = assert_parts_match_one_process(tmp_path, encode([*ROWS, row]), verb_argv(verb, **options))
    assert result[0] == 2 and "r050" in result[2]


@pytest.mark.parametrize("language", ["xx", "en"])
@pytest.mark.parametrize("verb", VERBS)
def test_an_unknown_row_language_is_a_data_error_naming_the_row(tmp_path, verb, language):
    rows = clean_rows(verb)
    rows = [*rows[:6], dict(rows[0], id="r050", language=language), *rows[6:]]
    code, _, err, files = assert_parts_match_one_process(tmp_path, encode(rows), verb_argv(verb), cpus=3)
    path = tmp_path / "m.jsonl"
    assert (code, err) == (2, f"data error: malformed manifest file {path}\n  line 7: unknown language {language!r}\n")
    assert list(files) == ["m.jsonl"]


@pytest.mark.parametrize("cpus", [1, 3])
def test_route_refuses_a_row_past_pending_that_names_an_engine(tmp_path, cpus):
    # r003 is accepted and r007 synthesized, each by cartesia; r005 is accepted
    # with no engine and r009 pending with one, and both are routed
    rows = [*PENDING]
    rows[3], rows[7] = good_row(3, synth_system="cartesia"), good_row(7, status="synthesized", synth_system="cartesia")
    rows[5], rows[9] = good_row(5, synth_system=None), good_row(9, status="pending", synth_system="cartesia")
    code, out, err, files = assert_parts_match_one_process(tmp_path, encode(rows), verb_argv("route"), cpus)
    assert (code, out, err) == (2, "", "data error: route requires pending or unrouted rows\n  id 'r003'\n  id 'r007'\n")
    assert list(files) == ["m.jsonl"]
    del rows[7], rows[3]
    code, _, err, files = assert_parts_match_one_process(tmp_path, encode(rows), verb_argv("route"), cpus)
    routed = [json.loads(line) for line in files["out.jsonl"].splitlines()]
    assert (code, err) == (0, "")
    assert [(row["id"], row["status"]) for row in routed] == [(row["id"], row["status"]) for row in rows]
    assert all(row["synth_system"] for row in routed)


def split_rows(systems):
    return [good_row(i, synth_system=system) for i, system in enumerate(systems)]


@pytest.mark.parametrize("systems, warnings", [
    (["cartesia"] * 2 + ["praxy"] * 10, []),  # every held-out row in the first range
    (["praxy"] * 10 + ["cartesia"] * 2, []),  # every held-out row in the last range
    (["praxy"] * 12, ["WARNING indicscore.pipeline: held-out split is empty: no rows from cartesia"]),
    (["cartesia"] * 12, ["WARNING indicscore.pipeline: training split is empty"]),
])
def test_a_split_side_in_one_range_warns_as_the_one_process_run_does(tmp_path, systems, warnings):
    result = assert_parts_match_one_process(tmp_path, encode(split_rows(systems)), verb_argv("split"))
    assert result[0] == 0 and result[2].splitlines() == warnings


@pytest.mark.parametrize("when", ["before its summary", "after its summary"])
def test_a_child_that_exits_non_zero_falls_back_to_one_process(tmp_path, when):
    parent, real_read, real_exit = os.getpid(), pipeline_cli._read_manifest, os._exit

    def read_failing_in_children(*args):
        if os.getpid() != parent:
            real_exit(3)
        return real_read(*args)

    def exit_failing(code):
        real_exit(3)

    failure = (mock.patch.object(pipeline_cli, "_read_manifest", read_failing_in_children) if when == "before its summary"
               else mock.patch.object(os, "_exit", exit_failing))  # only children call os._exit
    raised = []
    real_parts = pipeline_cli._run_in_parts

    def spy(*args, **kwargs):
        try:
            return real_parts(*args, **kwargs)
        except Exception as exc:
            raised.append(exc)
            raise

    expected, _, _ = outcome(tmp_path, encode(PENDING), verb_argv("route"), 1)
    with failure, mock.patch.object(pipeline_cli, "_run_in_parts", spy):
        got, forks, _ = outcome(tmp_path, encode(PENDING), verb_argv("route"), 2)
    assert forks and raised and got == expected and expected[0] == 0


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


# Per verb, options that make a call exit 1.
BAD_OPTIONS = {
    "validate": {"format": "xml"},
    "route": {"weights": ["--weights", "praxy=lots"]},
    "filter": {"rejected": ["--rejected", "{d}/out.jsonl"]},
    "split": {"out": "{d}/heldout.jsonl"},
    "balance": {"per_class": "-1"},
    "rewrite-digits": {"mode": "spoken"},
}


# The CLI ends with os._exit, so no interpreter teardown turns a file left
# open into a ResourceWarning; this is the check that each call closes its own.
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("cpus", [1, 3])
def test_a_run_in_parts_leaves_no_file_descriptor_open(tmp_path, cpus):
    before = open_fds()
    for verb in VERBS:
        rows = clean_rows(verb)
        # kept, discarded for an id in two ranges, and refused options
        for manifest, options, code in [(rows, {}, 0), ([*rows, rows[0]], {}, 2), (rows, BAD_OPTIONS[verb], 1)]:
            (got, *_), _, _ = outcome(tmp_path, encode(manifest), verb_argv(verb, **options), cpus)
            assert (got, open_fds()) == (code, before), verb


def test_a_run_in_parts_raises_no_resource_warning(tmp_path):
    code = (
        "import sys\n"
        "from indicscore import cli, pipeline_cli\n"
        "pipeline_cli.PART_BYTES, pipeline_cli._usable_cpus = 1, lambda: 3\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for verb in VERBS:
        status = clean_rows(verb)[0]["status"]
        (tmp_path / "m.jsonl").write_bytes(encode([good_row(i, status=status) for i in range(40)]))
        argv = [arg.format(d=tmp_path) for arg in verb_argv(verb)]
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, ""), verb


# A manifest line: a row, whose id the test may make repeat an earlier one, or
# a line that is not a row.
LINE = st.one_of(
    st.fixed_dictionaries(
        {"language": st.sampled_from(sorted(TEXTS)), "corpus_class": st.sampled_from(CORPUS_CLASSES)},
        optional={"synth_system": st.sampled_from(["praxy", "cartesia", "elevenlabs"]),
                  "status": st.sampled_from(["synthesized", "accepted"]),
                  "cer_against_source": st.sampled_from([0.0, 0.5, 0.9])},
    ).flatmap(lambda row: st.sampled_from(TEXTS[row["language"]] + [THIRTEEN_DIGITS]).map(
        lambda text: dict(row, text=text))),
    st.sampled_from(["{not json", "[1, 2]", "", '{"id": "r999"}']),
)
OPTIONS = st.fixed_dictionaries({}, optional={
    "weights": st.sampled_from([["--weights", "cartesia=1.0"], ["--weights", "praxy=0.5,cartesia=0.5"],
                                ["--weights", "praxy=lots"]]),
    "per_class": st.sampled_from(["-1", "0", "1", "3"]),
    "mode": st.sampled_from(["grouped", "digit_by_digit"]),
    "format": st.sampled_from(["table", "records", "csv"]),
    "out": st.just("{d}/m.jsonl"),
})


@pytest.mark.parametrize("verb", VERBS)
@settings(max_examples=15, deadline=None)
@given(
    lines=st.lists(st.tuples(LINE, st.sampled_from([False] * 9 + [True])), min_size=1, max_size=14),
    layout=st.fixed_dictionaries({"newline": st.sampled_from(["\n", "\r\n"]), "bom": st.booleans(),
                                  "last_newline": st.booleans()}),
    options=OPTIONS,
    cpus=st.integers(2, 4),
)
def test_any_manifest_gives_the_one_process_result(tmp_path_factory, verb, lines, layout, options, cpus):
    if verb == "validate":
        options.pop("out", None)
    manifest = [
        line if isinstance(line, str) else dict(line, id=f"r{0 if repeat else i:03d}")
        for i, (line, repeat) in enumerate(lines)
    ]
    directory = tmp_path_factory.mktemp("parts")
    assert_parts_match_one_process(directory, encode(manifest, **layout), verb_argv(verb, **options), cpus)


@pytest.mark.parametrize("cpus", [2, 3])
def test_an_id_repeated_in_a_later_chunk_of_a_child_gives_the_one_process_result(tmp_path, cpus):
    # The last child's ids arrive in chunks of two; the id it repeats, from
    # the range just before its own, is in its second chunk. With 3 CPUs
    # that range is another child's, so its chunks must have joined the ids seen.
    rows = [good_row(i, status="pending") for i in range(12)]
    (tmp_path / "m.jsonl").write_bytes(encode(rows))
    with mock.patch.object(pipeline_cli, "PART_BYTES", 1), mock.patch.object(pipeline_cli, "_usable_cpus", lambda: cpus):
        ranges = pipeline_cli._byte_ranges(str(tmp_path / "m.jsonl"), ())
    assert len(ranges) == cpus
    first = (tmp_path / "m.jsonl").read_bytes()[:ranges[-1][0]].count(b"\n")  # the last range's first line
    rows[first + 2]["id"] = rows[first - 1]["id"]  # an id of the same length: the ranges do not move
    raised = []
    real_parts = pipeline_cli._run_in_parts

    def spy(*args, **kwargs):
        try:
            return real_parts(*args, **kwargs)
        except RuntimeError as exc:
            raised.append(str(exc))
            raise

    with mock.patch.object(pipeline_cli, "ID_CHUNK", 2), mock.patch.object(pipeline_cli, "_run_in_parts", spy):
        code, _, err, _ = assert_parts_match_one_process(tmp_path, encode(rows), verb_argv("route"), cpus)
    assert raised == ["an id is in two ranges"]
    assert code == 2 and f"duplicate id {rows[first - 1]['id']!r}" in err


# Every (language, corpus class) pair, codemix included, four times over.
ROUTE_ROWS = [
    {"id": f"r{i:03d}", "text": TEXTS[lang][i % len(TEXTS[lang])], "language": lang,
     "corpus_class": CORPUS_CLASSES[(i // 3) % len(CORPUS_CLASSES)], "status": "pending"}
    for i, lang in zip(range(72), itertools.cycle(["te", "ta", "hi"]))
]


# The sha256 of the routed file and of stdout per weight set. The last set
# sums just under 1 and every draw is the top of the unit interval, so the
# top-end guard takes praxy, the last bucket in name order, and a Hindi row
# drawn into praxy still goes to chatterbox.
@pytest.mark.parametrize("weights, draw, out_sha, stdout_sha", [
    ([], None,
     "cf4f6828625773978d68cc0e610e72501cb02e6b397b741130703a074fa77179",
     "72d6e9029fb11676d9b3418d3a82cd70ebe4bf2569d42ce38b50ce773f180390"),
    (["--weights", "cartesia=1.0"], None,
     "ab4ead8e2874b15ecd19ff0fc3bbaae8ac1682bc149d5b1b220a0d7a65afb21c",
     "b9ea270ab0acc62842b3f81015794e015c7bb469c77a4604b4bdc1247055b1f1"),
    (["--weights", "elevenlabs=0.5,cartesia=0.5"], None,
     "f5813e73b6fba9300c1ac65aa6d34dc4eb24943aed7b44c270c5dc8a47dca27b",
     "b0a4abb1518ca64b281230fe48cfcbb331fd1e576a2a4127b8011e14ea7105ed"),
    (["--weights", "praxy=0,elevenlabs=0.5,cartesia=0.5"], None,
     "f5813e73b6fba9300c1ac65aa6d34dc4eb24943aed7b44c270c5dc8a47dca27b",
     "b0a4abb1518ca64b281230fe48cfcbb331fd1e576a2a4127b8011e14ea7105ed"),
    (["--weights", "cartesia=0.5,praxy=0.4999999995"], math.nextafter(1.0, 0.0),
     "307c49acbcb6ca384971cdbbb566f1e7c9f2bc659b1fae17c0ce2bff56ecf2d2",
     "4747954772092e973ff5a61fbb63f2fbaa4dfd1cfbffb577b6f3cd9ded1eb78a"),
], ids=["default", "cartesia", "no praxy", "praxy at 0", "top-end guard"])
@pytest.mark.parametrize("cpus", [1, 3])
def test_route_output_is_pinned(tmp_path, cpus, weights, draw, out_sha, stdout_sha):
    unit_hash = pipeline._unit_interval_hash if draw is None else (lambda seed, row_id: draw)
    with mock.patch.object(pipeline, "_unit_interval_hash", unit_hash):
        (code, stdout, stderr, files), forks, _ = outcome(
            tmp_path, encode(ROUTE_ROWS), verb_argv("route", weights=weights), cpus)
    assert (code, stderr, bool(forks)) == (0, "", cpus > 1)
    assert hashlib.sha256(files["out.jsonl"]).hexdigest() == out_sha
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == stdout_sha


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_duplicate_id_names_its_first_line_whose_required_fields_pass(tmp_path, cpus):
    # lines 13-15 share an id; line 13 lacks its text, so line 14 is the first seen
    no_text = {key: value for key, value in good_row(99).items() if key != "text"}
    rows = [*ROWS, no_text, good_row(99), good_row(99)]
    code, _, err, _ = assert_parts_match_one_process(tmp_path, encode(rows), verb_argv("validate"), cpus)
    assert code == 2
    assert "line 13: missing or invalid field 'text'" in err
    assert "line 15: duplicate id 'r099' (first seen on line 14)" in err
    # a range's own read names the line within the range
    path = tmp_path / "m.jsonl"
    with mock.patch.object(pipeline_cli, "PART_BYTES", 1), mock.patch.object(pipeline_cli, "_usable_cpus", lambda: 3):
        start, stop = pipeline_cli._byte_ranges(str(path), ())[-1]
    before = path.read_bytes()[:start].count(b"\n")  # the lines of the ranges before the last
    assert 0 < before < 13
    with pytest.raises(DataError) as exc:
        list(pipeline_cli._read_manifest(path, {}, start, stop))
    assert f"line {15 - before}: duplicate id 'r099' (first seen on line {14 - before})" in exc.value.details
