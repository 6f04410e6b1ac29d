"""The manifest loader and the row model against their reference forms.

``oracle_read_manifest`` is the loader as it was before rows were built
without ``__init__``: ``json.loads`` on every line, each required field
through ``_required_str``, and every row and token through its dataclass
constructor. The loader must give the same rows and the same DataError.
"""

import dataclasses
import json
import unicodedata

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_manifest_row
from indicscore.corpus import (
    _SURROGATE_ESCAPE,
    CLASS_TO_MATCHER,
    CORPUS_CLASSES,
    MANIFEST_STATUSES,
    MATCHER_CLASSES,
    SYNTH_SYSTEMS,
    EntityToken,
    ManifestRow,
    _evolve,
    _has_lone_surrogate,
    _required_str,
    manifest_line,
    read_manifest,
)
from indicscore.errors import ConfigurationError, DataError
from indicscore.textnorm import _strip_edges


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

def oracle_iter_jsonl(path, problems):
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                problems.append(f"line {lineno}: not valid UTF-8")
                continue
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: invalid JSON ({exc.msg})")
                continue
            if not isinstance(record, dict):
                problems.append(f"line {lineno}: expected a JSON object")
                continue
            if _SURROGATE_ESCAPE.search(raw) and _has_lone_surrogate(record):
                problems.append(f"line {lineno}: a string holds an unpaired surrogate escape")
                continue
            yield lineno, record


def oracle_parse_entity_tokens(raw, row_class, language, lineno, problems):
    if raw is None:
        return ()
    if not isinstance(raw, list):
        problems.append(f"line {lineno}: entity_tokens must be a list")
        return ()
    tokens = []
    for item in raw:
        if isinstance(item, str):
            matcher_class = CLASS_TO_MATCHER.get(row_class)
            if matcher_class is None:
                problems.append(
                    f"line {lineno}: rows of class {row_class!r} need explicit matcher"
                    f" classes for entity tokens (got bare string {item!r})"
                )
                continue
            surface, cls, lang = item, matcher_class, language
        elif isinstance(item, dict):
            surface = item.get("surface")
            cls = item.get("matcher_class", item.get("class"))
            lang = item.get("language", language)
            if not isinstance(surface, str) or not surface:
                problems.append(f"line {lineno}: entity token needs a non-empty 'surface'")
                continue
            if lang is not None and not isinstance(lang, str):
                problems.append(f"line {lineno}: entity token language must be a string")
                continue
            if cls is None and row_class in CLASS_TO_MATCHER:
                cls = CLASS_TO_MATCHER[row_class]
        else:
            problems.append(f"line {lineno}: entity token must be a string or object")
            continue
        if cls not in MATCHER_CLASSES:
            problems.append(f"line {lineno}: unknown matcher class {cls!r} for {surface!r}")
            continue
        tokens.append(EntityToken(surface=surface, matcher_class=cls, language=lang))
    return tuple(tokens)


def oracle_read_manifest(path):
    problems = []
    seen = {}
    for lineno, record in oracle_iter_jsonl(path, problems):
        row_id = _required_str(record, "id", lineno, problems)
        text = _required_str(record, "text", lineno, problems)
        language = _required_str(record, "language", lineno, problems)
        corpus_class = _required_str(record, "corpus_class", lineno, problems)
        if None in (row_id, text, language, corpus_class):
            continue
        if row_id in seen:
            problems.append(f"line {lineno}: duplicate id {row_id!r} (first seen on line {seen[row_id]})")
            continue
        seen[row_id] = lineno
        if corpus_class not in CORPUS_CLASSES:
            problems.append(f"line {lineno}: unknown corpus_class {corpus_class!r}")
            continue
        synth_system = record.get("synth_system")
        if synth_system is not None and synth_system not in SYNTH_SYSTEMS:
            problems.append(f"line {lineno}: unknown synth_system {synth_system!r}")
            continue
        cer_value = record.get("cer_against_source")
        if cer_value is not None:
            if isinstance(cer_value, bool) or not isinstance(cer_value, (int, float)):
                problems.append(f"line {lineno}: cer_against_source must be a number")
                continue
            try:
                cer_value = float(cer_value)
            except OverflowError:
                cer_value = float("inf")
            if not 0.0 <= cer_value < float("inf"):
                problems.append(f"line {lineno}: cer_against_source must be finite and not negative")
                continue
        status = record.get("status", "pending")
        if status not in MANIFEST_STATUSES:
            problems.append(f"line {lineno}: unknown status {status!r}")
            continue
        tokens = oracle_parse_entity_tokens(
            record.get("entity_tokens"), corpus_class, language, lineno, problems
        )
        yield ManifestRow(
            id=row_id,
            text=text,
            language=language,
            corpus_class=corpus_class,
            synth_system=synth_system,
            cer_against_source=cer_value,
            status=status,
            entity_tokens=tokens,
        )
    if problems:
        raise DataError(f"malformed manifest file {path}", problems)


def outcome(rows_iter):
    """The rows given before the iteration ended, and how it ended."""
    rows = []
    try:
        for row in rows_iter:
            rows.append(row)
    except (DataError, ConfigurationError) as exc:
        return rows, (type(exc), str(exc), getattr(exc, "details", None))
    return rows, None


# ---------------------------------------------------------------------------
# Generated manifest lines
# ---------------------------------------------------------------------------

IDS = st.sampled_from(["m1", "m2", "m3", "ఒక", ""])  # a small pool, so ids repeat
STRS = st.one_of(
    # a lone surrogate is written as an escape or, unescaped, as bytes that are not UTF-8
    st.sampled_from(["", "x", "ఇది ఒక వాక్యం", "a\u2028b\u0085c", "\\ud800", "a\ud800", "\ud83d\ude00", "😀"]),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
)
ODD = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.just([]), st.just({}), st.just(1.5))
CERS = st.one_of(
    st.sampled_from([0, 1, 7, 0.0, -0.0, 0.25, 2.5, -0.01, 10**400, -(10**400), True, False, "low"]),
    st.floats(),  # NaN and the infinities are written as JSON's NaN / Infinity
    st.integers(),
)
TOKEN_ITEMS = st.one_of(
    st.sampled_from(["", "500081", "ஸ்விக்கி"]),
    st.fixed_dictionaries(
        {},
        optional={
            "surface": st.one_of(STRS, ODD),
            "matcher_class": st.one_of(st.sampled_from(MATCHER_CLASSES + ("poetry",)), st.none()),
            "class": st.sampled_from(MATCHER_CLASSES),
            "language": st.one_of(st.sampled_from(["te", "hi"]), ODD),
        },
    ),
    st.integers(0, 2),
    st.none(),
)
# Every kind of value a file may hold for each field, good and bad.
FIELDS = {
    "id": st.one_of(IDS, ODD),
    "text": st.one_of(STRS, ODD),
    "language": st.one_of(st.sampled_from(["te", "ta", "hi"]), STRS, ODD),
    "corpus_class": st.one_of(st.sampled_from(CORPUS_CLASSES + ("poetry",)), ODD),
    "synth_system": st.one_of(st.sampled_from(SYNTH_SYSTEMS + ("google",)), ODD),
    "cer_against_source": CERS,
    "status": st.one_of(st.sampled_from(MANIFEST_STATUSES + ("lost",)), ODD),
    "entity_tokens": st.one_of(st.lists(TOKEN_ITEMS, max_size=3), ODD),
}
RECORDS = st.fixed_dictionaries({}, optional={**FIELDS, "extra": st.just({"kept": "out"})})
GOOD_TOKENS = st.one_of(
    st.sampled_from(["500081", "ஸ்விக்கி"]),  # bare strings need a class with one matcher
    st.fixed_dictionaries(
        {"surface": st.sampled_from(["a", "₹500"])},
        optional={
            "matcher_class": st.sampled_from(MATCHER_CLASSES),
            "class": st.sampled_from(MATCHER_CLASSES),
            "language": st.sampled_from(["te", "hi", None]),
        },
    ),
)
# A record that passes every check, apart from its tokens at times.
GOOD_RECORDS = st.fixed_dictionaries(
    {
        "id": IDS.filter(bool),
        "text": STRS.filter(bool),
        "language": st.sampled_from(["te", "ta", "hi"]),
        "corpus_class": st.sampled_from(CORPUS_CLASSES),
    },
    optional={
        "synth_system": st.sampled_from(SYNTH_SYSTEMS),
        "cer_against_source": st.one_of(st.floats(0, 3), st.integers(0, 5), st.just(10**30)),
        "status": st.sampled_from(MANIFEST_STATUSES),
        "entity_tokens": st.lists(GOOD_TOKENS, max_size=3),
        "extra": st.just({"kept": "out"}),
    },
)
# What json.dumps may write for a record, and what a hand-edited file may hold.
DUMPS = st.fixed_dictionaries(
    {"ensure_ascii": st.booleans(), "sort_keys": st.booleans()},
    optional={"separators": st.sampled_from([(",", ":"), (", ", ": ")]), "indent": st.just(None)},
)
WRAPS = st.sampled_from([  # "@" stands for the record
    "@\n", "@", "@\r\n", " @\n", "@ \n", "\t@\t\n", "\ufeff@\n", "@ @\n", "@x\n", "@}\n",
    "[@]\n", "\n", "   \n",
])
NON_OBJECTS = st.sampled_from(['[1, 2]\n', '"text"\n', "3\n", "null\n", "true\n", "NaN\n", "]\n", "}\n"])


@st.composite
def manifest_lines(draw):
    kind = draw(st.sampled_from(["good", "good", "one_bad", "any", "non_object"]))
    if kind == "non_object":
        return draw(NON_OBJECTS).encode("utf-8")
    record = draw(RECORDS if kind == "any" else GOOD_RECORDS)
    if kind == "one_bad":  # one field dropped or set to any value
        key = draw(st.sampled_from(sorted(FIELDS)))
        record.pop(key, None)
        if draw(st.booleans()):
            record[key] = draw(FIELDS[key])
    body = json.dumps(record, **draw(DUMPS))
    raw = body.join(draw(WRAPS).split("@")).encode("utf-8", "surrogatepass")
    if draw(st.integers(0, 9)) == 0:  # mutate one byte
        at = draw(st.integers(0, max(0, len(raw) - 1)))
        byte = draw(st.sampled_from([b"", b"{", b"}", b'"', b"\\", b"\n", b"\xff", b" ", b"0"]))
        raw = raw[:at] + byte + raw[at + 1:]
    return raw


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(manifest_lines(), max_size=6))
def test_loader_gives_the_oracles_rows_and_errors(tmp_path, lines):
    path = tmp_path / "m.jsonl"
    path.write_bytes(b"".join(lines))
    rows, ended = outcome(read_manifest(path))
    oracle_rows, oracle_ended = outcome(oracle_read_manifest(path))
    if oracle_ended is not None and oracle_ended[0] is ConfigurationError:
        # The oracle raised for an empty bare-string token, a data error the
        # loader now reports with its line, among the file's other problems.
        assert oracle_ended[1] == "entity token surface must be non-empty"
        assert ended[0] is DataError
        assert any(d.endswith(": entity token needs a non-empty 'surface'") for d in ended[2])
        return
    assert rows == oracle_rows
    assert [manifest_line(r) for r in rows] == [manifest_line(r) for r in oracle_rows]
    assert [list(vars(r)) for r in rows] == [list(vars(r)) for r in oracle_rows]
    assert ended == oracle_ended


@pytest.mark.parametrize(
    "text",
    [
        '{"id": "m1", "text": "x", "language": "te", "corpus_class": "digits"}\r\n',
        '\ufeff{"id": "m1", "text": "x", "language": "te", "corpus_class": "digits"}\n',
        ' {"id": "m1", "text": "x", "language": "te", "corpus_class": "digits"}\n',
        '{"id": "m1", "text": "x", "language": "te", "corpus_class": "digits"} {}\n',
        '{"id": "m1", "text": "x", "language": "te", "corpus_class": "digits"}x}\n',
        '{"id": "m1", "text": "x", "language": "te", "corpus_class": "digits", "status": [1]}\n',
        '{"id": "m1", "text": "x", "language": "te", "corpus_class": "digits"}',
        '[{"id": "m1"}]\n',
        "}\n",
        "\n",
    ],
)
def test_loader_gives_the_oracles_result_on_lines_the_scanner_passes_on(tmp_path, text):
    path = tmp_path / "m.jsonl"
    path.write_text(text, encoding="utf-8")
    assert outcome(read_manifest(path)) == outcome(oracle_read_manifest(path))


# ---------------------------------------------------------------------------
# The row model
# ---------------------------------------------------------------------------

TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
TOKENS = st.builds(
    EntityToken,
    surface=TEXT.filter(bool),
    matcher_class=st.sampled_from(MATCHER_CLASSES),
    language=st.one_of(st.none(), TEXT),
)
ROWS = st.builds(
    ManifestRow,
    id=TEXT,
    text=TEXT,
    language=TEXT,
    corpus_class=st.sampled_from(CORPUS_CLASSES),
    synth_system=st.one_of(st.none(), st.sampled_from(SYNTH_SYSTEMS)),
    cer_against_source=st.one_of(st.none(), st.floats(allow_nan=False)),
    status=st.sampled_from(MANIFEST_STATUSES),
    entity_tokens=st.lists(TOKENS, max_size=3).map(tuple),
)
CHANGES = st.fixed_dictionaries(
    {},
    optional={
        "text": TEXT,
        "synth_system": st.one_of(st.none(), st.sampled_from(SYNTH_SYSTEMS)),
        "status": st.sampled_from(MANIFEST_STATUSES),
        "cer_against_source": st.floats(0, 1),
    },
)


@settings(max_examples=200, deadline=None)
@given(ROWS, CHANGES)
def test_evolve_equals_dataclasses_replace(row, changes):
    evolved = _evolve(row, **changes)
    replaced = dataclasses.replace(row, **changes)
    assert evolved == replaced and hash(evolved) == hash(replaced)
    assert repr(evolved) == repr(replaced)
    assert manifest_line(evolved) == manifest_line(replaced)
    assert evolved is not row and type(evolved) is ManifestRow


def test_loaded_rows_and_tokens_behave_as_constructed_ones(tmp_path):
    token = EntityToken(surface="500081", matcher_class="pincode", language="te")
    built = make_manifest_row(
        1, synth_system="praxy", cer_against_source=0.25, status="synthesized", entity_tokens=(token,)
    )
    path = tmp_path / "m.jsonl"
    path.write_text(manifest_line(built), encoding="utf-8")
    (loaded,) = read_manifest(path)
    (loaded_token,) = loaded.entity_tokens
    assert loaded == built and hash(loaded) == hash(built) and repr(loaded) == repr(built)
    assert loaded_token == token and hash(loaded_token) == hash(token)
    assert {loaded, built} == {built} and {loaded_token, token} == {token}
    for instance, name in [(loaded, "status"), (loaded, "id"), (loaded_token, "surface")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, name, "changed")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(instance, name)
    assert dataclasses.replace(loaded, status="accepted") == _evolve(built, status="accepted")
    assert dataclasses.asdict(loaded) == dataclasses.asdict(built)


# ---------------------------------------------------------------------------
# Token edges
# ---------------------------------------------------------------------------

def category_loop_strip(token):
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start])[0] in "PS":
        start += 1
    while end > start and unicodedata.category(token[end - 1])[0] in "PS":
        end -= 1
    return token[start:end]


EDGE = st.characters(categories=["P", "S", "M", "L", "N"])


@settings(max_examples=300, deadline=None)
@given(st.text(EDGE, max_size=4), st.text(max_size=6), st.text(EDGE, max_size=4))
def test_strip_edges_equals_the_category_loop(head, middle, tail):
    token = head + middle + tail
    assert _strip_edges(token) == category_loop_strip(token)

