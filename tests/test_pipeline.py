import collections
import hashlib

import math
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import make_manifest_row
from indicscore import pipeline
from indicscore.corpus import CORPUS_CLASSES, SYNTH_SYSTEMS
from indicscore.manifest import with_status
from indicscore.errors import ConfigurationError, DataError
from indicscore.pipeline import (
    _sha256,
    _unit_interval_hash,
    DEFAULT_WEIGHTS,
    HELDOUT_SYSTEM,
    RouterPolicy,
    apply_cer_filter,
    class_balance,
    render_distribution_table,
    route_rows,
    route_utterance,
    split_heldout,
    synth_distribution,
)


def route_utterance_oracle(row, policy):
    """route_utterance as it was when it sorted the weights on every row."""
    if row.corpus_class == "codemix":  # code-mixed rows go to the one engine that speaks them
        return "indicf5"
    draw = pipeline._unit_interval_hash(policy.seed, row.id)
    bucket = None
    cumulative = 0.0
    for name, weight in sorted(policy.weights.items()):
        cumulative += weight
        if draw < cumulative:
            bucket = name
            break
    if bucket is None:  # guard against top-end float rounding
        bucket = sorted(policy.weights)[-1]
    if bucket == "praxy" and row.language == "hi":  # Hindi rows drawn into praxy go to chatterbox
        return "chatterbox"
    return bucket


def many_rows(n, language="te", corpus_class="digits"):
    return [make_manifest_row(i, language=language, corpus_class=corpus_class) for i in range(n)]


# ---------------------------------------------------------------------------
# Policy validation
# ---------------------------------------------------------------------------

def test_default_policy_weights():
    assert DEFAULT_WEIGHTS == {"praxy": 0.6, "elevenlabs": 0.2, "cartesia": 0.2}
    RouterPolicy()  # sanity check: defaults self-validate


def test_policy_rejects_unknown_backend():
    with pytest.raises(ConfigurationError):
        RouterPolicy(weights={"praxy": 0.5, "googletts": 0.5})


def test_policy_rejects_negative_weight():
    with pytest.raises(ConfigurationError):
        RouterPolicy(weights={"praxy": 1.2, "cartesia": -0.2})
    with pytest.raises(ConfigurationError):
        RouterPolicy(weights={"praxy": float("nan"), "elevenlabs": 0.5, "cartesia": 0.5})


def test_policy_rejects_bad_sum():
    with pytest.raises(ConfigurationError):
        RouterPolicy(weights={"praxy": 0.5, "cartesia": 0.4})
    with pytest.raises(ConfigurationError, match="router weights must not be empty"):
        RouterPolicy(weights={})


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def test_routing_proportions_within_tolerance():
    policy = RouterPolicy(seed=11)
    counts = collections.Counter(route_utterance(row, policy) for row in many_rows(10_000))
    total = sum(counts.values())
    for backend, weight in DEFAULT_WEIGHTS.items():
        assert counts[backend] / total == pytest.approx(weight, abs=0.02)


def test_codemix_always_overridden():
    policy = RouterPolicy(seed=3)
    rows = many_rows(500, corpus_class="codemix")
    assert {route_utterance(row, policy) for row in rows} == {"indicf5"}


def test_hindi_praxy_bucket_relabelled():
    policy = RouterPolicy(seed=5)
    counts = collections.Counter(
        route_utterance(row, policy) for row in many_rows(6_000, language="hi")
    )
    assert counts["praxy"] == 0
    assert counts["chatterbox"] / 6_000 == pytest.approx(0.6, abs=0.02)
    assert counts["elevenlabs"] / 6_000 == pytest.approx(0.2, abs=0.02)


def test_routing_is_deterministic_per_id_and_seed():
    row = make_manifest_row(7)
    assert route_utterance(row, RouterPolicy(seed=9)) == route_utterance(row, RouterPolicy(seed=9))
    picks = {route_utterance(row, RouterPolicy(seed=s)) for s in range(40)}
    assert len(picks) > 1  # the seed actually matters


@given(seed=st.integers(), row_id=st.text(st.characters(blacklist_categories=("Cs",))))
def test_routing_hash_is_hashlib_sha256(seed, row_id):
    data = f"{seed}:{row_id}".encode("utf-8")
    digest = hashlib.sha256(data).digest()
    assert _sha256(data).digest() == digest
    assert _unit_interval_hash(seed, row_id) == int.from_bytes(digest[:8], "big") / 2**64


def test_routing_depends_on_id_not_position():
    policy = RouterPolicy(seed=2)
    rows = many_rows(50)
    by_id = {row.id: route_utterance(row, policy) for row in rows}
    for row in reversed(rows):
        assert route_utterance(row, policy) == by_id[row.id]


def test_route_rows_assigns_and_preserves_order():
    rows = many_rows(20)
    routed = route_rows(rows, RouterPolicy(seed=1))
    assert [r.id for r in routed] == [r.id for r in rows]
    assert all(r.synth_system is not None for r in routed)
    assert all(r.status == "pending" for r in routed)


def test_custom_weights_can_drop_backends():
    policy = RouterPolicy(weights={"cartesia": 1.0})
    assert {route_utterance(r, policy) for r in many_rows(50)} == {"cartesia"}
    # with no praxy bucket Hindi rows keep their draw; code-mixed rows still skip it
    assert {route_utterance(r, policy) for r in many_rows(50, language="hi")} == {"cartesia"}
    assert {route_utterance(r, policy) for r in many_rows(50, language="hi", corpus_class="codemix")} == {"indicf5"}


@st.composite
def policies(draw):
    backends = draw(st.lists(st.sampled_from(SYNTH_SYSTEMS), min_size=1, max_size=5, unique=True))
    raw = draw(st.lists(st.floats(0, 1), min_size=len(backends), max_size=len(backends)))
    assume(sum(raw) > 0)
    # a sum just under 1 leaves the top-end guard a draw to catch
    shortfall = draw(st.sampled_from([0.0, 5e-10, 9.9e-10]))
    weights = {b: w / sum(raw) * (1 - shortfall) for b, w in zip(backends, raw)}
    assume(abs(sum(weights.values()) - 1.0) <= 1e-9)
    return RouterPolicy(weights=weights, seed=draw(st.integers(-10, 10**6)))


@given(
    policy=policies(),
    row_id=st.text(min_size=1, max_size=12),
    language=st.sampled_from(["te", "ta", "hi"]),
    corpus_class=st.sampled_from(CORPUS_CLASSES),
    draw=st.none() | st.floats(0, 1, exclude_max=True) | st.just(math.nextafter(1.0, 0.0)),
)
def test_route_utterance_matches_the_per_row_sort(policy, row_id, language, corpus_class, draw):
    row = make_manifest_row(0, language=language, corpus_class=corpus_class, id=row_id)
    # draw None keeps the real hash; a fixed draw reaches the top of the unit interval
    unit_hash = _unit_interval_hash if draw is None else (lambda seed, row_id: draw)
    with mock.patch.object(pipeline, "_unit_interval_hash", unit_hash):
        assert route_utterance(row, policy) == route_utterance_oracle(row, policy)


def test_the_top_end_guard_takes_the_last_bucket():
    policy = RouterPolicy(weights={"cartesia": 0.5, "praxy": 0.5 - 9e-10})
    row = make_manifest_row(0)
    with mock.patch.object(pipeline, "_unit_interval_hash", lambda seed, row_id: 1 - 1e-12):
        assert route_utterance(row, policy) == route_utterance_oracle(row, policy) == "praxy"


# ---------------------------------------------------------------------------
# CER filter
# ---------------------------------------------------------------------------

def test_cer_filter_boundary():
    rows = [
        make_manifest_row(1, synth_system="praxy", cer_against_source=0.50, status="synthesized"),
        make_manifest_row(2, synth_system="praxy", cer_against_source=0.51, status="synthesized"),
        make_manifest_row(3, synth_system="praxy", cer_against_source=0.0, status="synthesized"),
    ]
    result = apply_cer_filter(rows, 0.5)
    assert [r.id for r in result.accepted] == ["row0001", "row0003"]
    assert [r.id for r in result.rejected] == ["row0002"]
    assert all(r.status == "accepted" for r in result.accepted)
    assert all(r.status == "filtered_out" for r in result.rejected)


def test_cer_filter_missing_cer_is_an_error():
    rows = [
        make_manifest_row(1, synth_system="praxy", cer_against_source=0.1),
        # a status that cannot move is reported only when no CER is missing
        make_manifest_row(4, synth_system="praxy", cer_against_source=0.1, status="filtered_out"),
        make_manifest_row(2, synth_system="praxy"),
        make_manifest_row(3, synth_system="praxy"),
    ]
    with pytest.raises(DataError) as exc:
        apply_cer_filter(rows)
    assert exc.value.details == ["id 'row0002'", "id 'row0003'"]
    with pytest.raises(DataError, match="cannot move status 'filtered_out' -> 'accepted'"):
        apply_cer_filter(rows[:2])


def test_cer_filter_empty_input():
    result = apply_cer_filter([])
    assert result.accepted == () and result.rejected == ()


# ---------------------------------------------------------------------------
# Held-out split
# ---------------------------------------------------------------------------

def accepted_routed_rows(n, seed=0):
    rows = route_rows(many_rows(n), RouterPolicy(seed=seed))
    return [with_status(r, "accepted") for r in rows]


def test_split_partitions_exactly():
    rows = accepted_routed_rows(300)
    result = split_heldout(rows)
    train_ids = {r.id for r in result.train}
    heldout_ids = {r.id for r in result.heldout}
    assert train_ids.isdisjoint(heldout_ids)
    assert train_ids | heldout_ids == {r.id for r in rows}
    assert all(r.synth_system == HELDOUT_SYSTEM for r in result.heldout)
    assert all(r.synth_system != HELDOUT_SYSTEM for r in result.train)


def test_split_requires_accepted():
    rows = route_rows(many_rows(5), RouterPolicy(seed=0)) + [make_manifest_row(9)]
    # the unaccepted rows are reported first, the unrouted one among them
    with pytest.raises(DataError, match="accepted rows only") as exc:
        split_heldout(rows)
    assert len(exc.value.details) == 6


def test_split_requires_routed():
    rows = [with_status(r, "accepted") for r in many_rows(5)]
    with pytest.raises(DataError):
        split_heldout(rows)


# ---------------------------------------------------------------------------
# Distribution table
# ---------------------------------------------------------------------------

def test_synth_distribution_counts():
    rows = [
        make_manifest_row(1, synth_system="praxy"),
        make_manifest_row(2, synth_system="praxy"),
        make_manifest_row(3, language="hi", synth_system="cartesia"),
        make_manifest_row(4),
    ]
    counts = synth_distribution(rows)
    assert counts[("te", "praxy")] == 2
    assert counts[("hi", "cartesia")] == 1
    assert counts[("te", "unrouted")] == 1


def test_render_distribution_table():
    rows = [
        make_manifest_row(1, synth_system="praxy"),
        make_manifest_row(2, language="hi", synth_system="cartesia"),
    ]
    table = render_distribution_table(rows)
    lines = table.splitlines()
    assert lines[0].split() == ["lang", "praxy", "cartesia", "total"]
    assert lines[-1].split() == ["total", "1", "1", "2"]


def test_render_distribution_table_bytes_with_unrouted_column():
    rows = [
        make_manifest_row(1, synth_system="praxy"),
        make_manifest_row(2, synth_system="praxy"),
        make_manifest_row(3, language="hi", synth_system="cartesia"),
        make_manifest_row(4, language="ta"),
    ]
    assert render_distribution_table(rows) == (
        "lang   praxy  cartesia  unrouted  total\n"
        "hi         0         1         0      1\n"
        "ta         0         0         1      1\n"
        "te         2         0         0      2\n"
        "total      2         1         1      4"
    )


# ---------------------------------------------------------------------------
# Class balancing
# ---------------------------------------------------------------------------

def test_class_balance_caps_each_class():
    rows = (
        [make_manifest_row(i, corpus_class="digits") for i in range(10)]
        + [make_manifest_row(100 + i, corpus_class="currency") for i in range(4)]
    )
    balanced = class_balance(rows, per_class_target=5, seed=1)
    by_class = collections.Counter(r.corpus_class for r in balanced)
    assert by_class == {"digits": 5, "currency": 4}


def test_class_balance_preserves_input_order():
    rows = [make_manifest_row(i, corpus_class="digits" if i % 2 else "currency") for i in range(20)]
    balanced = class_balance(rows, per_class_target=6, seed=3)
    positions = {r.id: i for i, r in enumerate(rows)}
    assert [positions[r.id] for r in balanced] == sorted(positions[r.id] for r in balanced)


def test_class_balance_deterministic_and_seed_sensitive():
    rows = [make_manifest_row(i, corpus_class="digits") for i in range(50)]
    first = class_balance(rows, per_class_target=10, seed=4)
    assert class_balance(rows, per_class_target=10, seed=4) == first
    assert class_balance(rows, per_class_target=10, seed=5) != first


def test_class_balance_selection_ignores_input_order():
    rows = [make_manifest_row(i, corpus_class="digits") for i in range(30)]
    forward = {r.id for r in class_balance(rows, per_class_target=8, seed=6)}
    backward = {r.id for r in class_balance(list(reversed(rows)), per_class_target=8, seed=6)}
    assert forward == backward


def test_class_balance_rejects_negative_but_allows_zero():
    with pytest.raises(ConfigurationError):
        class_balance([], per_class_target=-1, seed=0)
    rows = [make_manifest_row(1)]
    assert class_balance(rows, per_class_target=0, seed=0) == []
