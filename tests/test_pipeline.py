import collections

import pytest

from conftest import make_manifest_row
from indicscore.corpus import with_status
from indicscore.errors import ConfigurationError, DataError
from indicscore.pipeline import (
    DEFAULT_WEIGHTS,
    HELDOUT_SYSTEM,
    OverrideRule,
    RouterPolicy,
    apply_cer_filter,
    class_balance,
    render_distribution_table,
    route_rows,
    route_utterance,
    split_heldout,
    synth_distribution,
)


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


def test_policy_rejects_bad_sum():
    with pytest.raises(ConfigurationError):
        RouterPolicy(weights={"praxy": 0.5, "cartesia": 0.4})


def test_policy_rejects_bad_override():
    with pytest.raises(ConfigurationError):
        RouterPolicy(overrides=(OverrideRule(backend="googletts", corpus_class="codemix"),))
    with pytest.raises(ConfigurationError):
        # bucket-relabel overrides must name a bucket that exists
        RouterPolicy(overrides=(OverrideRule(backend="chatterbox", language="hi", bucket="indicf5"),))


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
    policy = RouterPolicy(weights={"cartesia": 1.0}, overrides=())
    assert {route_utterance(r, policy) for r in many_rows(50)} == {"cartesia"}


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


def test_split_warns_on_empty_heldout(caplog):
    rows = [
        with_status(make_manifest_row(i, synth_system="praxy"), "accepted") for i in range(3)
    ]
    result = split_heldout(rows)
    assert result.heldout == ()
    assert any("held-out split is empty" in r.message for r in caplog.records)


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
