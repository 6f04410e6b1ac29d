"""Deterministic synthesis routing, CER gating, and corpus splitting.

Routing draws a synthesis backend per utterance from a seeded hash of the
row id, so re-running with the same seed reproduces the corpus exactly and
permuting the input never changes an assignment. Two fixed rules apply, as
`route_utterance` states them: code-mixed rows skip the draw, and Hindi
rows drawn into praxy go to chatterbox.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType

from .corpus import SYNTH_SYSTEMS
from .errors import ConfigurationError, DataError
from .manifest import ManifestRow, _evolve, with_status
from .record import Record
from .textnorm import align_columns

# CPython's own SHA-256, as random.py takes its SHA-512: importing hashlib
# would map OpenSSL's libcrypto into every pipeline verb. FIPS 180-4 fixes
# the digest, so every implementation routes every row alike.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without the built-in module
        from hashlib import sha256 as _sha256

HELDOUT_SYSTEM = "cartesia"

# read-only, since every default RouterPolicy shares it
DEFAULT_WEIGHTS: Mapping[str, float] = MappingProxyType({
    "praxy": 0.60,
    "elevenlabs": 0.20,
    "cartesia": 0.20,
})


class RouterPolicy(Record):
    """Backend weights and the draw seed.

    The weights are read once, here, into the draw table ``_buckets``:
    each backend with the running sum of the weights up to it, in name
    order.
    """

    weights: Mapping[str, float] = DEFAULT_WEIGHTS
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.weights:
            raise ConfigurationError("router weights must not be empty")
        for backend, weight in self.weights.items():
            if backend not in SYNTH_SYSTEMS:
                raise ConfigurationError(f"unknown backend {backend!r} in router weights")
            if not weight >= 0:  # NaN fails this too
                raise ConfigurationError(f"weight {weight} for backend {backend!r} is not a number >= 0")
        if abs(sum(self.weights.values()) - 1.0) > 1e-9:
            raise ConfigurationError(f"router weights sum to {sum(self.weights.values())}, not 1")
        buckets, cumulative = [], 0.0
        for name, weight in sorted(self.weights.items()):
            cumulative += weight
            buckets.append((cumulative, name))
        object.__setattr__(self, "_buckets", tuple(buckets))


def _unit_interval_hash(seed: int, row_id: str) -> float:
    digest = _sha256(f"{seed}:{row_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def route_utterance(row: ManifestRow, policy: RouterPolicy = RouterPolicy()) -> str:
    """Pick the synthesis backend for one row, deterministically.

    A code-mixed row goes to indicf5, the one engine that speaks it, without
    a draw. Any other row takes the bucket its draw falls in, except that a
    Hindi row drawn into praxy goes to chatterbox.
    """
    if row.corpus_class == "codemix":
        return "indicf5"
    draw = _unit_interval_hash(policy.seed, row.id)
    for cumulative, bucket in policy._buckets:
        if draw < cumulative:
            break
    # with no break, the last bucket takes the draw: top-end float rounding
    return "chatterbox" if bucket == "praxy" and row.language == "hi" else bucket


def route_row(row: ManifestRow, policy: RouterPolicy = RouterPolicy()) -> ManifestRow:
    """The row with its ``synth_system`` assigned."""
    return _evolve(row, synth_system=route_utterance(row, policy))


def route_rows(rows: Iterable[ManifestRow], policy: RouterPolicy = RouterPolicy()) -> list[ManifestRow]:
    """Assign ``synth_system`` on every row."""
    return [route_row(row, policy) for row in rows]


# ---------------------------------------------------------------------------
# CER gate
# ---------------------------------------------------------------------------

class FilterResult(Record):
    accepted: tuple[ManifestRow, ...]
    rejected: tuple[ManifestRow, ...]


def gate_rows(
    rows: Iterable[ManifestRow], threshold: float = 0.5
) -> Iterator[tuple[bool, ManifestRow]]:
    """Yield ``(accepted, row)`` per input row, the row moved to its new status.

    Rows with CER strictly above the threshold are rejected; a CER equal
    to the threshold passes. Rows missing ``cer_against_source`` are an
    error, raised after the last row with every such id; it takes
    precedence over the first status that cannot move, raised likewise.
    A NaN threshold is an error at once.
    """
    if math.isnan(threshold):
        raise ConfigurationError("CER threshold is NaN")
    return _gate_rows(rows, threshold)


def _gate_rows(rows: Iterable[ManifestRow], threshold: float) -> Iterator[tuple[bool, ManifestRow]]:
    missing: list[str] = []
    failure: DataError | None = None
    for row in rows:
        if row.cer_against_source is None:
            missing.append(row.id)
            continue
        if missing or failure is not None:
            continue
        # strictly-above rejects: a CER equal to the threshold passes
        accepted = not row.cer_against_source > threshold
        try:
            gated = with_status(row, "accepted" if accepted else "filtered_out")
        except DataError as exc:
            failure = exc
            continue
        yield accepted, gated
    if missing:
        raise DataError("rows missing cer_against_source", [f"id {row_id!r}" for row_id in missing])
    if failure is not None:
        raise failure


def apply_cer_filter(rows: Iterable[ManifestRow], threshold: float = 0.5) -> FilterResult:
    """Gate synthesized rows on round-trip CER, as ``gate_rows`` does."""
    accepted: list[ManifestRow] = []
    rejected: list[ManifestRow] = []
    for passed, row in gate_rows(rows, threshold):
        (accepted if passed else rejected).append(row)
    return FilterResult(tuple(accepted), tuple(rejected))


# ---------------------------------------------------------------------------
# Held-out split
# ---------------------------------------------------------------------------

class SplitResult(Record):
    train: tuple[ManifestRow, ...]
    heldout: tuple[ManifestRow, ...]


def split_rows(rows: Iterable[ManifestRow]) -> Iterator[tuple[bool, ManifestRow]]:
    """Yield ``(heldout, row)`` per input row: every row synthesized by the
    held-out engine is held out.

    Keeping one engine's rows entirely out of training means evaluation
    audio never shares a voice with training audio. Rows must all be
    ``accepted`` and routed; the ids of the rows that are not are raised
    after the last row, the unaccepted ones first.
    """
    not_accepted: list[str] = []
    unrouted: list[str] = []
    for row in rows:
        if row.status != "accepted":
            not_accepted.append(row.id)
        if row.synth_system is None:
            unrouted.append(row.id)
        if not_accepted or unrouted:
            continue
        yield row.synth_system == HELDOUT_SYSTEM, row
    if not_accepted:
        raise DataError(
            "split requires accepted rows only", [f"id {row_id!r}" for row_id in not_accepted]
        )
    if unrouted:
        raise DataError("split requires routed rows", [f"id {row_id!r}" for row_id in unrouted])


def split_heldout(rows: Iterable[ManifestRow]) -> SplitResult:
    """Split rows into train and heldout, as ``split_rows`` does; the two
    partition the input exactly."""
    parts: dict[bool, list[ManifestRow]] = {True: [], False: []}
    for heldout, row in split_rows(rows):
        parts[heldout].append(row)
    return SplitResult(tuple(parts[False]), tuple(parts[True]))


def synth_key(row: ManifestRow) -> tuple[str, str]:
    """The (language, backend) cell a row counts in, for audit tables."""
    return (row.language, row.synth_system or "unrouted")


def synth_distribution(rows: Iterable[ManifestRow]) -> dict[tuple[str, str], int]:
    """Counts per (language, backend), for audit tables."""
    return dict(Counter(map(synth_key, rows)))


def render_distribution(counts: Mapping[tuple[str, str], int]) -> str:
    """Aligned per-language backend counts with row and column totals."""
    languages = sorted({lang for lang, _ in counts})
    backends = [b for b in (*SYNTH_SYSTEMS, "unrouted") if any(be == b for _, be in counts)]
    lines = [["lang"] + backends + ["total"]]
    for lang in languages:
        row_counts = [counts.get((lang, b), 0) for b in backends]
        lines.append([lang] + [str(c) for c in row_counts] + [str(sum(row_counts))])
    col_totals = [sum(counts.get((lang, b), 0) for lang in languages) for b in backends]
    lines.append(["total"] + [str(c) for c in col_totals] + [str(sum(col_totals))])
    return "\n".join(align_columns(lines))


def render_distribution_table(rows: Iterable[ManifestRow]) -> str:
    """``render_distribution`` of the rows' counts."""
    return render_distribution(synth_distribution(rows))


# ---------------------------------------------------------------------------
# Class balancing
# ---------------------------------------------------------------------------

def ids_by_class(rows: Iterable[ManifestRow]) -> dict[str, list[str]]:
    """The row ids of each corpus class, in input order."""
    by_class: dict[str, list[str]] = {}
    for row in rows:
        by_class.setdefault(row.corpus_class, []).append(row.id)
    return by_class


def sample_class_ids(
    by_class: Mapping[str, Sequence[str]], per_class_target: int, seed: int = 0
) -> set[str]:
    """Ids kept by a seeded downsample of each class in ``by_class`` to at
    most ``per_class_target`` ids. Each class's ids are sorted before
    sampling, so the selection does not depend on their order.
    """
    if per_class_target < 0:
        raise ConfigurationError("per_class_target must be non-negative")
    selected: set[str] = set()
    for corpus_class in sorted(by_class):
        candidates = sorted(by_class[corpus_class])
        if len(candidates) > per_class_target:
            rng = random.Random(f"{seed}:{corpus_class}")
            candidates = rng.sample(candidates, per_class_target)
        selected.update(frozenset(candidates))  # sized once from a set: 256 KB for 7200 ids, not 512
    return selected


def class_balance(
    rows: Sequence[ManifestRow], per_class_target: int, seed: int = 0
) -> list[ManifestRow]:
    """The rows ``sample_class_ids`` keeps, in input order."""
    selected = sample_class_ids(ids_by_class(rows), per_class_target, seed)
    return [row for row in rows if row.id in selected]
