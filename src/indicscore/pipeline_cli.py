"""The `indicscore pipeline` steps: route, filter, split, balance, validate
and rewrite-digits.

`cli` builds their parser and imports this module only when a pipeline step
runs, so score, diagnose and compare never compile it. A step streams its
manifest from file to file (`_run`), and a large manifest is read in byte
ranges, one forked process per range.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import marshal
import os
import sys
from collections import Counter
from pathlib import Path

from .cli import _emit, _parse_named_value, _warn
from .corpus import replacing
from .errors import ConfigurationError, DataError
from .manifest import ManifestWriter, ValidationConfig, _evolve, _read_manifest, validate_corpus_row
from .textnorm import format_value


def _parse_weights(raw: str) -> dict[str, float]:
    weights: dict[str, float] = {}
    for part in raw.split(","):
        name, raw = _parse_named_value(part.strip(), weights)
        try:
            weights[name] = float(raw)
        except ValueError:
            raise ConfigurationError(f"--weights: {raw!r} is not a number") from None
    return weights


# A pipeline verb reads its manifest in byte ranges of at least this many
# bytes, at most one per usable CPU, each in a process of its own. A smaller
# part saves less than a fork and a merge cost.
PART_BYTES = 1 << 18
ID_CHUNK = 1 << 10  # a child sends its ids in lists of at most this many, not all in one message


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _line_end(handle, offset: int) -> int:
    """The offset just after the first newline at or after ``offset``, else the file's size."""
    handle.seek(offset)
    handle.readline()
    return handle.tell()


def _byte_ranges(manifest: str, paths: tuple) -> list[tuple[int, int | None]]:
    """The ``(start, stop)`` ranges a verb reads its manifest in, each
    beginning a line and ending one; the last has no stop.

    One range, or none, means one process: without ``fork``, in a process
    with other threads (a forked child holds only the calling thread, and
    any lock another thread held stays locked in it), on one CPU, for a
    manifest that is not a regular file or is smaller than two parts, and
    when an output exists that is not a regular file, since that is written
    in place and a discarded run would have written to it.
    """
    threading = sys.modules.get("threading")  # a process that never imported it has no other threads
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return []
    if not os.path.isfile(manifest):
        return []
    if any(path is not None and os.path.exists(path) and not os.path.isfile(path) for path in paths):
        return []
    size = os.path.getsize(manifest)
    parts = min(_usable_cpus(), size // PART_BYTES)
    cuts = [0]
    if parts > 1:
        with open(manifest, "rb") as handle:
            for k in range(1, parts):
                cut = _line_end(handle, max(size * k // parts - 1, cuts[-1]))
                if cut >= size:
                    break
                cuts.append(cut)
    return list(zip(cuts, cuts[1:] + [None]))


def _merge(a, b):
    """One summary of two ranges': numbers add, lists join, and dicts and
    tuples merge item by item."""
    if isinstance(a, dict):
        merged = dict(a)
        for key, value in b.items():
            merged[key] = _merge(merged[key], value) if key in merged else value
        return merged
    if isinstance(a, tuple):
        return tuple(map(_merge, a, b))
    return a + b


def _run(manifest: str, body, *paths: str | None):
    """Run ``body(rows, outputs)`` over the rows of ``manifest``; return its summary.

    ``outputs()`` opens and returns a ManifestWriter per path (None for a
    path that is None), and the outputs replace their paths only when the
    whole run succeeds. The body checks its options, opens its outputs,
    writes its rows and returns a summary, from which the verb prints:
    numbers, lists, dicts and tuples of them, which ``marshal`` carries.

    A manifest of two or more byte ranges (``_byte_ranges``) is run in a
    process per range, its summaries merged and its outputs joined in range
    order. That run is optimistic: a malformed range, an exception in any
    process, a child that exits non-zero or an id read in two ranges
    discards all of it, and the body runs again over the whole manifest in
    this process, which gives every message and exit code.
    """
    ranges = _byte_ranges(manifest, paths)
    if len(ranges) > 1:
        try:
            return _run_in_parts(manifest, body, paths, ranges)
        except Exception:  # whatever it was, the run in one process meets it again and reports it
            pass
    with contextlib.ExitStack() as stack:
        return _run_part(manifest, body, paths, 0, None, stack)[0]


def _run_in_parts(manifest: str, body, paths: tuple, ranges: list):
    """``_run`` with this process on the first range and a forked child on
    each other. A child's rows join the outputs once its checks pass; a
    later failure still discards every output as the stack closes."""
    with contextlib.ExitStack() as stack:
        running: set[int] = set()
        stack.callback(_stop, running)
        children = []
        for start, stop in ranges[1:]:
            parts = [None if path is None else _part_file(path, stack) for path in paths]
            channel, write_end = os.pipe()
            stack.callback(os.close, channel)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(manifest, body, parts, start, stop, write_end)
            finally:
                os.close(write_end)
            running.add(pid)
            children.append((pid, channel, parts))
        summary, seen, writers = _run_part(manifest, body, paths, 0, ranges[0][1], stack)
        for index, (pid, channel, parts) in enumerate(children, 2):
            with open(channel, "rb", closefd=False) as reader:
                part_summary = marshal.load(reader)
                while part_ids := marshal.load(reader):  # chunks of ids, then an empty list
                    if not seen.keys().isdisjoint(part_ids):
                        raise RuntimeError("an id is in two ranges")
                    if index < len(ranges):  # the ranges after this one are checked against its ids too
                        seen.update(dict.fromkeys(part_ids))
            status = os.waitpid(pid, 0)[1]
            running.discard(pid)
            if status != 0:
                raise RuntimeError(f"child {pid} exited with status {status}")
            summary = _merge(summary, part_summary)
            for writer, fd in zip(writers, parts):
                if fd is not None:
                    writer.copy_from(fd)
        return summary  # the outputs are committed as the stack closes


def _run_part(manifest: str, body, targets, start: int, stop: int | None, stack: contextlib.ExitStack):
    """``body`` over the manifest's bytes [start, stop), its outputs opened on
    ``targets`` (paths or file descriptors) and left open in ``stack``;
    returns the summary, the ids read and the writers. When the body raises,
    the rest of the range is still read, so that a malformed manifest is the
    error reported."""
    # the ids as keys: a dict of them is smaller than a set, whose table grows fourfold
    seen: dict[str, None] = {}
    writers: list = []

    def outputs():
        writers.extend(stack.enter_context(replacing(*targets, opener=ManifestWriter)))
        return writers

    rows = _read_manifest(Path(manifest), seen, start, stop)
    try:
        summary = body(rows, outputs)
    except (ValueError, OSError):  # DataError and ConfigurationError are ValueErrors
        for _ in rows:
            pass
        raise
    return summary, seen, writers


def _child(manifest: str, body, parts: list, start: int, stop: int | None, channel: int):
    """A forked child's whole life: its range's rows go to the part files, and its
    summary, then its ids a list at a time, to ``channel``. It never returns."""
    code = 1
    try:
        with contextlib.ExitStack() as stack:
            summary, seen, _ = _run_part(manifest, body, parts, start, stop, stack)
        with open(channel, "wb") as out:
            marshal.dump(summary, out)
            ids = iter(seen)
            while chunk := list(itertools.islice(ids, ID_CHUNK)):
                marshal.dump(chunk, out)
            marshal.dump([], out)  # the end of the ids
        code = 0
    finally:
        os._exit(code)  # no cleanup of the parent's state runs in the child


def _part_file(path: str, stack: contextlib.ExitStack) -> int:
    """An unlinked file in the directory of the output ``path``, open for
    reading and writing until ``stack`` closes."""
    directory, name = os.path.split(os.path.realpath(path))
    part = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.part")
    fd = os.open(part, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
    stack.callback(os.close, fd)
    os.unlink(part)
    return fd


def _stop(running: set[int]) -> None:
    """Kill and reap the children that are still running."""
    if running:
        import signal

        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_pipeline_route(args: argparse.Namespace) -> None:
    from . import pipeline

    def route(rows, outputs):
        weights = _parse_weights(args.weights) if args.weights else pipeline.DEFAULT_WEIGHTS
        policy = pipeline.RouterPolicy(weights=weights, seed=args.seed)
        counts: Counter = Counter()
        (out,) = outputs()
        for row in rows:
            routed = pipeline.route_row(row, policy)
            out.write(routed)
            counts[pipeline.synth_key(routed)] += 1
        return dict(counts)

    print(pipeline.render_distribution(_run(args.manifest, route, args.out)))


def cmd_pipeline_filter(args: argparse.Namespace) -> None:
    from . import pipeline

    def gate(rows, outputs):
        rejected_count = 0
        gated = pipeline.gate_rows(rows, args.threshold)
        accepted, rejected = outputs()
        for passed, row in gated:
            if passed:
                accepted.write(row)
                continue
            rejected_count += 1
            if rejected is not None:
                rejected.write(row)
        return accepted.count, rejected_count

    accepted_count, rejected_count = _run(args.manifest, gate, args.out, args.rejected)
    print(
        f"accepted {accepted_count}  rejected {rejected_count}"
        f"  (threshold {format_value(args.threshold)})"
    )


def cmd_pipeline_split(args: argparse.Namespace) -> None:
    from . import pipeline

    def split(rows, outputs):
        counts: Counter = Counter()
        train, heldout = outputs()
        for held, row in pipeline.split_rows(rows):
            (heldout if held else train).write(row)
            counts[pipeline.synth_key(row)] += 1
        return train.count, heldout.count, dict(counts)

    # an empty side is warned of once, from the counts of the whole manifest
    train_count, heldout_count, counts = _run(args.manifest, split, args.out_train, args.out_heldout)
    if not heldout_count:
        _warn("pipeline", f"held-out split is empty: no rows from {pipeline.HELDOUT_SYSTEM}")
    if not train_count:
        _warn("pipeline", "training split is empty")
    print(f"train {train_count}  heldout {heldout_count}")
    print(pipeline.render_distribution(counts))


def cmd_pipeline_balance(args: argparse.Namespace) -> None:
    from . import pipeline

    # Two reads of the manifest: ids and classes pick the rows, then the
    # picked rows are copied in input order. Only the picked ids outlive the first.
    selected = pipeline.sample_class_ids(
        _run(args.manifest, lambda rows, outputs: pipeline.ids_by_class(rows)), args.per_class, args.seed
    )
    if not os.path.isfile(args.manifest):
        raise DataError(f"balance reads its manifest twice; {args.manifest} is not a regular file")

    def copy(rows, outputs):
        kept: Counter = Counter()
        total = 0
        (out,) = outputs()
        for row in rows:
            total += 1
            if row.id in selected:
                out.write(row)
                kept[row.corpus_class] += 1
        return out.count, total, dict(kept)

    count, total, kept = _run(args.manifest, copy, args.out)
    for corpus_class in sorted(kept):
        print(f"{corpus_class}: {kept[corpus_class]}")
    print(f"kept {count} of {total} rows")


def cmd_pipeline_validate(args: argparse.Namespace) -> None:
    config = ValidationConfig(purity_threshold=args.purity_threshold)

    def validate(rows, outputs):
        found: list[tuple[str, str, str]] = []  # (id, kind, detail); a dict each only while printing
        clean = total = 0
        for row in rows:
            total += 1
            violations = validate_corpus_row(row, config=config)
            clean += not violations
            found.extend((row.id, violation.kind, violation.detail) for violation in violations)
        return clean, total, found

    clean, total, found = _run(args.manifest, validate)
    summary = f"{clean} of {total} rows clean, {len(found)} violations"
    _emit(
        args.format,
        lambda: itertools.chain((f"{row_id}: {kind}: {detail}" for row_id, kind, detail in found), [summary]),
        ({"id": row_id, "kind": kind, "detail": detail} for row_id, kind, detail in found),
    )


def cmd_pipeline_rewrite_digits(args: argparse.Namespace) -> None:
    from .numbers import load_language_table, rewrite_digit_runs

    def rewrite(rows, outputs):
        changed = 0
        (out,) = outputs()
        for row in rows:
            try:  # the row's own language is data, as its text is
                new_text = rewrite_digit_runs(row.text, load_language_table(row.language), args.mode)
            except (DataError, ConfigurationError) as exc:
                raise DataError(f"row {row.id!r}: {exc}") from exc
            if new_text != row.text:
                changed += 1
            out.write(_evolve(row, text=new_text))
        return changed, out.count

    changed, count = _run(args.manifest, rewrite, args.out)
    print(f"rewrote digit runs in {changed} of {count} rows ({args.mode})")
