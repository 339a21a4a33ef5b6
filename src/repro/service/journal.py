"""Write-ahead run journal: sweeps survive ``kill -9``.

Before the scheduler runs anything it journals the sweep (id + every
cell's hash and request payload); each completed cell appends a
``done`` record *after* its cache entry is safely on disk, and a
finished sweep appends ``sweep-done``.  Records are JSONL lines; one
append writes one or more of them in a single write followed by one
flush + fsync (admission journals a sweep, its cache hits and, when
every cell hit, its ``sweep-done`` together), so the journal is
durable up to the last fsync.  A crash can at worst leave one torn
*final* line — a multi-record append torn mid-way leaves its complete
lines plus that fragment — which replay detects and discards (the
corresponding state is re-derived from the cache — cells whose cache
write landed are hits, nothing is lost and nothing runs twice).
Before its first append after opening, the
journal truncates any torn tail left by a previous crash, so a new
record is never glued onto the fragment (the fragment's fsync never
completed, so dropping it loses nothing durable).

On restart the server replays the journal: every sweep without a
``sweep-done`` is re-submitted, completed cells short-circuit through
the cache, and only genuinely unfinished cells compute.
:meth:`RunJournal.checkpoint` compacts the file (atomic tmpfile +
rename via :func:`repro.harness.io.atomic_write_text`), dropping
completed sweeps so the journal does not grow without bound.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union


@dataclass
class SweepRecord:
    """Replayed state of one journaled sweep."""

    sweep_id: str
    #: ``[{"hash": ..., "payload": {...}}, ...]`` in submission order.
    cells: List[dict] = field(default_factory=list)
    #: Spec hashes with a ``done`` record.
    done: Dict[str, dict] = field(default_factory=dict)
    complete: bool = False

    @property
    def pending(self) -> List[dict]:
        return [cell for cell in self.cells if cell["hash"] not in self.done]


def sweep_record(sweep_id: str, cells: List[dict]) -> dict:
    return {"kind": "sweep", "sweep_id": sweep_id, "cells": cells}


def done_record(sweep_id: str, spec_hash: str, cache_hit: bool,
                attempts: int, status: str = "done") -> dict:
    return {
        "kind": "done",
        "sweep_id": sweep_id,
        "hash": spec_hash,
        "cache_hit": cache_hit,
        "attempts": attempts,
        "status": status,
    }


def sweep_done_record(sweep_id: str) -> dict:
    return {"kind": "sweep-done", "sweep_id": sweep_id}


class RunJournal:
    """Append-only JSONL journal with torn-tail-tolerant replay."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._tail_checked = False

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _repair_torn_tail_locked(self) -> None:
        """Truncate a torn final line before the first append.

        A ``kill -9`` mid-append can leave the file ending without a
        newline.  :meth:`replay` tolerates reading that, but appending
        after it would glue the next record onto the fragment and turn
        it into a corrupt *mid-file* line that poisons every later
        replay.  The fragment's fsync never completed, so it carries
        no durable state: truncating back to the last complete line
        loses nothing (completed cells are re-found in the cache).
        """
        if self._tail_checked:
            return
        self._tail_checked = True
        try:
            with open(self.path, "rb+") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size == 0:
                    return
                handle.seek(size - 1)
                if handle.read(1) == b"\n":
                    return
                handle.seek(0)
                keep = handle.read().rfind(b"\n") + 1
                handle.truncate(keep)
                handle.flush()
                os.fsync(handle.fileno())
        except FileNotFoundError:
            return

    def append(self, *records: dict) -> None:
        """Durably append one or more records: one write, one fsync.

        Appends are not atomic-rename on purpose: the journal is an
        append-only log, and its crash contract is "at most one torn
        final line", which :meth:`replay` tolerates and which the
        first append repairs (see :meth:`_repair_torn_tail_locked`).
        A batch torn mid-way replays as its complete prefix.
        """
        data = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        with self._lock:
            self._repair_torn_tail_locked()
            with open(self.path, "a") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())

    def cell_done(self, sweep_id: str, spec_hash: str, cache_hit: bool,
                  attempts: int, status: str = "done") -> None:
        self.append(
            done_record(sweep_id, spec_hash, cache_hit, attempts, status)
        )

    def sweep_done(self, sweep_id: str) -> None:
        self.append(sweep_done_record(sweep_id))

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self) -> Dict[str, SweepRecord]:
        """``{sweep_id: SweepRecord}`` from the surviving records.

        A torn final line (the one crash mode fsync'd appends admit)
        is skipped; a torn line anywhere else means external
        corruption, which raises so the operator sees it rather than
        silently dropping sweeps.
        """
        return self._scan()[0]

    def _scan(self) -> Tuple[Dict[str, SweepRecord], int]:
        """``(sweeps, seq high-water-mark)`` from the surviving records.

        The high-water-mark is the max of every ``seq`` record and
        every parsed ``s<NNN>`` sweep id — including completed sweeps
        still in the file — so sweep ids are never reused even after
        :meth:`checkpoint` drops the sweeps that minted them.
        """
        sweeps: Dict[str, SweepRecord] = {}
        seq_hwm = 0
        try:
            raw_lines = self.path.read_text().splitlines()
        except FileNotFoundError:
            return sweeps, seq_hwm
        last_index = len(raw_lines) - 1
        for index, line in enumerate(raw_lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if index == last_index:
                    break  # torn tail from a mid-append crash
                raise ValueError(
                    f"corrupt journal line {index + 1} in {self.path} "
                    "(not the final line, so not a torn append)"
                )
            if record.get("kind") == "seq":
                seq_hwm = max(seq_hwm, int(record.get("value", 0)))
                continue
            self._apply(sweeps, record)
        for sweep_id in sweeps:
            if sweep_id.startswith("s") and sweep_id[1:].isdigit():
                seq_hwm = max(seq_hwm, int(sweep_id[1:]))
        return sweeps, seq_hwm

    @staticmethod
    def _apply(sweeps: Dict[str, SweepRecord], record: dict) -> None:
        kind = record.get("kind")
        sweep_id = record.get("sweep_id")
        if not sweep_id:
            return
        if kind == "sweep":
            sweeps[sweep_id] = SweepRecord(
                sweep_id=sweep_id, cells=list(record.get("cells", []))
            )
        elif kind == "done" and sweep_id in sweeps:
            sweeps[sweep_id].done[record["hash"]] = record
        elif kind == "sweep-done" and sweep_id in sweeps:
            sweeps[sweep_id].complete = True

    def next_sweep_seq(self) -> int:
        """1 + the highest ``s<NNN>`` id ever journaled (fresh file: 1).

        Checkpoints persist the high-water-mark as a ``seq`` record, so
        the sequence survives compaction and ids are never reissued.
        """
        return self._scan()[1] + 1

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def checkpoint(self, keep: Optional[Dict[str, SweepRecord]] = None) -> int:
        """Atomically rewrite the journal without completed sweeps.

        Returns the number of sweeps kept.  The rewrite goes through
        the atomic-write helper, so a crash mid-checkpoint leaves the
        previous journal intact.  The sweep-id high-water-mark is
        carried over as a ``seq`` record so compaction never causes a
        restarted server to reuse the ids of the sweeps it dropped.
        """
        from repro.harness.io import atomic_write_text

        sweeps, seq_hwm = self._scan()
        state = keep if keep is not None else sweeps
        lines = []
        if seq_hwm:
            lines.append(json.dumps(
                {"kind": "seq", "value": seq_hwm}, sort_keys=True
            ))
        kept = 0
        for sweep in state.values():
            if sweep.complete:
                continue
            kept += 1
            lines.append(json.dumps(
                {"kind": "sweep", "sweep_id": sweep.sweep_id,
                 "cells": sweep.cells},
                sort_keys=True,
            ))
            for record in sweep.done.values():
                lines.append(json.dumps(record, sort_keys=True))
        with self._lock:
            atomic_write_text(
                self.path, "".join(line + "\n" for line in lines)
            )
        return kept
