"""Content-addressed, self-verifying result cache.

One experiment result per file, addressed by the canonical spec hash
(:func:`repro.service.specio.spec_hash`) and written atomically
(:func:`repro.harness.io.atomic_write_json`), so a crash mid-write can
never leave a torn entry at the final path.

Entries are *self-verifying*: each stores the run's golden-stats
fingerprint (:func:`repro.harness.golden.golden_fingerprint` — the
same bitwise contract the conformance matrix pins) plus an integrity
digest over the whole body.  :meth:`ResultCache.get` re-derives the
digest on every read; truncation, bit flips, or hand edits make it
mismatch, the entry is quarantined (unlinked) and the caller
recomputes — a corrupt result is *never served*.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from pathlib import Path
from typing import Optional, Union


_SPEC_HASH = re.compile(r"[0-9a-f]{64}")


def is_spec_hash(value: object) -> bool:
    """True iff ``value`` is a cache address: 64 lowercase hex digits.

    Anything else (``..``, a slash, a query string) could name a file
    outside the cache, so it is never turned into a path.
    """
    return isinstance(value, str) and _SPEC_HASH.fullmatch(value) is not None


def entry_digest(spec_hash: str, spec: dict, fingerprint: dict,
                 result: dict) -> str:
    """Integrity digest over everything an entry asserts."""
    body = json.dumps(
        {
            "spec_hash": spec_hash,
            "spec": spec,
            "fingerprint": fingerprint,
            "result": result,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode()).hexdigest()


class ResultCache:
    """Disk cache of completed runs, keyed by canonical spec hash."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: Read/verify counters, surfaced by the service's /stats.
        self.hits = 0
        self.misses = 0
        self.corruptions = 0

    def path_for(self, spec_hash: str) -> Path:
        """Fan entries out over 256 subdirectories.

        Raises ``ValueError`` unless ``spec_hash`` :func:`is_spec_hash`:
        a read that fails verification unlinks the file, so a path
        that escaped the cache would let a request delete it.
        """
        if not is_spec_hash(spec_hash):
            raise ValueError(f"not a spec hash: {spec_hash!r}")
        return self.root / spec_hash[:2] / f"{spec_hash}.json"

    def put(self, spec_hash: str, spec: dict, fingerprint: dict,
            result: dict) -> dict:
        """Persist one completed run atomically; returns the entry."""
        entry = {
            "spec_hash": spec_hash,
            "spec": spec,
            "fingerprint": fingerprint,
            "result": result,
            "integrity": entry_digest(spec_hash, spec, fingerprint, result),
        }
        from repro.harness.io import atomic_write_json

        atomic_write_json(self.path_for(spec_hash), entry)
        return entry

    def get(self, spec_hash: str) -> Optional[dict]:
        """The verified entry, or ``None`` (miss *or* failed check).

        A corrupted entry counts in ``corruptions``, is unlinked so the
        recompute can repopulate it, and reads as a miss.
        """
        path = self.path_for(spec_hash)
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return self._quarantine(path, spec_hash)
        if not self._verify(entry, spec_hash):
            return self._quarantine(path, spec_hash)
        with self._lock:
            self.hits += 1
        return entry

    def _verify(self, entry, spec_hash: str) -> bool:
        if not isinstance(entry, dict):
            return False
        required = ("spec_hash", "spec", "fingerprint", "result", "integrity")
        if any(key not in entry for key in required):
            return False
        if entry["spec_hash"] != spec_hash:
            return False
        return entry["integrity"] == entry_digest(
            entry["spec_hash"], entry["spec"], entry["fingerprint"],
            entry["result"],
        )

    def _quarantine(self, path: Path, spec_hash: str) -> None:
        with self._lock:
            self.corruptions += 1
            self.misses += 1
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone / perms
            pass
        return None

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "corruptions": self.corruptions,
            }
