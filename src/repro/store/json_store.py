"""The JSON-file result store — the original ``.repro_cache/`` layout.

Each entry is one JSON file addressed by content hash with a two-char
directory fan-out to keep directories small::

    .repro_cache/
        ab/abcdef....json

Writes are atomic (temp file + ``os.replace``) so concurrent writer
processes can share a root: the worst case is two processes computing the
same deterministic cell and one ``os.replace`` winning. Corrupt or
unreadable entries are treated as misses (and eventually overwritten),
never raised — but they are *counted*: see
:func:`repro.store.base.note_corrupt_entry`.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.store.base import (
    DEFAULT_CACHE_DIR,
    MISS,
    ResultStore,
    StoreEntry,
    note_corrupt_entry,
)


class JsonStore(ResultStore):
    """A content-addressed one-file-per-entry JSON store."""

    scheme = "json"

    #: Historical fan-out width; also what omitted ``?fanout=`` means.
    DEFAULT_FANOUT = 2

    def __init__(
        self,
        root: Union[str, Path] = DEFAULT_CACHE_DIR,
        salt: Optional[str] = None,
        fanout: int = DEFAULT_FANOUT,
    ):
        super().__init__(salt=salt)
        self.root = Path(root)
        fanout = int(fanout)
        if not 1 <= fanout <= 8:
            # Wider than 8 hex chars of fan-out means more directories than
            # entries for any realistic campaign; narrower than 1 is no
            # fan-out at all, which this layout does not support.
            raise ValueError(f"json store fanout must be in 1..8, got {fanout}")
        self.fanout = fanout

    def location(self) -> str:
        if self.fanout != self.DEFAULT_FANOUT:
            return f"{self.root}?fanout={self.fanout}"
        return str(self.root)

    def path_for(self, content_hash: str) -> Path:
        return self.root / content_hash[: self.fanout] / f"{content_hash}.json"

    # -- backend primitives ------------------------------------------------

    def _load(self, content_hash: str) -> Any:
        path = self.path_for(content_hash)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return MISS
        except (OSError, ValueError):
            # Present on disk but unreadable/undecodable: a *corrupt* miss,
            # distinct from plain absence — count it so truncated caches
            # don't masquerade as cold ones.
            note_corrupt_entry(str(path))
            return MISS
        if not isinstance(entry, dict) or "value" not in entry:
            note_corrupt_entry(str(path))
            return MISS
        return entry

    def _write(self, content_hash: str, entry: Dict[str, Any]) -> None:
        path = self.path_for(content_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.stem, suffix=".tmp", dir=str(path.parent)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _delete(self, content_hash: str) -> bool:
        try:
            os.unlink(self.path_for(content_hash))
        except OSError:
            return False
        return True

    def _hashes(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("?" * self.fanout + "/*.json")):
            yield path.stem

    def entries(self) -> Iterator[StoreEntry]:
        for content_hash in self._hashes():
            entry = self._load(content_hash)
            if entry is MISS:
                continue
            yield StoreEntry(
                content_hash=content_hash,
                value=entry["value"],
                meta=dict(entry.get("meta") or {}),
                salt=str(entry.get("salt", "")),
                schema=int(entry.get("schema", 0)),
            )

    def put(
        self, content_hash: str, value: Any, meta: Optional[Dict[str, Any]] = None
    ) -> Path:
        """:meth:`ResultStore.put`, returning the entry's path."""
        super().put(content_hash, value, meta=meta)
        return self.path_for(content_hash)
