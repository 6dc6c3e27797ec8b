"""The cluster coordinator: lease cells to worker agents, steal them back.

:class:`ClusterCoordinator` is the server half of :mod:`repro.cluster`. It
owns everything authoritative — the campaign journal, the result store, the
telemetry stream — and hands out only *work*: cells, leased in spec order,
with an expiry deadline. The execution contract mirrors the single-host
pool exactly:

- the coordinator plugs into :func:`repro.runner.pool.run_campaign` as a
  cluster backend (:func:`repro.runner.pool.set_cluster_backend`), so the
  cache-resolution prologue, journal ``begin`` record, and
  spec-order result merging are the *same code* as ``--jobs N``;
- every completion is applied on the campaign thread through the runner's
  own ``_complete`` — store write first, journal ``completed`` strictly
  after — so a cluster drain is byte-identical to ``--jobs 1``;
- a worker that dies or stalls past its lease deadline has its cells
  **stolen back** and re-leased (gated ``cluster.steal`` event +
  ``cluster.stolen_cells`` counter); if the slow worker later reports
  anyway, the duplicate is skipped and counted, never double-applied.

Connection handling is one thread per peer (``ThreadingTCPServer``); every
mutation of coordinator state happens under one lock, and completions are
queued to the campaign thread rather than applied from handler threads, so
the runner/journal/telemetry never see concurrent calls. A malformed peer
(oversized frame, garbage bytes, bad handshake) costs exactly one
connection: the handler counts ``cluster.protocol_error`` and drops only
that socket.
"""

from __future__ import annotations

import contextlib
import queue
import socket
import socketserver
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.obs.events import EVENTS
from repro.obs.events import emit as emit_event
from repro.obs.registry import MetricsRegistry, register_process_registry
from repro.store.base import MISS, ResultStore, StoreEntry

#: Poll interval of the campaign loop (reclaim sweep + inbox drain), seconds.
_TICK = 0.05

#: Process-wide cluster telemetry. Counters cover the full lease lifecycle
#: (``cluster.leased_cells`` / ``completed_cells`` / ``failed_cells`` /
#: ``stolen_cells``), the robustness edges (``cluster.protocol_error``,
#: ``cluster.duplicate_result``), and liveness (``cluster.heartbeats``).
CLUSTER_METRICS = register_process_registry(MetricsRegistry("cluster"))


class _ClusterServer(socketserver.ThreadingTCPServer):
    """One thread per peer; sockets die with the process (daemon threads)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], coordinator: "ClusterCoordinator"):
        self.coordinator = coordinator
        super().__init__(address, _PeerHandler)


class _PeerHandler(socketserver.BaseRequestHandler):
    """Frame loop for one peer connection (worker agent or store proxy)."""

    def handle(self) -> None:
        coord = self.server.coordinator
        self.request.settimeout(coord.peer_timeout)
        worker: Optional[str] = None
        try:
            while True:
                message = recv_frame(self.request)
                if message is None:
                    return  # clean hang-up between frames
                worker = message.get("worker", worker)
                reply = coord.dispatch(message)
                send_frame(self.request, reply)
        except ProtocolError as exc:
            coord.note_protocol_error(worker, str(exc))
            with contextlib.suppress(OSError, ProtocolError):
                send_frame(self.request, {"kind": "error", "error": str(exc)})
        except (OSError, socket.timeout):
            pass  # peer vanished mid-frame; lease expiry handles its cells
        finally:
            if worker is not None:
                coord.note_disconnect(worker)


class ClusterCoordinator:
    """Serve campaign cells to :class:`~repro.cluster.worker.WorkerAgent` peers.

    Args:
        host: Bind address (default loopback; bind ``"0.0.0.0"`` to serve a
            real fleet).
        port: TCP port; ``0`` picks an ephemeral one (see :attr:`address`).
        lease_s: Seconds a lease stays valid without a heartbeat before its
            cells are stolen back. Heartbeats renew all of a worker's
            leases at once.
        lease_cells: Cells handed out per lease request; ``0`` lets each
            worker ask for ``jobs * 4`` (enough to keep its pool full
            without hoarding cells other workers could steal).
        store: Optional authoritative store served to ``remote:`` proxy
            clients even while no campaign is active. During a campaign the
            runner's own store is served (they are usually the same one).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_s: float = 10.0,
        lease_cells: int = 0,
        store: Optional[ResultStore] = None,
    ):
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s!r}")
        self.lease_s = float(lease_s)
        self.lease_cells = max(0, int(lease_cells))
        # Generous: worker poll loops send frames every ~0.2 s and heartbeat
        # threads every lease_s/3, so a peer silent this long is gone.
        self.peer_timeout = max(60.0, self.lease_s * 6)
        self._lock = threading.Lock()
        self._inbox: "queue.Queue[Tuple[str, Any, Any]]" = queue.Queue()
        self._store = store
        self._runner: Optional[Any] = None  # the active _CampaignRunner
        self._campaign: str = ""
        self._retries: int = 0
        self._attempts: Dict[str, Any] = {}  # hash -> _Attempt
        self._unleased: List[str] = []  # spec-order queue of leasable hashes
        self._leases: Dict[str, Tuple[str, float]] = {}  # hash -> (worker, deadline)
        self._terminal: set = set()
        self._workers: Dict[str, Dict[str, Any]] = {}
        self._server = _ClusterServer((host, port), self)
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound ``(host, port)`` (resolves ``port=0``)."""
        return self._server.server_address[:2]

    def start(self) -> "ClusterCoordinator":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="cluster-coordinator",
            daemon=True,
        )
        self._thread.start()
        if EVENTS.active:
            emit_event("cluster.serve", host=self.address[0], port=self.address[1])
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ClusterCoordinator":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @contextlib.contextmanager
    def installed(self):
        """Route every ``run_campaign`` in this block through the cluster."""
        from repro.runner.pool import set_cluster_backend

        previous = set_cluster_backend(self)
        try:
            yield self
        finally:
            set_cluster_backend(previous)

    # -- message dispatch (handler threads) --------------------------------

    def dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        kind = message.get("kind")
        handlers = {
            "hello": self._on_hello,
            "heartbeat": self._on_heartbeat,
            "lease": self._on_lease,
            "result": self._on_result,
            "bye": self._on_bye,
            "store_get": self._on_store_get,
            "store_put": self._on_store_put,
            "store_delete": self._on_store_delete,
            "store_hashes": self._on_store_hashes,
            "store_entries": self._on_store_entries,
            "store_info": self._on_store_info,
        }
        handler = handlers.get(kind)
        if handler is None:
            raise ProtocolError(f"unknown message kind {kind!r}")
        return handler(message)

    def _on_hello(self, message: Dict[str, Any]) -> Dict[str, Any]:
        version = message.get("version")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: coordinator speaks "
                f"{PROTOCOL_VERSION}, peer speaks {version!r}"
            )
        worker = str(message.get("worker") or "")
        if not worker:
            raise ProtocolError("hello frame is missing a worker name")
        with self._lock:
            info = self._workers.setdefault(
                worker,
                {"completed": 0, "failed": 0, "stolen": 0, "leased": 0},
            )
            info["jobs"] = int(message.get("jobs", 1))
            info["last_seen"] = time.monotonic()
            info["connected"] = True
        if EVENTS.active:
            emit_event("cluster.hello", worker=worker, jobs=message.get("jobs", 1))
        return {"kind": "welcome", "version": PROTOCOL_VERSION, "lease_s": self.lease_s}

    def _on_heartbeat(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = str(message.get("worker") or "")
        now = time.monotonic()
        deadline = now + self.lease_s
        with self._lock:
            info = self._workers.get(worker)
            if info is not None:
                info["last_seen"] = now
            renewed = 0
            for content_hash, (owner, _) in list(self._leases.items()):
                if owner == worker:
                    self._leases[content_hash] = (owner, deadline)
                    renewed += 1
        CLUSTER_METRICS.counter("cluster.heartbeats").inc()
        if EVENTS.active:
            emit_event("cluster.heartbeat", worker=worker, leases=renewed)
        return {"kind": "ok", "leases": renewed}

    def _on_lease(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = str(message.get("worker") or "")
        wanted = int(message.get("max_cells") or 0)
        if self.lease_cells:
            wanted = min(wanted, self.lease_cells) if wanted else self.lease_cells
        wanted = max(1, wanted)
        now = time.monotonic()
        with self._lock:
            info = self._workers.get(worker)
            if info is not None:
                info["last_seen"] = now
            if self._runner is None:
                return {"kind": "wait"}
            granted: List[Dict[str, Any]] = []
            while self._unleased and len(granted) < wanted:
                content_hash = self._unleased.pop(0)
                if content_hash in self._terminal:
                    continue
                attempt = self._attempts[content_hash]
                self._leases[content_hash] = (worker, now + self.lease_s)
                granted.append(
                    {
                        "hash": content_hash,
                        "key": attempt.cell.key,
                        "task": attempt.cell.task,
                        "params": dict(attempt.cell.params),
                    }
                )
            if not granted:
                return {"kind": "wait"}
            if info is not None:
                info["leased"] = info.get("leased", 0) + len(granted)
            campaign, retries = self._campaign, self._retries
        CLUSTER_METRICS.counter("cluster.leased_cells").inc(len(granted))
        if EVENTS.active:
            emit_event("cluster.lease", worker=worker, cells=len(granted))
        return {
            "kind": "lease",
            "campaign": campaign,
            "retries": retries,
            "cells": granted,
        }

    def _on_result(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = str(message.get("worker") or "")
        accepted = duplicates = 0
        with self._lock:
            info = self._workers.get(worker)
            if info is not None:
                info["last_seen"] = time.monotonic()
            for doc in message.get("completed") or ():
                entry = StoreEntry.from_wire(doc.get("entry") or {})
                content_hash = str(doc.get("hash") or entry.content_hash)
                if not self._claim_terminal_locked(content_hash, worker):
                    duplicates += 1
                    continue
                accepted += 1
                if info is not None:
                    info["completed"] = info.get("completed", 0) + 1
                payload = {
                    "value": entry.value,
                    "wall": float(doc.get("wall") or 0.0),
                    "worker": f"{worker}/{doc.get('worker') or '?'}",
                }
                self._inbox.put(("complete", self._attempts[content_hash], payload))
            for doc in message.get("failed") or ():
                content_hash = str(doc.get("hash") or "")
                if not self._claim_terminal_locked(content_hash, worker):
                    duplicates += 1
                    continue
                accepted += 1
                if info is not None:
                    info["failed"] = info.get("failed", 0) + 1
                error = str(doc.get("error") or "unknown worker error")
                self._inbox.put(("fail", self._attempts[content_hash], error))
        if duplicates:
            CLUSTER_METRICS.counter("cluster.duplicate_result").inc(duplicates)
            if EVENTS.active:
                emit_event("cluster.duplicate_result", worker=worker, cells=duplicates)
        if EVENTS.active and accepted:
            emit_event("cluster.result", worker=worker, cells=accepted)
        return {"kind": "ok", "accepted": accepted, "duplicates": duplicates}

    def _claim_terminal_locked(self, content_hash: str, worker: str) -> bool:
        """Mark ``content_hash`` terminal; False for duplicates/strays.

        A cell stolen from a slow-but-alive worker may be reported twice
        (by the thief and later by the original lessee); whoever reports
        first wins — the task is deterministic, so the values are
        identical either way — and the loser's report must be dropped here
        or telemetry and journal counts would drift from the single-host
        run.
        """
        if content_hash not in self._attempts or content_hash in self._terminal:
            return False
        self._terminal.add(content_hash)
        self._leases.pop(content_hash, None)
        return True

    def _on_bye(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = str(message.get("worker") or "")
        self._reclaim_worker(worker, reason="bye")
        with self._lock:
            info = self._workers.get(worker)
            if info is not None:
                info["connected"] = False
        if EVENTS.active:
            emit_event("cluster.bye", worker=worker)
        return {"kind": "ok"}

    # -- store proxy (serves RemoteStore clients) --------------------------

    def _proxy_store(self) -> ResultStore:
        with self._lock:
            runner = self._runner
        store = runner.store if runner is not None and runner.store else self._store
        if store is None:
            raise ProtocolError("coordinator has no store to proxy")
        return store

    def _on_store_get(self, message: Dict[str, Any]) -> Dict[str, Any]:
        entry = self._proxy_store().get_entry(str(message.get("hash") or ""))
        return {"kind": "entry", "entry": None if entry is None else entry.to_wire()}

    def _on_store_put(self, message: Dict[str, Any]) -> Dict[str, Any]:
        entry = StoreEntry.from_wire(message.get("entry") or {})
        self._proxy_store().put_entry(entry)
        return {"kind": "ok"}

    def _on_store_delete(self, message: Dict[str, Any]) -> Dict[str, Any]:
        removed = self._proxy_store()._delete(str(message.get("hash") or ""))
        return {"kind": "ok", "removed": bool(removed)}

    def _on_store_hashes(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"kind": "hashes", "hashes": list(self._proxy_store()._hashes())}

    def _on_store_entries(self, message: Dict[str, Any]) -> Dict[str, Any]:
        entries = [entry.to_wire() for entry in self._proxy_store().entries()]
        return {"kind": "entries", "entries": entries}

    def _on_store_info(self, message: Dict[str, Any]) -> Dict[str, Any]:
        store = self._proxy_store()
        return {"kind": "info", "url": store.url, "salt": store.salt}

    # -- robustness accounting ---------------------------------------------

    def note_protocol_error(self, worker: Optional[str], detail: str) -> None:
        CLUSTER_METRICS.counter("cluster.protocol_error").inc()
        if EVENTS.active:
            emit_event("cluster.protocol_error", worker=worker or "?", error=detail[:200])

    def note_disconnect(self, worker: str) -> None:
        """A peer connection closed. Leases survive — the worker may be
        reconnecting (bounded backoff) or still computing on its other
        connection; only lease *expiry* (or an explicit ``bye``) steals."""
        with self._lock:
            info = self._workers.get(worker)
            if info is not None:
                info["last_seen"] = time.monotonic()

    # -- lease reclaim (the work-stealing half) ----------------------------

    def _reclaim_expired(self) -> None:
        now = time.monotonic()
        stolen: List[Tuple[str, str]] = []
        with self._lock:
            for content_hash, (worker, deadline) in list(self._leases.items()):
                if now <= deadline or content_hash in self._terminal:
                    continue
                del self._leases[content_hash]
                self._unleased.append(content_hash)
                stolen.append((content_hash, worker))
                info = self._workers.get(worker)
                if info is not None:
                    info["stolen"] = info.get("stolen", 0) + 1
        if stolen:
            CLUSTER_METRICS.counter("cluster.stolen_cells").inc(len(stolen))
            if EVENTS.active:
                by_worker: Dict[str, int] = {}
                for _, worker in stolen:
                    by_worker[worker] = by_worker.get(worker, 0) + 1
                for worker, count in sorted(by_worker.items()):
                    emit_event("cluster.steal", worker=worker, cells=count)

    def _reclaim_worker(self, worker: str, reason: str) -> None:
        stolen = 0
        with self._lock:
            for content_hash, (owner, _) in list(self._leases.items()):
                if owner != worker:
                    continue
                del self._leases[content_hash]
                self._unleased.append(content_hash)
                stolen += 1
            info = self._workers.get(worker)
            if info is not None and stolen:
                info["stolen"] = info.get("stolen", 0) + stolen
        if stolen:
            CLUSTER_METRICS.counter("cluster.stolen_cells").inc(stolen)
            if EVENTS.active:
                emit_event("cluster.steal", worker=worker, cells=stolen, reason=reason)

    # -- the campaign loop (pool backend contract) -------------------------

    def execute(self, runner: Any, pending: List[Any]) -> None:
        """Drain ``pending`` through the worker fleet (pool backend hook).

        Runs on the campaign thread. Handler threads only queue
        completions; this loop applies them through the runner's own
        terminal transitions, so store writes, journal records, and
        telemetry happen exactly as in a single-host run — same code, same
        order guarantees.
        """
        with self._lock:
            if self._runner is not None:
                raise RuntimeError("coordinator is already executing a campaign")
            self._runner = runner
            self._campaign = runner.spec.name
            self._retries = runner.retries
            self._attempts = {a.content_hash: a for a in pending}
            self._unleased = [a.content_hash for a in pending]
            self._leases = {}
            self._terminal = set()
        if EVENTS.active:
            emit_event("cluster.campaign", campaign=self._campaign, cells=len(pending))
        try:
            while True:
                self._reclaim_expired()
                try:
                    item = self._inbox.get(timeout=_TICK)
                except queue.Empty:
                    with self._lock:
                        if len(self._terminal) >= len(self._attempts):
                            break
                    continue
                self._apply(runner, item)
        finally:
            # Drain stragglers (accepted before the loop broke) and reset.
            while True:
                try:
                    self._apply(runner, self._inbox.get_nowait())
                except queue.Empty:
                    break
            with self._lock:
                self._runner = None
                self._attempts = {}
                self._unleased = []
                self._leases = {}
        if EVENTS.active:
            emit_event("cluster.drained", campaign=self._campaign)

    def _apply(self, runner: Any, item: Tuple[str, Any, Any]) -> None:
        kind, attempt, extra = item
        if kind == "complete":
            CLUSTER_METRICS.counter("cluster.completed_cells").inc()
            runner._complete(attempt, extra)
            return
        CLUSTER_METRICS.counter("cluster.failed_cells").inc()
        # The worker already burned the campaign's retry budget locally;
        # bump past it so the runner records a terminal failure.
        attempt.attempt = runner.retries + 1
        runner._retry_or_fail(attempt, str(extra))

    # -- introspection -----------------------------------------------------

    def worker_stats(self) -> Dict[str, Dict[str, Any]]:
        """Point-in-time fleet snapshot (tests and ``repro top``)."""
        now = time.monotonic()
        with self._lock:
            held: Dict[str, int] = {}
            for owner, _ in self._leases.values():
                held[owner] = held.get(owner, 0) + 1
            return {
                name: {
                    "jobs": info.get("jobs", 1),
                    "leased": info.get("leased", 0),
                    "holding": held.get(name, 0),
                    "completed": info.get("completed", 0),
                    "failed": info.get("failed", 0),
                    "stolen": info.get("stolen", 0),
                    "age_s": round(now - info.get("last_seen", now), 3),
                }
                for name, info in self._workers.items()
            }

    def progress(self) -> Dict[str, int]:
        with self._lock:
            return {
                "cells": len(self._attempts),
                "terminal": len(self._terminal),
                "leased": len(self._leases),
                "unleased": len(self._unleased),
            }
