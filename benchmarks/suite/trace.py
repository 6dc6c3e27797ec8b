"""Span tracing for traced benchmark runs, installed from outside ``src/``.

:func:`install` wraps one public entry point per layer (engine, batch
engine, channel harvest, decoders, campaign pool, spec hashing, result
store, journal, cluster wire). While :attr:`Tracer.enabled` is set, every
call through a wrapper records one span: ``[id, name, start_ns, end_ns,
parent_id, thread_id, trace_id, attrs]``. Times are ``time.monotonic_ns``,
which is system-wide on Linux, so spans from different processes line up.

Spans stay in memory until :meth:`Tracer.flush` appends them to
``DIR/spans-<pid>.jsonl``. A forked pool worker inherits the wrappers; it
drops the parent's spans and flushes its own through
``multiprocessing.util.Finalize`` when the worker exits. Cluster workers
start through ``python -m benchmarks.suite worker``, which installs the
wrappers and flushes on exit.

A span's self time is its duration minus the part its child spans cover
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

ID, NAME, START, END, PARENT, TID, TRACE, ATTRS = range(8)


class Tracer:
    """Per-process span recorder. ``directory`` is where :meth:`flush` writes."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.enabled = False
        #: Trace id of root spans: the campaign most recently entered.
        self.trace_id = ""
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._local = threading.local()
        mp_util.Finalize(self, self.flush, exitpriority=10)

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: Union[str, Callable[[tuple], str]],
        annotate: Optional[Callable[[tuple, Any], Dict[str, int]]] = None,
        campaign: Optional[Callable[[tuple], str]] = None,
    ) -> Callable:
        """``fn``, recording a span per call while enabled.

        ``name`` is the span name or a function of the call's positional
        arguments; ``annotate(args, result)`` returns the span's counts;
        ``campaign(args)`` starts a new trace id (the campaign's name).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            if campaign is not None:
                self.trace_id = trace = campaign(args)
            else:
                trace = parent[TRACE] if parent else self.trace_id
            span = [
                next(self._ids),
                name if isinstance(name, str) else name(args),
                time.monotonic_ns(),
                0,
                parent[ID] if parent else 0,
                threading.get_ident(),
                trace,
                None,
            ]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.monotonic_ns()
                stack.pop()
                self.spans.append(span)
            if annotate is not None:
                span[ATTRS] = annotate(args, result)
            return result

        return traced

    def flush(self) -> None:
        """Append the recorded spans to ``DIR/spans-<pid>.jsonl``."""
        if not self.spans:
            return
        spans, self.spans = self.spans, []
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.writelines(json.dumps(s, separators=(",", ":")) + "\n" for s in spans)


def _targets() -> List[Tuple[Any, str, Any, Any, Any]]:
    """(owner, attribute, span name, annotate, campaign) per traced entry point.

    Module-level functions are patched in the module that *calls* them
    (``repro.channel.attack`` binds ``collect_dataset_from_spec`` at import;
    ``simulate_batch`` and the cluster worker import theirs at call time).
    """
    from repro.channel import attack, bayes
    from repro.cluster import coordinator, protocol
    from repro.ml import svm
    from repro.runner import pool, spec
    from repro.service import journal
    from repro.sim import batch, engine
    from repro.store import base

    def decisions(args, result):
        # Every traced workload calls run_until once per simulator, so the
        # result's cumulative counts are this call's counts.
        return {
            "decisions": result.decisions,
            "memo_hits": result.memo_hits,
            "memo_misses": result.memo_misses,
        }

    def batched(args, results):
        return {"cells": len(args[0]), "decisions": sum(r.decisions for r in results)}

    def hit(args, value):
        return {"hits": int(value is not base.MISS)}

    def leased(args, reply):
        cells = len(reply.get("cells") or ())
        return {"cells": cells, "granted": int(cells > 0)}

    return [
        (engine.Simulator, "run_until", "sim.engine", decisions, None),
        (batch, "run_specs_batched", "sim.batch", batched, None),
        (attack, "collect_dataset_from_spec", "channel.harvest", None, None),
        (bayes.BayesianDecoder, "fit", "channel.bayes", None, None),
        (bayes.BayesianDecoder, "predict", "channel.bayes", None, None),
        (svm.LSSVMClassifier, "fit", "ml.svm", None, None),
        (svm.LSSVMClassifier, "predict", "ml.svm", None, None),
        (pool, "run_campaign", "runner.pool", None, lambda args: args[0].name),
        (spec.CampaignCell, "content_hash", "runner.spec.hash", None, None),
        (base.ResultStore, "get", "store.get", hit, None),
        (base.ResultStore, "put", "store.put", None, None),
        (journal.CampaignJournal, "append", "service.journal.append", None, None),
        (
            coordinator.ClusterCoordinator,
            "dispatch",
            lambda args: f"cluster.dispatch.{args[1].get('kind')}",
            leased,
            None,
        ),
        (protocol.FrameConnection, "request", "cluster.worker.request", None, None),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced entry point; returns the function that unwraps them."""
    saved = []
    for owner, attr, name, annotate, campaign in _targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, annotate, campaign))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# -- analysis ---------------------------------------------------------------


def load_spans(directory: Union[str, Path]) -> Dict[int, List[list]]:
    """Every ``spans-<pid>.jsonl`` under ``directory``, keyed by pid."""
    spans: Dict[int, List[list]] = {}
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path, encoding="utf-8") as handle:
            spans.setdefault(pid, []).extend(json.loads(line) for line in handle if line.strip())
    return spans


def covered_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[list]) -> Dict[int, int]:
    """Span id -> self time (ns) for the spans of one process: duration minus
    the union of its children's intervals, clipped to the span."""
    by_id = {span[ID]: span for span in spans}
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        parent = by_id.get(span[PARENT])
        if parent is not None:
            children.setdefault(span[PARENT], []).append(
                (max(span[START], parent[START]), min(span[END], parent[END]))
            )
    return {
        span[ID]: span[END] - span[START] - covered_ns(
            (s, e) for s, e in children.get(span[ID], ()) if e > s
        )
        for span in spans
    }


def layer_table(
    spans_by_pid: Dict[int, List[list]], start_ns: int, end_ns: int
) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self seconds, summed duration, calls and summed
    attrs over every process, for spans that start inside the window."""
    table: Dict[str, Dict[str, float]] = {}
    for spans in spans_by_pid.values():
        selves = self_times(spans)
        for span in spans:
            if not start_ns <= span[START] <= end_ns:
                continue
            row = table.setdefault(span[NAME], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            row["self_s"] += selves[span[ID]] / 1e9
            row["total_s"] += (span[END] - span[START]) / 1e9
            row["calls"] += 1
            for key, value in (span[ATTRS] or {}).items():
                row[key] = row.get(key, 0) + value
    return table


def thread_accounting(
    spans: List[list], tid: int, start_ns: int, end_ns: int, timed_s: float
) -> Dict[str, float]:
    """Closure check for one thread over ``[start_ns, end_ns]``: the self
    times of its spans plus the unspanned remainder, against the wall.

    ``timed_s`` is the time the caller measured, with its own clock, inside
    the calls the spans should cover; the remainder is the wall minus that.
    ``accounted`` strays from 1 when spans miss part of those calls or count
    time twice.
    """
    inside = [s for s in spans if s[TID] == tid and start_ns <= s[START] <= end_ns]
    wall = end_ns - start_ns
    spanned = sum(self_times(inside).values())
    unspanned = wall - timed_s * 1e9
    return {
        "wall_s": wall / 1e9,
        "self_s": spanned / 1e9,
        "unspanned_s": unspanned / 1e9,
        "accounted": (spanned + unspanned) / wall if wall else 1.0,
    }
