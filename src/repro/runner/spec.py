"""Declarative campaign specifications.

A **campaign** is a finite grid of independent experiment cells — typically
``configs × seeds`` — each of which is a pure function of its parameters.
The spec is declarative so it can be

- **hashed**: every cell gets a stable content hash, which keys the on-disk
  result store (:mod:`repro.store`);
- **shipped to workers**: cells name their task function by dotted path
  (``"pkg.module:function"``) and carry only JSON-serializable parameters,
  so they cross process boundaries without pickling closures; and
- **merged deterministically**: results are always assembled in spec order,
  never completion order, so ``jobs=N`` output is bit-identical to serial.

Task functions take a single ``params`` dict and must return a
JSON-serializable value (that is what the cache persists).
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

#: Bumped whenever the cell/result encoding changes incompatibly; folded
#: into every cell hash so stale cache entries can never be replayed.
#: 2: simulation cells carry a serialized ``RunSpec`` under the ``"runspec"``
#: param and their hashes derive from ``RunSpec.content_hash()`` instead of
#: hand-rolled param dicts, so schema-1 entries must never be replayed.
#: 3: ``simulate_cell`` summaries dropped the scalar engine's ``memo_hits``/
#: ``memo_misses`` instrumentation fields so the batch backend produces
#: byte-identical cache values; schema-2 entries carry the extra fields and
#: must never be replayed against schema-3 readers.
CACHE_SCHEMA = 3


def canonical_json(value: Any) -> str:
    """Serialize ``value`` with a canonical key order and no whitespace.

    Hash inputs must not depend on dict insertion order.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def resolve_task(path: str) -> Callable[[Mapping[str, Any]], Any]:
    """Import and return the task function named by ``"pkg.module:function"``."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(f"task path must look like 'pkg.module:function', got {path!r}")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError as exc:
        raise ValueError(f"module {module_name!r} has no attribute {attr!r}") from exc
    if not callable(fn):
        raise TypeError(f"{path!r} resolved to a non-callable {type(fn).__name__}")
    return fn


@dataclass(frozen=True)
class CampaignCell:
    """One unit of work: a task path plus its JSON-serializable parameters.

    Attributes:
        key: Human-readable identity within the campaign (``"alpha=0.08/
            policy=timedice"``). Keys must be unique per spec; they name
            cache entries, telemetry events, and the merged-result slots.
        task: Dotted path of the cell function, ``"pkg.module:function"``.
        params: The function's single argument. Values must survive a JSON
            round-trip (the cache stores them for provenance).
    """

    key: str
    task: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def content_hash(self, salt: str = "") -> str:
        """Stable content hash of the cell (hex, 160 bits).

        Covers the task path, the canonicalized parameters, the cache
        schema version, and an optional code-version ``salt`` so results
        computed by older code are invalidated wholesale.

        When the params carry a serialized run description under
        ``"runspec"``, that sub-document is replaced by
        ``RunSpec.content_hash()`` before hashing: the run's cache identity
        is then owned by one place (:mod:`repro.sim.config`, under its own
        ``CONFIG_SCHEMA``) instead of whatever dict shape the producing
        experiment happened to use — and it is validated, so a malformed
        spec fails at hashing time, not inside a worker.
        """
        params = self.params
        if isinstance(params, Mapping) and params.get("runspec") is not None:
            # Imported lazily: repro.sim.config reaches repro.faults, which
            # imports repro.runner.seeding — a top-level import here would
            # close that cycle through repro.runner's package init.
            from repro.sim.config import RunSpec

            params = dict(params)
            params["runspec"] = {
                "content_hash": RunSpec.from_dict(params["runspec"]).content_hash()
            }
        material = canonical_json(
            {
                "schema": CACHE_SCHEMA,
                "task": self.task,
                "params": params,
                "salt": salt,
            }
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:40]


@dataclass
class CampaignSpec:
    """A named, ordered collection of cells.

    The order of ``cells`` is the canonical merge order; it does not affect
    any cell's hash or result value.
    """

    name: str
    cells: List[CampaignCell] = field(default_factory=list)

    def __post_init__(self) -> None:
        keys = [cell.key for cell in self.cells]
        duplicates = {k for k in keys if keys.count(k) > 1}
        if duplicates:
            raise ValueError(f"duplicate cell keys in campaign {self.name!r}: {sorted(duplicates)}")

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def spec_hash(self, salt: str = "") -> str:
        """Hash of the whole campaign (order-insensitive over cells)."""
        material = canonical_json(
            {
                "name": self.name,
                "cells": sorted(cell.content_hash(salt) for cell in self.cells),
            }
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:40]

    @staticmethod
    def from_grid(
        name: str,
        task: str,
        axes: Mapping[str, Sequence[Any]],
        fixed: Optional[Mapping[str, Any]] = None,
        key_fn: Optional[Callable[[Mapping[str, Any]], str]] = None,
    ) -> "CampaignSpec":
        """Build a campaign as the cartesian product of ``axes``.

        Every combination becomes one cell whose params are the axis values
        merged over ``fixed``. The default key joins the axis assignments in
        axis order: ``"alpha=0.08/policy=timedice"``.
        """
        cells = []
        for combo in grid(axes):
            key = key_fn(combo) if key_fn else default_key(combo)
            params: Dict[str, Any] = dict(fixed or {})
            params.update(combo)
            cells.append(CampaignCell(key=key, task=task, params=params))
        return CampaignSpec(name=name, cells=cells)


def grid(axes: Mapping[str, Sequence[Any]]) -> Iterable[Dict[str, Any]]:
    """Yield every point of the cartesian product of ``axes``, in axis order.

    >>> list(grid({"a": [1, 2], "b": ["x"]}))
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    names = list(axes)
    for values in itertools.product(*(axes[name] for name in names)):
        yield dict(zip(names, values))


def default_key(assignment: Mapping[str, Any]) -> str:
    """``{"alpha": 0.08, "policy": "td"}`` → ``"alpha=0.08/policy=td"``.

    Floats are rendered with ``%g``-style shortest form so keys stay
    readable; the full-precision value still lives in ``params`` (and
    therefore in the hash).
    """
    parts = []
    for name, value in assignment.items():
        rendered = format(value, ".10g") if isinstance(value, float) else str(value)
        parts.append(f"{name}={rendered}")
    return "/".join(parts)
