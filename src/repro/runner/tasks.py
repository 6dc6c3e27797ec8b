"""Built-in campaign tasks.

Small, dependency-free cell functions used by the runner's own tests and
benchmarks. They live in the library (not in a test module) so they resolve
by dotted path under every process start method.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping

from repro.runner.seeding import derive_seed


def checksum_cell(params: Mapping[str, Any]) -> Dict[str, Any]:
    """A deterministic spin loop: mixes ``seed`` through ``spin`` rounds.

    Parameters: ``seed`` (int), ``spin`` (iterations, default 10_000), and
    optional ``sleep`` (extra seconds of wall time, default 0). Returns the
    resulting checksum — a pure function of the parameters, which makes it
    ideal for cache/determinism tests and throughput benchmarks.
    """
    seed = int(params.get("seed", 0))
    spin = int(params.get("spin", 10_000))
    sleep = float(params.get("sleep", 0.0))
    state = seed & 0xFFFFFFFFFFFFFFFF
    for i in range(spin):
        state = (state * 6364136223846793005 + 1442695040888963407 + i) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 33
    if sleep:
        time.sleep(sleep)
    return {"seed": seed, "checksum": state}


def seeded_checksum_cell(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Like :func:`checksum_cell`, but derives its seed from the cell key.

    Parameters: ``root_seed`` and ``key`` (plus ``spin``/``sleep`` as
    above). Exercises :func:`repro.runner.seeding.derive_seed` end to end.
    """
    seed = derive_seed(int(params["root_seed"]), str(params["key"]))
    merged = dict(params)
    merged["seed"] = seed
    return checksum_cell(merged)


def _summarize(spec, result) -> Dict[str, Any]:
    """The JSON summary of one run — identical fields whichever engine
    produced ``result``. Engine instrumentation is deliberately absent: it
    describes an engine's internals, not properties of the run, and the
    other backend could never reproduce it per cell.
    """
    return {
        "spec_hash": spec.content_hash(),
        "end_time": result.end_time,
        "decisions": result.decisions,
        "switches": result.switches,
        "deadline_misses": result.deadline_misses,
        "fault_injections": result.fault_injections,
    }


def simulate_cell(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Run the simulation a serialized :class:`~repro.sim.config.RunSpec`
    describes, returning a JSON summary of the result.

    The single source of truth for *what* runs is ``params["runspec"]``
    (``RunSpec.to_dict()`` form, ``horizon`` required); the cell carries no
    other simulation parameters, so its cache identity is exactly the spec's
    content hash (see :meth:`repro.runner.spec.CampaignCell.content_hash`).
    """
    # Lazy: repro.sim.config imports repro.faults, which imports
    # repro.runner.seeding — a top-level import would be circular through
    # this package's __init__.
    from repro.sim.config import RunSpec
    from repro.sim.engine import Simulator

    spec = RunSpec.from_dict(params["runspec"])
    if spec.horizon is None:
        raise ValueError("simulate_cell needs a RunSpec with a horizon")
    result = Simulator.from_spec(spec).run_until(spec.horizon)
    return _summarize(spec, result)


def simulate_batch(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Run many compatible RunSpecs in lockstep through the batch engine.

    Parameters: ``runspecs`` — a list of ``RunSpec.to_dict()`` docs that all
    share one system shape and horizon (see
    :func:`repro.sim.batch.batch_group_key`). Returns ``{"results": [...]}``
    with one :func:`_summarize` dict per spec, in input order — each entry
    is exactly what :func:`simulate_cell` would have returned for that spec,
    because the batch backend is bit-identical to the scalar engine.

    This task is the campaign pool's grouped fast path; it is never cached
    as a unit (the pool stores each member's summary under the member cell's
    own content hash).
    """
    from repro.sim.config import RunSpec
    from repro.sim.batch import run_specs_batched

    specs = [RunSpec.from_dict(doc) for doc in params["runspecs"]]
    if not specs:
        return {"results": []}
    results = run_specs_batched(specs)
    return {"results": [_summarize(s, r) for s, r in zip(specs, results)]}
