"""Scheduler registries — the spec-addressable scheduler stack.

Two registries, mirroring :func:`repro.sim.config.register_system_builder`:

- :func:`register_local_scheduler` names partition-local schedulers
  (``"fp"``, ``"edf"``, ``"reorder"``, ``"blinder"``) so a
  :class:`~repro.sim.config.RunSpec` can select one by its ``scheduler``
  field and a campaign worker in another process can rebuild it.
- :func:`register_global_policy` names global (partition-level) policies and
  carries the metadata the engines used to hardcode per name: the telemetry
  label, the TimeDice selector kind, and whether the vectorized batch engine
  implements the policy. ``make_policy`` and the batch engine resolve
  through these entries, so a registered third-party policy can never
  silently collide with a string-compared builtin name.

Both registries follow the same contract: re-registering a name with a
*different* factory raises (silently repointing a name would change what
existing content hashes mean); re-registering the identical factory is an
idempotent no-op (campaign workers re-importing the owning module do exactly
that).

The builtin entries are registered by their owning modules on import —
:mod:`repro.sim.local` (fp/edf/reorder), :mod:`repro.sim.policies`
(norandom, the timedice variants, tdma), and
:mod:`repro.baselines.blinder` (blinder).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.model.partition import Partition
    from repro.model.system import System
    from repro.sim.local import LocalScheduler
    from repro.sim.policies import GlobalPolicyBase

#: Default local-scheduler name; ``RunSpec`` documents omit it so default
#: specs hash byte-identically to pre-``scheduler``-field ones.
DEFAULT_LOCAL_SCHEDULER = "fp"


@dataclass(frozen=True)
class LocalSchedulerEntry:
    """One named local scheduler.

    Attributes:
        name: The spec-addressable identifier (``RunSpec.scheduler``).
        factory: ``(partition, seed) -> LocalScheduler``. ``seed`` is None
            for deterministic schedulers; seeded ones receive a per-partition
            stream derived via :func:`repro.runner.seeding.derive_seed`.
        edf_based: The scheduler orders by absolute deadline, so the engine
            runs the EDF supply/demand vetting pass
            (:func:`repro.core.edf.edf_supply_report`) at construction.
        seeded: The factory consumes its seed argument (randomized
            schedulers); drives the derived per-partition seed streams.
    """

    name: str
    factory: Callable[["Partition", Optional[int]], "LocalScheduler"]
    edf_based: bool = False
    seeded: bool = False


@dataclass(frozen=True)
class GlobalPolicyEntry:
    """One named global policy plus the per-name metadata the engines need.

    Attributes:
        name: The spec-addressable identifier (``RunSpec.policy``).
        factory: ``(system=, seed=, quantum=) -> GlobalPolicyBase``.
        label: The :class:`repro.obs.RunObs` label of runs under this policy
            (the scalar engine reads it off the built instance's ``name``;
            the batch engine reads it here).
        selector_kind: TimeDice selector kind (``"weighted"`` / ``"uniform"``
            / ``"inverse"``) for the batch engine's vectorized dice, None for
            non-randomized policies.
        batch: Whether :mod:`repro.sim.batch` implements the policy.
            Third-party registrations default to False and take the gated
            ``batch.fallback.policy`` path.
    """

    name: str
    factory: Callable[..., "GlobalPolicyBase"]
    label: str
    selector_kind: Optional[str] = None
    batch: bool = False
    extra: Dict[str, object] = field(default_factory=dict)


_LOCAL_SCHEDULERS: Dict[str, LocalSchedulerEntry] = {}
_GLOBAL_POLICIES: Dict[str, GlobalPolicyEntry] = {}


def register_local_scheduler(
    name: str,
    factory: Callable[["Partition", Optional[int]], "LocalScheduler"],
    *,
    edf_based: bool = False,
    seeded: bool = False,
) -> None:
    """Register a named local scheduler for ``RunSpec.scheduler``."""
    existing = _LOCAL_SCHEDULERS.get(name)
    if existing is not None and existing.factory is not factory:
        raise ValueError(f"local scheduler {name!r} is already registered")
    _LOCAL_SCHEDULERS[name] = LocalSchedulerEntry(
        name=name, factory=factory, edf_based=edf_based, seeded=seeded
    )


def register_global_policy(
    name: str,
    factory: Callable[..., "GlobalPolicyBase"],
    *,
    label: Optional[str] = None,
    selector_kind: Optional[str] = None,
    batch: bool = False,
) -> None:
    """Register a named global policy for ``RunSpec.policy`` / ``make_policy``."""
    existing = _GLOBAL_POLICIES.get(name)
    if existing is not None and existing.factory is not factory:
        raise ValueError(f"global policy {name!r} is already registered")
    _GLOBAL_POLICIES[name] = GlobalPolicyEntry(
        name=name,
        factory=factory,
        label=name if label is None else label,
        selector_kind=selector_kind,
        batch=batch,
    )


def local_scheduler_names() -> Tuple[str, ...]:
    """Registered local-scheduler names, in registration order."""
    return tuple(_LOCAL_SCHEDULERS)


def global_policy_names() -> Tuple[str, ...]:
    """Registered global-policy names, in registration order."""
    return tuple(_GLOBAL_POLICIES)


def find_local_scheduler(name: str) -> Optional[LocalSchedulerEntry]:
    return _LOCAL_SCHEDULERS.get(name)


def find_global_policy(name: str) -> Optional[GlobalPolicyEntry]:
    return _GLOBAL_POLICIES.get(name)


def get_local_scheduler(name: str) -> LocalSchedulerEntry:
    entry = _LOCAL_SCHEDULERS.get(name)
    if entry is None:
        raise ValueError(
            f"unknown local scheduler {name!r}; registered: "
            f"{sorted(_LOCAL_SCHEDULERS)} (schedulers register on import — "
            "is the owning module imported?)"
        )
    return entry


def get_global_policy(name: str) -> GlobalPolicyEntry:
    entry = _GLOBAL_POLICIES.get(name)
    if entry is None:
        raise ValueError(
            f"unknown policy {name!r}; registered: {sorted(_GLOBAL_POLICIES)} "
            "(policies register on import — is the owning module imported?)"
        )
    return entry


def make_local_scheduler_factory(
    name: str, seed: Optional[int] = None
) -> Callable[["Partition"], "LocalScheduler"]:
    """The engine's ``local_scheduler_factory`` for a registered name.

    Deterministic schedulers get ``seed=None``. Seeded ones (REORDER) get a
    per-partition stream — ``derive_seed(run_seed, "sched/<name>/<part>")`` —
    independent of the workload and global-policy streams, so adding a
    randomized local scheduler never perturbs either.
    """
    entry = get_local_scheduler(name)
    if not entry.seeded:
        return lambda spec: entry.factory(spec, None)
    root = 0 if seed is None else int(seed)

    def factory(spec: "Partition") -> "LocalScheduler":
        from repro.runner.seeding import derive_seed

        return entry.factory(spec, derive_seed(root, f"sched/{name}/{spec.name}"))

    return factory


__all__ = [
    "DEFAULT_LOCAL_SCHEDULER",
    "GlobalPolicyEntry",
    "LocalSchedulerEntry",
    "find_global_policy",
    "find_local_scheduler",
    "get_global_policy",
    "get_local_scheduler",
    "global_policy_names",
    "local_scheduler_names",
    "make_local_scheduler_factory",
    "register_global_policy",
    "register_local_scheduler",
]
