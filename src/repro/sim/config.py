"""RunSpec — the one declarative, content-hashable description of a run.

Before this layer existed the same simulation was described five different
ways: ``Simulator`` kwargs, campaign cell param dicts, CLI flags, experiment
helper arguments, and hand-rolled cache-key dicts. :class:`RunSpec`
consolidates them: it is **frozen** (construct, never mutate), **fully
serializable** (``to_dict``/``from_dict``, ``to_json``/``from_json`` survive
process boundaries, which is what campaign workers need), and
**content-hashable** (:meth:`RunSpec.content_hash` is a pure function of the
run's semantics under :data:`CONFIG_SCHEMA`, which is what sound result
caching needs).

Build a simulator from one with :meth:`repro.sim.engine.Simulator.from_spec`.
Anything that cannot be serialized — observer objects, behaviour instances,
ad-hoc local-scheduler factories — is *not* part of the spec: those are
per-process attachments passed to ``from_spec`` alongside it, and they never
participate in cache keys. Local schedulers themselves, however, **are**
speccable since the scheduler-stack refactor: the ``scheduler`` field names
a registered entry (:func:`repro.sim.registry.register_local_scheduler` —
``"fp"``, ``"edf"``, ``"reorder"``, ...), which a worker in another process
can rebuild and which participates in the content hash whenever it is not
the default. Migration note: code that passed
``local_scheduler_factory=...`` to ``Simulator``/``from_spec`` keeps
working unchanged (an explicit factory is still the escape hatch for
unregistered, process-local schedulers), but a factory that merely selects
a registered scheduler should move to ``RunSpec(scheduler="<name>")`` so
caching stays sound — an explicit factory combined with a non-default
``scheduler`` field is rejected as ambiguous.

Systems are described by :class:`SystemSpec` either **by name** (a registered
builder plus its kwargs — compact, and robust to model-class changes) or
**inline** (the full ``System.to_dict()`` form — for systems constructed ad
hoc). Experiments register their bespoke systems with
:func:`register_system_builder` so their campaign cells stay compact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional

from repro.core.timedice import DEFAULT_QUANTUM
from repro.model import configs as _model_configs
from repro.model.system import System
import repro.sim.local as _sim_local  # noqa: F401 — registers fp/edf/reorder
from repro.sim.behaviors import ChannelScript
from repro.sim.policies import POLICY_NAMES  # noqa: F401 — re-exported; also
# registers the builtin global policies as an import side effect
from repro.sim.registry import (
    DEFAULT_LOCAL_SCHEDULER,
    find_global_policy,
    find_local_scheduler,
    global_policy_names,
    local_scheduler_names,
)

#: Version of the RunSpec wire/hash format. Bump when the meaning of any
#: field changes so stale cached results can never be misread as current.
CONFIG_SCHEMA = 1


def canonical_json(value: Any) -> str:
    """Key-sorted, whitespace-free JSON — the hashing wire format."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------- SystemSpec

#: Registered named system builders: name -> callable(**args) -> System.
SYSTEM_BUILDERS: Dict[str, Callable[..., System]] = {}


def register_system_builder(name: str, builder: Callable[..., System]) -> None:
    """Register a named system builder for :meth:`SystemSpec.named`.

    Re-registering a name with a different callable raises: silently
    repointing a name would change what existing content hashes *mean*.
    Registering the same callable twice is an idempotent no-op (modules
    re-imported by campaign workers do exactly that).
    """
    existing = SYSTEM_BUILDERS.get(name)
    if existing is not None and existing is not builder:
        raise ValueError(f"system builder {name!r} is already registered")
    SYSTEM_BUILDERS[name] = builder


for _name, _builder in (
    ("table1", _model_configs.table1_system),
    ("light_load", _model_configs.light_load_system),
    ("feasibility", _model_configs.feasibility_system),
    ("car", _model_configs.car_system),
    ("three_partition", _model_configs.three_partition_example),
    ("scaled_partition_count", _model_configs.scaled_partition_count),
    ("random", _model_configs.random_system),
):
    register_system_builder(_name, _builder)


@dataclass(frozen=True)
class SystemSpec:
    """A serializable description of a :class:`~repro.model.system.System`.

    Exactly one of the two forms is populated:

    - ``builder`` + ``args``: a name registered via
      :func:`register_system_builder` and the JSON-able kwargs to call it
      with (the compact, preferred form);
    - ``inline``: the full ``System.to_dict()`` document.
    """

    builder: Optional[str] = None
    args: Mapping[str, Any] = field(default_factory=dict)
    inline: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if (self.builder is None) == (self.inline is None):
            raise ValueError("exactly one of builder/inline must be given")
        object.__setattr__(self, "args", dict(self.args))
        if self.inline is not None and self.args:
            raise ValueError("args only apply to the builder form")

    @classmethod
    def named(cls, builder: str, **args: Any) -> "SystemSpec":
        """The compact form: a registered builder name plus its kwargs."""
        return cls(builder=builder, args=args)

    @classmethod
    def from_system(cls, system: System) -> "SystemSpec":
        """The inline form, capturing an already-built system verbatim."""
        return cls(inline=system.to_dict())

    def build(self) -> System:
        if self.inline is not None:
            return System.from_dict(self.inline)
        builder = SYSTEM_BUILDERS.get(self.builder)
        if builder is None:
            raise KeyError(
                f"unknown system builder {self.builder!r}; registered: "
                f"{sorted(SYSTEM_BUILDERS)} (experiments register theirs on "
                "import — is the owning module imported?)"
            )
        return builder(**self.args)

    def to_dict(self) -> dict:
        if self.inline is not None:
            return {"inline": json.loads(canonical_json(self.inline))}
        return {"builder": self.builder, "args": json.loads(canonical_json(self.args))}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemSpec":
        if "inline" in data and data["inline"] is not None:
            return cls(inline=data["inline"])
        return cls(builder=data["builder"], args=data.get("args", {}))


# ------------------------------------------------------------------ RunSpec


def _coerce_channel(channel) -> Optional[dict]:
    if channel is None:
        return None
    if isinstance(channel, ChannelScript):
        return channel.to_dict()
    return dict(channel)


def _coerce_faults(faults) -> Optional[dict]:
    if faults is None:
        return None
    if hasattr(faults, "to_dict"):
        return faults.to_dict()
    return dict(faults)


def _coerce_system(system) -> SystemSpec:
    if isinstance(system, SystemSpec):
        return system
    if isinstance(system, System):
        return SystemSpec.from_system(system)
    if isinstance(system, Mapping):
        return SystemSpec.from_dict(system)
    raise TypeError(f"cannot interpret {type(system).__name__} as a SystemSpec")


@dataclass(frozen=True)
class RunSpec:
    """The declarative description of one simulation run.

    Attributes:
        system: What to simulate (:class:`SystemSpec`; also accepts a built
            :class:`~repro.model.system.System` or a spec dict at
            construction).
        policy: Canonical policy name (see
            :data:`repro.sim.policies.POLICY_NAMES`). Policy *instances* are
            not speccable — a spec must be reconstructable in another
            process.
        seed: Master seed; workload, policy, and fault streams all derive
            from it exactly as ``Simulator(seed=...)`` does.
        horizon: Absolute simulation end time (µs), or None when the caller
            drives ``run_until`` itself.
        quantum: TimeDice MIN_INV_SIZE (µs); None means the engine default
            (:data:`repro.core.timedice.DEFAULT_QUANTUM`).
        memoize: Retained for hash stability only; it changes nothing about
            the run. The scalar engine once had a schedulability memo behind
            this flag; the field still round-trips through
            :meth:`to_dict`/:meth:`from_dict` and participates in
            :meth:`content_hash`, so every existing cell key, derived seed
            and stored result stays byte-identical.
            :meth:`Simulator.from_spec <repro.sim.engine.Simulator.from_spec>`
            ignores it.
        channel: Optional covert-channel script
            (:meth:`ChannelScript.to_dict` form; also accepts a
            :class:`ChannelScript`).
        faults: Optional fault plan (:meth:`FaultPlan.to_dict` form; also
            accepts a :class:`~repro.faults.FaultPlan`). ``None`` means
            "adopt the process-ambient plan, if any" — resolve it explicitly
            with :meth:`normalized`.
        budget_donation: The Sec. II-a donation rule toggle.
        measure_overhead: Record wall-clock decide latencies (Table IV /
            Fig. 17 runs only; wall-clock data never affects the hash beyond
            this boolean).
        engine: Which backend executes the run — ``"scalar"`` (the default
            event-loop engine) or ``"batch"`` (the vectorized lockstep
            engine, :mod:`repro.sim.batch`). The two are bit-identical on
            every supported spec, so the engine choice is **hash-neutral**:
            it never participates in :meth:`content_hash` and both engines
            share one cache entry per run.
        scheduler: Registered *local* scheduler name
            (:func:`repro.sim.registry.register_local_scheduler`): ``"fp"``
            (fixed-priority, the default), ``"edf"``, ``"reorder"``, or any
            third-party registration. Unlike ``engine``, a non-default
            scheduler **changes run semantics**, so it participates in
            :meth:`content_hash`; the default is emitted nowhere, keeping
            default-scheduler documents and hashes byte-identical to
            pre-``scheduler``-field ones.
    """

    system: SystemSpec
    policy: str = "norandom"
    seed: int = 0
    horizon: Optional[int] = None
    quantum: Optional[int] = None
    memoize: bool = True
    channel: Optional[Mapping[str, Any]] = None
    faults: Optional[Mapping[str, Any]] = None
    budget_donation: bool = False
    measure_overhead: bool = False
    engine: str = "scalar"
    scheduler: str = DEFAULT_LOCAL_SCHEDULER

    def __post_init__(self) -> None:
        object.__setattr__(self, "system", _coerce_system(self.system))
        object.__setattr__(self, "channel", _coerce_channel(self.channel))
        object.__setattr__(self, "faults", _coerce_faults(self.faults))
        if find_global_policy(self.policy) is None:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of "
                f"{global_policy_names()}"
            )
        if find_local_scheduler(self.scheduler) is None:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; registered: "
                f"{local_scheduler_names()} (schedulers register on import — "
                "is the owning module imported?)"
            )
        object.__setattr__(self, "seed", int(self.seed))
        if self.horizon is not None:
            horizon = int(self.horizon)
            if horizon <= 0:
                raise ValueError(f"horizon must be positive, got {horizon}")
            object.__setattr__(self, "horizon", horizon)
        if self.quantum is not None:
            quantum = int(self.quantum)
            if quantum <= 0:
                raise ValueError(f"quantum must be positive, got {quantum}")
            object.__setattr__(self, "quantum", quantum)
        if self.engine not in ("scalar", "batch"):
            raise ValueError(
                f"unknown engine {self.engine!r}; expected 'scalar' or 'batch'"
            )
        # Validate eagerly: a malformed channel/faults document should fail
        # at spec construction, not inside a campaign worker.
        self.channel_script()
        self.fault_plan()

    # ------------------------------------------------------------- accessors

    @property
    def effective_quantum(self) -> int:
        return DEFAULT_QUANTUM if self.quantum is None else self.quantum

    def build_system(self) -> System:
        return self.system.build()

    def channel_script(self) -> Optional[ChannelScript]:
        if self.channel is None:
            return None
        return ChannelScript.from_dict(self.channel)

    def fault_plan(self):
        if self.faults is None:
            return None
        from repro.faults import FaultPlan

        return FaultPlan.from_dict(self.faults)

    # --------------------------------------------------------- normalization

    def normalized(self) -> "RunSpec":
        """Resolve everything left implicit, returning a self-contained spec.

        Today that is exactly one thing: the fault plan. A spec with
        ``faults=None`` means "whatever ambient plan is active when the
        simulator is built" — correct for interactive use, but worthless as
        a cache key (the same spec would name different runs under different
        ambient state). Normalization decides the explicit-wins precedence
        **once**, here, via :func:`repro.faults.resolve_fault_plan`; the
        engine no longer encodes it. Campaign layers must hash normalized
        specs.
        """
        from repro.faults import resolve_fault_plan

        plan = resolve_fault_plan(self.fault_plan())
        resolved = None if plan is None else plan.to_dict()
        if resolved == self.faults:
            return self
        return replace(self, faults=resolved)

    # --------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Plain-JSON form with every field explicit (schema-tagged).

        The ``engine`` key is emitted only when it is not the default
        ``"scalar"`` — it is an execution-backend selector, not run
        semantics, so default-engine documents round-trip byte-identically
        with pre-engine-field ones. The ``scheduler`` key follows the same
        emit-only-when-non-default rule (so default documents stay
        byte-identical), but for the opposite reason: a non-default
        scheduler *is* run semantics and must reach the hash.
        """
        doc = {
            "schema": CONFIG_SCHEMA,
            "system": self.system.to_dict(),
            "policy": self.policy,
            "seed": self.seed,
            "horizon": self.horizon,
            "quantum": self.quantum,
            "memoize": self.memoize,
            "channel": None if self.channel is None else dict(self.channel),
            "faults": None if self.faults is None else dict(self.faults),
            "budget_donation": self.budget_donation,
            "measure_overhead": self.measure_overhead,
        }
        if self.engine != "scalar":
            doc["engine"] = self.engine
        if self.scheduler != DEFAULT_LOCAL_SCHEDULER:
            doc["scheduler"] = self.scheduler
        return doc

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        schema = data.get("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise ValueError(
                f"RunSpec schema {schema} is not supported (expected {CONFIG_SCHEMA})"
            )
        return cls(
            system=SystemSpec.from_dict(data["system"]),
            policy=data.get("policy", "norandom"),
            seed=data.get("seed", 0),
            horizon=data.get("horizon"),
            quantum=data.get("quantum"),
            memoize=data.get("memoize", True),
            channel=data.get("channel"),
            faults=data.get("faults"),
            budget_donation=data.get("budget_donation", False),
            measure_overhead=data.get("measure_overhead", False),
            engine=data.get("engine", "scalar"),
            scheduler=data.get("scheduler", DEFAULT_LOCAL_SCHEDULER),
        )

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    def content_hash(self) -> str:
        """Content address of this run (40 hex chars).

        A pure function of the spec's semantics: stable across field order,
        JSON round-trips, and process boundaries; distinct on every field
        (the schema version is part of the hashed material, so a format bump
        invalidates everything at once). The ``engine`` field is excluded:
        scalar and batch execution are bit-identical, so both address the
        same cached result. The ``scheduler`` field *is* included whenever
        it is non-default (``to_dict`` omits the default, so ``"fp"`` specs
        hash exactly as pre-field ones did). Hash **normalized** specs when
        the address must be ambient-state-independent.
        """
        material = self.to_dict()
        material.pop("engine", None)
        return hashlib.sha256(canonical_json(material).encode("utf-8")).hexdigest()[
            :40
        ]

    def replace(self, **changes: Any) -> "RunSpec":
        """A changed copy (:func:`dataclasses.replace` with re-validation)."""
        return replace(self, **changes)


__all__ = [
    "CONFIG_SCHEMA",
    "RunSpec",
    "SystemSpec",
    "SYSTEM_BUILDERS",
    "register_system_builder",
    "canonical_json",
]
