"""The module-level on/off switch every instrumentation site consults.

Kept in its own tiny module so the hot paths (``Counter.inc``, the engine's
decide loop, TimeDice's candidacy sweep) can do ``from repro.obs.gate import
GATE`` once at import time and then pay exactly one attribute read per
check. When the gate is off, every instrumented call degrades to that read
plus a branch — the "no-op attribute call" contract the decide micro-bench
guards (``benchmarks/test_bench_obs_overhead.py``).

Nothing in here imports anything from :mod:`repro`, which keeps the
observability layer import-cycle-free: ``repro.core`` and ``repro.sim``
both instrument themselves against this gate.
"""

from __future__ import annotations

#: Default per-name warmup: the first WARMUP spans of every span name are
#: always recorded, so short runs (quick CLI figures, unit tests) see every
#: span even under aggressive sampling.
DEFAULT_WARMUP = 5000

#: After the warmup cap, record 1-in-SAMPLE_EVERY spans per name.
DEFAULT_SAMPLE_EVERY = 16

#: Upper bound on buffered spans per :class:`~repro.obs.spans.SpanBuffer`.
DEFAULT_SPAN_CAPACITY = 200_000


class _Gate:
    """Mutable singleton holding the global observability configuration."""

    __slots__ = ("enabled", "sample_every", "warmup", "span_capacity")

    def __init__(self) -> None:
        self.enabled = False
        self.sample_every = DEFAULT_SAMPLE_EVERY
        self.warmup = DEFAULT_WARMUP
        self.span_capacity = DEFAULT_SPAN_CAPACITY


#: The process-wide gate. Flip through :func:`repro.obs.enable` /
#: :func:`repro.obs.disable` rather than poking the attribute directly.
GATE = _Gate()
