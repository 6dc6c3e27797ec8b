"""Command-line front end: ``python -m repro <experiment> [options]``.

Each subcommand regenerates one of the paper's tables or figures as plain
text. ``--quick`` shrinks sample counts for smoke runs; ``--full`` scales
them up toward the paper's sample sizes (slower).

Campaign-backed subcommands (``fig4``, ``fig12``, ``load-sweep``,
``defense-matrix``) additionally honor ``--jobs N`` (parallel workers),
``--no-cache`` / ``--store URL`` (result storage: ``json:DIR`` or
``sqlite:FILE``; default ``json:.repro_cache``), ``--resume`` (crash-safe
campaign journal + resume of interrupted runs), and ``--telemetry-out``
(dump structured campaign telemetry as JSON). ``python -m repro campaign
<target>`` runs the same targets with an explicit campaign framing and
prints the telemetry.

Campaign service (:mod:`repro.service`): ``repro service submit <target>``
queues a campaign request, ``repro service drain`` executes the queue FIFO
through this process's worker pool, ``repro service status`` reports
pending/running/done campaigns with per-campaign progress and ETA. Store
maintenance: ``repro cache ls`` / ``gc`` / ``migrate <src> <dst>``
(see docs/SERVICE.md).

Cluster execution (:mod:`repro.cluster`): ``repro cluster serve`` drains
the service queue like ``service drain``, but leases every campaign cell
to remote worker agents over TCP instead of this machine's pool;
``repro cluster worker HOST:PORT --jobs N`` runs one such agent. Workers
that die mid-lease have their cells stolen back and re-leased; results are
byte-identical to a single-host ``--jobs 1`` run (see docs/SERVICE.md,
"Cluster"). A coordinator also serves its result store to
``remote:HOST:PORT`` store URLs.

Observability (:mod:`repro.obs`): ``--trace-out FILE`` works on any
sim-backed subcommand and writes a Chrome/Perfetto ``trace_event`` JSON of
every simulation the command runs (open it at https://ui.perfetto.dev);
``python -m repro stats [policy]`` runs one short simulation with
instrumentation on and pretty-prints its metrics snapshot.

Fleet observability (docs/OBSERVABILITY.md): ``--events-out FILE`` appends
a structured JSON-lines event log (cells, batch groups, store traffic,
service tickets) for the whole command, including forked pool workers;
``--metrics-dir DIR`` arms a periodic exporter that leaves per-process
``metrics-<pid>.prom`` / ``.json`` snapshots (Prometheus text + exact-merge
JSON) — ``repro service drain --metrics-dir DIR`` leaves one per worker.
``repro top`` folds a service root, an event log, and a metrics directory
into a live fleet console (``--once`` renders a single frame);
``repro service status --watch`` re-renders the queue report in place.

Fault injection (:mod:`repro.faults`): ``--faults SPEC`` installs a fault
plan ambiently, so every simulation the subcommand runs executes under it
(``SPEC`` is the ``kind:partition[:rate=..,mag=..,len=..];...``
mini-language, or ``@file.json``; see docs/FAULTS.md). The plan's content
hash is folded into the campaign cache salt so faulted results can never be
conflated with nominal ones. ``campaign robustness-sweep`` (alias
``robustness_sweep``) sweeps fault kind × intensity × policy and reports
channel accuracy plus deadline-guarantee attribution; with ``--out FILE``
it also writes its summary JSON there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro.obs as obs
from repro.runner import (
    ProgressPrinter,
    add_default_listener,
    drain_session,
    remove_default_listener,
    session_footer,
)
from repro.experiments import (
    classifier_comparison,
    coding_study,
    defense_matrix,
    fig04_feasibility,
    fig06_trace,
    fig12_accuracy,
    fig13_heatmap,
    fig14_distributions,
    fig15_capacity,
    fig18_blinder,
    load_sweep,
    robustness_sweep,
    table2_wcrt,
    table3_car,
    table4_latency,
)


#: Where ``--resume`` keeps campaign journals unless ``--journal-dir`` says
#: otherwise.
DEFAULT_JOURNAL_DIR = ".repro_journal"


def _scale(args: argparse.Namespace, quick: int, default: int, full: int) -> int:
    if args.quick:
        return quick
    if args.full:
        return full
    return default


def _store_url(args: argparse.Namespace) -> Optional[str]:
    """The store URL a subcommand should use, or None with ``--no-cache``.

    ``--store`` (URL: ``json:DIR``, ``sqlite:FILE``, bare path = JSON) wins
    over the legacy ``--cache-dir``; the default is the historical JSON
    store under ``.repro_cache/``.
    """
    if args.no_cache:
        return None
    from repro.store import DEFAULT_STORE_URL

    return getattr(args, "store", None) or args.cache_dir or DEFAULT_STORE_URL


def _campaign_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """jobs/cache/journal keywords shared by every campaign-backed subcommand."""
    from repro.store import open_store

    url = _store_url(args)
    salt = None
    if url is not None and getattr(args, "faults", None):
        # An ambient fault plan changes what every cell computes without
        # appearing in any cell's params — fold its content hash into the
        # cache salt so faulted and nominal results can never be conflated.
        from repro.faults import FaultPlan
        from repro.runner import code_salt

        plan = FaultPlan.parse(args.faults)
        if not plan.is_null:
            salt = code_salt() + "|faults:" + plan.content_hash()
    kwargs: Dict[str, object] = {
        "jobs": args.jobs,
        "cache": open_store(url, salt=salt) if url is not None else None,
    }
    if getattr(args, "resume", False) or getattr(args, "journal_dir", None):
        kwargs["journal"] = getattr(args, "journal_dir", None) or DEFAULT_JOURNAL_DIR
    return kwargs


def _scheduler_axis(args: argparse.Namespace) -> Tuple[str, ...]:
    """The local-scheduler rows a sweep-style subcommand should run.

    ``--scheduler NAME`` *adds* NAME beside the default fp axis (the paper's
    configuration stays in the output as the baseline); without the flag the
    axis is just ``("fp",)``. Unknown names fail fast with the registered
    set."""
    name = getattr(args, "scheduler", None)
    if name is None or name == "fp":
        return ("fp",)
    _validate_scheduler(name)
    return ("fp", name)


def _validate_scheduler(name: str) -> str:
    """Fail fast (exit 2) when ``name`` is not a registered local scheduler."""
    import repro.baselines.blinder  # noqa: F401 — registers "blinder"
    from repro.sim.registry import find_local_scheduler, local_scheduler_names

    if find_local_scheduler(name) is None:
        raise SystemExit(
            f"unknown scheduler {name!r}; choose from "
            f"{', '.join(sorted(local_scheduler_names()))}"
        )
    return name


def _run_fig4(args) -> str:
    sizes = (10, 20, 50) if args.quick else (20, 50, 100, 200)
    messages = _scale(args, 100, 400, 2000)
    return fig04_feasibility.run(
        profile_sizes=sizes, message_windows=messages, seed=args.seed,
        **_campaign_kwargs(args),
    ).format()


def _run_fig6(args) -> str:
    nr, td = fig06_trace.run_pair(horizon_ms=_scale(args, 150, 300, 1200), seed=args.seed)
    return nr.format() + "\n\n" + td.format()


def _run_fig12(args) -> str:
    sizes = (10, 20, 50) if args.quick else (20, 50, 100, 200)
    messages = _scale(args, 100, 400, 2000)
    return fig12_accuracy.run(
        profile_sizes=sizes, message_windows=messages, seed=args.seed,
        schedulers=_scheduler_axis(args),
        **_campaign_kwargs(args),
    ).format()


def _run_fig13(args) -> str:
    return fig13_heatmap.run(
        n_windows=_scale(args, 80, 300, 500), seed=args.seed
    ).format()


def _run_fig14(args) -> str:
    return fig14_distributions.run(
        n_windows=_scale(args, 100, 400, 2000), seed=args.seed
    ).format()


def _run_fig15(args) -> str:
    return fig15_capacity.run(
        n_samples=_scale(args, 150, 500, 10_000), seed=args.seed
    ).format()


def _run_fig16(args) -> str:
    result = table2_wcrt.run(seconds=_scale(args, 10, 60, 600), seed=args.seed)
    return result.format_boxplots()


def _run_fig17(args) -> str:
    result = table4_latency.run(seconds=_scale(args, 3, 10, 60), seed=args.seed)
    return result.format_fig17()


def _run_fig18(args) -> str:
    return fig18_blinder.run(
        n_windows=_scale(args, 100, 300, 1000),
        profile_windows=_scale(args, 50, 200, 500),
        message_windows=_scale(args, 100, 300, 2000),
        seed=args.seed,
    ).format()


def _run_table2(args) -> str:
    return table2_wcrt.run(seconds=_scale(args, 10, 60, 600), seed=args.seed).format()


def _run_table3(args) -> str:
    return table3_car.run(
        profile_windows=_scale(args, 60, 150, 500),
        message_windows=_scale(args, 100, 300, 2000),
        responsiveness_seconds=_scale(args, 10, 30, 300),
        seed=args.seed,
    ).format()


def _run_table4(args) -> str:
    result = table4_latency.run(seconds=_scale(args, 3, 10, 60), seed=args.seed)
    return result.format_table4()


def _run_table5(args) -> str:
    result = table4_latency.run(seconds=_scale(args, 3, 10, 60), seed=args.seed)
    return result.format_table5()


def _run_car(args) -> str:
    return _run_table3(args)


def _run_overhead(args) -> str:
    return table4_latency.run(seconds=_scale(args, 3, 10, 60), seed=args.seed).format()


def _run_defense_matrix(args) -> str:
    return defense_matrix.run(
        profile_windows=_scale(args, 40, 100, 300),
        message_windows=_scale(args, 80, 200, 1000),
        order_windows=_scale(args, 80, 200, 1000),
        seed=args.seed,
        schedulers=_scheduler_axis(args),
        **_campaign_kwargs(args),
    ).format()


def _run_robustness(args) -> str:
    from repro.faults.spec import FAULT_KINDS

    if args.quick:
        kinds = ("overrun", "crash")
        intensities = (0.8,)
        policies = ("norandom", "timedice")
    elif args.full:
        kinds = FAULT_KINDS
        intensities = (0.2, 0.4, 0.6, 0.8, 1.0)
        policies = robustness_sweep.DEFAULT_POLICIES
    else:
        kinds = FAULT_KINDS
        intensities = robustness_sweep.DEFAULT_INTENSITIES
        policies = robustness_sweep.DEFAULT_POLICIES
    result = robustness_sweep.run(
        kinds=kinds,
        intensities=intensities,
        policies=policies,
        profile_windows=_scale(args, 20, 40, 100),
        message_windows=_scale(args, 40, 80, 300),
        seed=args.seed,
        **_campaign_kwargs(args),
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result.summary(), handle, indent=2, sort_keys=True)
    return result.format()


def _run_load_sweep(args) -> str:
    return load_sweep.run(
        profile_windows=_scale(args, 40, 100, 300),
        message_windows=_scale(args, 80, 250, 1000),
        seed=args.seed,
        **_campaign_kwargs(args),
    ).format()


def _run_classifiers(args) -> str:
    return classifier_comparison.run(
        profile_windows=_scale(args, 40, 100, 300),
        message_windows=_scale(args, 80, 200, 1000),
        seed=args.seed,
    ).format()


def _run_coding(args) -> str:
    return coding_study.run(
        payload_bits=_scale(args, 24, 48, 200),
        profile_windows=_scale(args, 60, 100, 300),
        seed=args.seed,
    ).format()


def _run_figures(args) -> str:
    """Export SVG renderings of the main figures into --out (default ./figures)."""
    from pathlib import Path

    from repro._time import ms as _ms
    from repro.experiments.render import gantt_svg, heatmap_svg, histogram_svg, series_svg
    from repro.sim.config import RunSpec, SystemSpec
    from repro.sim.engine import Simulator
    from repro.sim.trace import SegmentRecorder

    out = Path(args.out or "figures")
    out.mkdir(parents=True, exist_ok=True)
    written = []

    # Fig. 6: schedule traces.
    horizon = _ms(_scale(args, 150, 300, 600))
    for policy in ("norandom", "timedice"):
        spec = RunSpec(
            system=SystemSpec.named("three_partition"),
            policy=policy,
            seed=args.seed,
            horizon=horizon,
        )
        system = spec.build_system()
        recorder = SegmentRecorder()
        Simulator.from_spec(spec, observers=[recorder]).run_until(spec.horizon)
        target = out / f"fig6_{policy}.svg"
        gantt_svg(
            recorder.segments, [p.name for p in system], horizon,
            title=f"Fig. 6 — {policy}", path=target,
        )
        written.append(target)

    # Fig. 4(a)/(b) and Fig. 13 content from one NoRandom + one TimeDice run.
    messages = _scale(args, 100, 300, 600)
    experiment = fig04_feasibility.run(
        profile_sizes=(20,), message_windows=messages, seed=args.seed
    )
    dataset = experiment.dataset
    r_ms = dataset.response_times / 1000.0
    target = out / "fig4a_distributions.svg"
    histogram_svg(
        {
            "Pr(R|X=0)": r_ms[dataset.labels == 0],
            "Pr(R|X=1)": r_ms[dataset.labels == 1],
        },
        title="Fig. 4(a) — NoRandom response times",
        path=target,
    )
    written.append(target)
    target = out / "fig4b_heatmap.svg"
    heatmap_svg(
        dataset.vectors[:80], title="Fig. 4(b) — execution vectors (NoRandom)",
        path=target,
    )
    written.append(target)

    td = fig13_heatmap.run(n_windows=_scale(args, 60, 150, 300), seed=args.seed)
    target = out / "fig13_heatmap_timedice.svg"
    heatmap_svg(
        td.datasets["timedice"].vectors[:80],
        title="Fig. 13 — execution vectors (TimeDiceW)",
        path=target,
    )
    written.append(target)

    # Fig. 12: accuracy curves.
    sizes = (10, 20, 50) if args.quick else (20, 50, 100, 200)
    sweep = fig12_accuracy.run(
        profile_sizes=sizes, message_windows=messages, seed=args.seed
    )
    curves = {}
    for policy in sweep.policies:
        curves[policy] = [
            (m, sweep.results[("light", policy, "execution-vector", m)])
            for m in sweep.profile_sizes
            if ("light", policy, "execution-vector", m) in sweep.results
        ]
    target = out / "fig12_accuracy_light.svg"
    series_svg(
        curves, title="Fig. 12 — EV-attack accuracy, light load", path=target
    )
    written.append(target)

    return "\n".join(f"wrote {target}" for target in written)


def _run_stats(args) -> str:
    """``stats [policy]`` — run one short simulation with observability on
    and pretty-print its metrics snapshot (engine counters, decide-latency
    histogram, candidacy counters, span aggregates)."""
    from repro._time import MS
    from repro.sim.config import RunSpec, SystemSpec
    from repro.sim.engine import Simulator
    from repro.sim.registry import find_global_policy, global_policy_names

    policy = args.target or "timedice"
    # Registry, not the builtin POLICY_NAMES tuple: third-party policies
    # registered before main() runs are first-class stats targets.
    if find_global_policy(policy) is None:
        raise SystemExit(
            f"unknown policy {policy!r} for stats; choose from "
            f"{', '.join(sorted(global_policy_names()))}"
        )
    scheduler = _validate_scheduler(args.scheduler) if args.scheduler else "fp"
    was_enabled = obs.is_enabled()
    if not was_enabled:
        obs.enable()
    try:
        spec = RunSpec(
            system=SystemSpec.named("three_partition"),
            policy=policy,
            seed=args.seed,
            horizon=_scale(args, 150, 300, 1200) * MS,
            scheduler=scheduler,
        )
        sim = Simulator.from_spec(spec)
        result = sim.run_until(spec.horizon)
    finally:
        if not was_enabled:
            obs.disable()
    suffix = "" if scheduler == "fp" else f", scheduler={scheduler}"
    title = (
        f"stats — {policy}{suffix}, seed={args.seed}, "
        f"{result.end_time // MS} ms simulated"
    )
    body = obs.format_metrics(result.metrics, sim.obs.spans.summary(), title=title)
    rates = result.rates()
    return body + (
        f"\n  run:\n    decisions = {result.decisions}"
        f"\n    switches = {result.switches}"
        f"\n    decisions_per_sec = {rates['decisions_per_sec']:.1f}"
        f"\n    deadline_misses = {result.deadline_misses}"
    )


def _watch_loop(render: Callable[[], str], interval: float) -> str:
    """Re-render a frame in place until interrupted (``top``, ``--watch``)."""
    try:
        while True:
            sys.stdout.write("\x1b[H\x1b[2J" + render() + "\n")
            sys.stdout.flush()
            time.sleep(max(0.1, interval))
    except KeyboardInterrupt:
        return "(watch stopped)"


def _run_top(args) -> str:
    """``repro top`` — the live fleet console: folds the service root, an
    event log (``--events-out``), and a metrics directory (``--metrics-dir``)
    into one text dashboard (:mod:`repro.obs.console`). ``--once`` renders a
    single frame and exits (scriptable / CI-friendly); otherwise the frame
    re-renders every ``--interval`` seconds until interrupted."""
    from repro.obs.console import gather_fleet_state, render_top
    from repro.service import DEFAULT_SERVICE_ROOT

    root = args.service_root or DEFAULT_SERVICE_ROOT

    def frame() -> str:
        return render_top(
            gather_fleet_state(
                service_root=root,
                events_path=args.events_out,
                metrics_dir=args.metrics_dir,
            )
        )

    if args.once:
        return frame()
    return _watch_loop(frame, args.interval)


def _run_service(args) -> str:
    """``repro service submit <target> | status | drain`` — the shared
    campaign queue (see docs/SERVICE.md)."""
    from repro.service import DEFAULT_SERVICE_ROOT, Dispatcher

    verb = args.target
    if verb not in ("submit", "status", "drain"):
        raise SystemExit("service requires a verb: submit, status, or drain")
    dispatcher = Dispatcher(
        args.service_root or DEFAULT_SERVICE_ROOT,
        jobs=args.jobs,
        store=getattr(args, "store", None),
    )
    if verb == "submit":
        if not args.rest:
            raise SystemExit(
                "service submit requires a campaign target: "
                f"one of {', '.join(sorted(CAMPAIGN_TARGETS))}"
            )
        scale = "quick" if args.quick else ("full" if args.full else "default")
        try:
            ticket = dispatcher.submit(
                args.rest[0],
                scale=scale,
                seed=args.seed,
                store=getattr(args, "store", None),
                faults=args.faults,
                no_cache=args.no_cache,
            )
        except ValueError as exc:
            raise SystemExit(f"service submit: {exc}")
        return (
            f"submitted ticket {ticket.number:08d}: campaign {args.rest[0]} "
            f"(scale={scale}, seed={args.seed}) -> {dispatcher.root}"
        )
    if verb == "status":

        def render() -> str:
            report = dispatcher.status()
            lines = [f"service root: {report['root']}"]
            for state in ("pending", "active", "done"):
                items = report[state]
                lines.append(f"{state}: {len(items)}")
                for item in items:
                    detail = (
                        f"  #{item['ticket']:08d} {item['target']} "
                        f"(scale={item['scale']}, seed={item['seed']})"
                    )
                    progress = item.get("progress")
                    if progress:
                        detail += (
                            f" — {progress['done']}/{progress['total']} cells"
                            f", {progress['pending_cells']} pending"
                        )
                        if progress.get("eta_s") is not None:
                            detail += f", eta {progress['eta_s']:.1f}s"
                    if state == "done":
                        flag = "ok" if item.get("ok") else "FAILED"
                        detail += f" — {flag}"
                        if item.get("elapsed_s") is not None:
                            detail += f" in {item['elapsed_s']:.1f}s"
                    lines.append(detail)
            return "\n".join(lines)

        if args.watch:
            return _watch_loop(render, args.interval)
        return render()
    # drain
    recovered = dispatcher.recover()
    report = dispatcher.drain()
    lines = []
    if recovered:
        lines.append(f"recovered {recovered} stranded ticket(s) from active/")
    if not report.executed:
        lines.append("queue empty: nothing to drain")
    for item in report.executed:
        flag = "ok" if item["ok"] else f"FAILED ({item.get('error')})"
        lines.append(
            f"#{item['ticket']:08d} {item['target']}: {flag} in {item['elapsed_s']:.1f}s"
        )
    return "\n".join(lines)


def _run_cluster(args) -> str:
    """``repro cluster serve | worker HOST:PORT`` — multi-host campaign
    execution (see docs/SERVICE.md, "Cluster").

    ``serve`` drains the service queue exactly like ``service drain`` —
    same journal, same store, same status files — but with a
    :class:`~repro.cluster.ClusterCoordinator` installed as the execution
    engine, so campaign cells are leased to connected worker agents
    instead of running on this machine's pool. ``worker`` connects one
    agent to a coordinator and executes leases until the coordinator goes
    away (bounded reconnect backoff) or the process is stopped.
    """
    from repro.cluster import ClusterCoordinator, WorkerAgent, parse_address

    verb = args.target
    if verb not in ("serve", "worker"):
        raise SystemExit("cluster requires a verb: serve or worker")
    if verb == "worker":
        if not args.rest:
            raise SystemExit(
                "cluster worker requires the coordinator address, "
                "e.g.: repro cluster worker head-node:7341 --jobs 4"
            )
        try:
            address = parse_address(args.rest[0])
        except ValueError as exc:
            raise SystemExit(f"cluster worker: {exc}")
        agent = WorkerAgent(
            address,
            jobs=args.jobs,
            name=args.worker_name,
            lease_cells=args.lease_cells,
            reconnect_s=args.reconnect_s,
        )
        print(f"worker {agent.name} -> {address[0]}:{address[1]}", file=sys.stderr)
        stats = agent.run()
        return (
            f"worker {agent.name}: {stats['leases']} lease(s), "
            f"{stats['completed']} cell(s) completed, {stats['failed']} failed, "
            f"{stats['reconnects']} reconnect(s)"
        )
    # serve
    from repro.service import DEFAULT_SERVICE_ROOT, Dispatcher
    from repro.store import open_store

    url = _store_url(args)
    coordinator = ClusterCoordinator(
        host=args.host,
        port=args.port,
        lease_s=args.lease_s,
        lease_cells=args.lease_cells,
        store=open_store(url) if url else None,
    )
    coordinator.start()
    host, port = coordinator.address
    print(f"cluster coordinator listening on {host}:{port}", file=sys.stderr)
    dispatcher = Dispatcher(
        args.service_root or DEFAULT_SERVICE_ROOT,
        jobs=args.jobs,
        store=getattr(args, "store", None),
        cluster=coordinator,
    )
    try:
        recovered = dispatcher.recover()
        report = dispatcher.drain()
    finally:
        coordinator.stop()
    lines = [f"coordinator {host}:{port}: drained {len(report.executed)} ticket(s)"]
    if recovered:
        lines.append(f"recovered {recovered} stranded ticket(s) from active/")
    for item in report.executed:
        flag = "ok" if item["ok"] else f"FAILED ({item.get('error')})"
        lines.append(
            f"#{item['ticket']:08d} {item['target']}: {flag} in {item['elapsed_s']:.1f}s"
        )
    for name, stats in sorted(coordinator.worker_stats().items()):
        lines.append(
            f"worker {name}: jobs={stats['jobs']} leased={stats['leased']} "
            f"completed={stats['completed']} failed={stats['failed']} "
            f"stolen={stats['stolen']}"
        )
    return "\n".join(lines)


def _run_cache(args) -> str:
    """``repro cache ls | gc | migrate <src> <dst>`` — result-store
    maintenance over any backend URL."""
    from repro.store import migrate, open_store

    verb = args.target
    if verb not in ("ls", "gc", "migrate"):
        raise SystemExit("cache requires a verb: ls, gc, or migrate")
    if verb == "migrate":
        if len(args.rest) != 2:
            raise SystemExit(
                "cache migrate requires source and destination store URLs, "
                "e.g.: repro cache migrate json:.repro_cache sqlite:results.db"
            )
        src = open_store(args.rest[0])
        dst = open_store(args.rest[1])
        copied = migrate(src, dst)
        return f"migrated {copied} entr{'y' if copied == 1 else 'ies'}: {src.url} -> {dst.url}"
    store = open_store(_store_url(args) or ".repro_cache")
    if verb == "gc":
        description = store.describe()
        removed = store.gc()
        return (
            f"{store.url}: removed {removed} entr{'y' if removed == 1 else 'ies'} "
            f"with salts other than {description['current_salt']!r} "
            f"({description['entries'] - removed} kept)"
        )
    # ls
    description = store.describe()
    lines = [
        f"{description['url']}: {description['entries']} entr"
        f"{'y' if description['entries'] == 1 else 'ies'}"
    ]
    for salt, count in description["salts"].items():
        marker = " (current)" if salt == description["current_salt"] else ""
        lines.append(f"  salt {salt!r}: {count}{marker}")
    shown = 0
    for entry in store.entries():
        if shown >= 10:
            lines.append(f"  ... and {description['entries'] - shown} more")
            break
        meta = entry.meta
        label = meta.get("campaign", "?")
        key = meta.get("key", "?")
        lines.append(f"  {entry.content_hash[:12]}  {label} / {key}")
        shown += 1
    return "\n".join(lines)


COMMANDS: Dict[str, Callable] = {
    "fig4": _run_fig4,
    "fig4a": lambda args: fig04_feasibility.run(
        profile_sizes=(20, 50), message_windows=_scale(args, 100, 400, 2000), seed=args.seed
    ).format_distributions(),
    "fig4b": lambda args: fig04_feasibility.run(
        profile_sizes=(20, 50), message_windows=_scale(args, 100, 400, 2000), seed=args.seed
    ).format_heatmap(),
    "fig4c": lambda args: fig12_accuracy.accuracy_sweep(
        policies=("norandom",),
        profile_sizes=(10, 20, 50) if args.quick else (20, 50, 100, 200),
        message_windows=_scale(args, 100, 400, 2000),
        seed=args.seed,
        **_campaign_kwargs(args),
    ).format(),
    "fig6": _run_fig6,
    "fig12": _run_fig12,
    "fig13": _run_fig13,
    "fig14": _run_fig14,
    "fig15": _run_fig15,
    "fig16": _run_fig16,
    "fig17": _run_fig17,
    "fig18": _run_fig18,
    "table2": _run_table2,
    "table3": _run_table3,
    "table4": _run_table4,
    "table5": _run_table5,
    "car": _run_car,
    "overhead": _run_overhead,
    "defense-matrix": _run_defense_matrix,
    "load-sweep": _run_load_sweep,
    "robustness-sweep": _run_robustness,
    "classifiers": _run_classifiers,
    "coding": _run_coding,
    "figures": _run_figures,
    "stats": _run_stats,
    "top": _run_top,
    "campaign": None,  # dispatches through CAMPAIGN_TARGETS (see _run_campaign)
    "service": _run_service,
    "cluster": _run_cluster,
    "cache": _run_cache,
}

#: Subcommands expressible as ``python -m repro campaign <target>``.
CAMPAIGN_TARGETS: Dict[str, Callable] = {
    "fig4": _run_fig4,
    "fig12": _run_fig12,
    "defense-matrix": _run_defense_matrix,
    "load-sweep": _run_load_sweep,
    "robustness-sweep": _run_robustness,
    "robustness_sweep": _run_robustness,  # alias: both spellings circulate
}


def _run_campaign(args) -> str:
    """``python -m repro campaign <target> [--jobs N] [--no-cache]``."""
    if not args.target:
        raise SystemExit(
            f"campaign requires a target: one of {', '.join(sorted(CAMPAIGN_TARGETS))}"
        )
    if args.target not in CAMPAIGN_TARGETS:
        raise SystemExit(
            f"unknown campaign target {args.target!r}; "
            f"choose from {', '.join(sorted(CAMPAIGN_TARGETS))}"
        )
    return CAMPAIGN_TARGETS[args.target](args)


COMMANDS["campaign"] = _run_campaign


def _campaign_targets_epilog() -> str:
    """The help epilog, rendered from :data:`CAMPAIGN_TARGETS` so new
    targets can never drift out of ``--help`` (test-enforced). The
    parenthesized tail documents the service/cache verbs and store URL
    schemes; it must start with a non-word character so the epilog test's
    target-list regex stops before it."""
    return (
        "campaign targets: "
        + ", ".join(sorted(CAMPAIGN_TARGETS))
        + " (store URLs: json:DIR, sqlite:FILE, remote:HOST:PORT; service "
        "verbs: submit, status, drain; cluster verbs: serve, worker; "
        "cache verbs: ls, gc, migrate)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timedice",
        description="Regenerate the TimeDice paper's tables and figures.",
        epilog=_campaign_targets_epilog(),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS),
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="campaign target (campaign command; see epilog), policy name "
        "(stats command), or verb (service: submit/status/drain; "
        "cache: ls/gc/migrate)",
    )
    parser.add_argument(
        "rest",
        nargs="*",
        default=[],
        help="verb operands: the campaign target for 'service submit', "
        "source and destination store URLs for 'cache migrate'",
    )
    parser.add_argument("--seed", type=int, default=3, help="simulation seed")
    parser.add_argument(
        "--scheduler",
        default=None,
        metavar="NAME",
        help="registered partition-local scheduler (fp, edf, reorder, "
        "blinder, ...): 'stats' runs under it; 'defense-matrix' and "
        "'fig12' add it as comparison rows beside the default fp axis "
        "(see docs/SCHEDULERS.md)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output directory (figures) or summary JSON file (robustness-sweep)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="run every simulation under this ambient fault plan: "
        "'kind:partition[:rate=..,mag=..,len=..];...' or '@plan.json' "
        "(kinds: overrun, jitter, stall, burst, crash; see docs/FAULTS.md)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel worker processes for campaign-backed subcommands",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk campaign result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="campaign result cache directory (default .repro_cache); "
        "superseded by --store",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="URL",
        help="campaign result store URL: json:DIR (one file per entry), "
        "sqlite:FILE (WAL database, safe for concurrent writers), or a "
        "bare path (JSON). Default json:.repro_cache",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="journal campaign progress (crash-safe, append-only) and "
        "resume an interrupted run: cells completed by a killed earlier "
        "run replay from the store and count as 'resumed'",
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help=f"campaign journal directory for --resume (default {DEFAULT_JOURNAL_DIR})",
    )
    parser.add_argument(
        "--service-root",
        default=None,
        metavar="DIR",
        help="service queue root for the service verbs (default .repro_service)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for 'cluster serve' (use 0.0.0.0 to serve a "
        "real fleet; default loopback)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=7341,
        help="TCP port for 'cluster serve' (0 picks an ephemeral port; "
        "default 7341)",
    )
    parser.add_argument(
        "--lease-s",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="cluster lease lifetime without a heartbeat before cells are "
        "stolen back and re-leased (default 10.0)",
    )
    parser.add_argument(
        "--lease-cells",
        type=int,
        default=0,
        metavar="N",
        help="cells per cluster lease (serve: cap per request; worker: "
        "request size). 0 = jobs*4 per worker",
    )
    parser.add_argument(
        "--worker-name",
        default=None,
        metavar="NAME",
        help="stable identity for 'cluster worker' (default host-pid)",
    )
    parser.add_argument(
        "--reconnect-s",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="cumulative offline budget a cluster worker spends retrying a "
        "dead coordinator (exponential backoff) before exiting "
        "(default 60.0)",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        help="write campaign telemetry snapshots to this JSON file",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="enable repro.obs and write a Chrome/Perfetto trace_event JSON "
        "of every simulation the subcommand runs (schedule lanes + "
        "scheduler-internal spans)",
    )
    parser.add_argument(
        "--events-out",
        default=None,
        metavar="FILE",
        help="append a structured JSON-lines event log of everything this "
        "command does (cells, batch groups, store traffic, service "
        "tickets); for 'top' this is the log to read, not write",
    )
    parser.add_argument(
        "--metrics-dir",
        default=None,
        metavar="DIR",
        help="periodically export per-process metrics snapshots "
        "(metrics-<pid>.prom Prometheus text + metrics-<pid>.json) into "
        "DIR; for 'top' this is the directory to read, not write",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="with 'service status': re-render the report in place until "
        "interrupted ('top' watches by default; see --once)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="with 'top': render a single frame and exit",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period for 'top' and --watch (default 2.0)",
    )
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true", help="small smoke-test sizes")
    scale.add_argument(
        "--full", action="store_true", help="paper-scale sample counts (slow)"
    )
    scale.add_argument(
        "--scale",
        choices=("quick", "default", "full"),
        default=None,
        help="explicit spelling of --quick/--full (--scale quick == --quick)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.scale:
        args.quick = args.scale == "quick"
        args.full = args.scale == "full"
    started = time.time()
    drain_session()  # footer covers only this invocation's campaigns
    progress = ProgressPrinter(sys.stderr)
    add_default_listener(progress)
    obs_was_enabled = obs.is_enabled()
    captured = None
    plan = None
    if args.faults:
        import repro.faults as faults_mod

        try:
            plan = faults_mod.FaultPlan.parse(args.faults)
        except (ValueError, OSError) as exc:
            raise SystemExit(f"--faults: {exc}")
        faults_mod.activate_plan(plan)
    if args.trace_out:
        obs.enable()
        obs.start_trace_capture()
    # ``top`` *reads* the fleet artifacts these flags name; every other
    # subcommand *writes* them.
    fleet_sinks = args.experiment != "top"
    if fleet_sinks and args.events_out:
        obs.enable_event_log(args.events_out)
    if fleet_sinks and args.metrics_dir:
        obs.start_metrics_exporter(args.metrics_dir)
    try:
        output = COMMANDS[args.experiment](args)
    finally:
        if plan is not None:
            import repro.faults as faults_mod

            faults_mod.deactivate_plan()
        if args.trace_out:
            captured = obs.stop_trace_capture()
            if not obs_was_enabled:
                obs.disable()
        if fleet_sinks and args.metrics_dir:
            obs.stop_metrics_exporter()  # final unconditional snapshot
        if fleet_sinks and args.events_out:
            obs.disable_event_log()
        remove_default_listener(progress)
        progress.close()
    print(output)
    if args.trace_out:
        events = obs.write_trace(args.trace_out, captured)
        print(
            f"[trace: {len(captured)} run(s), {events} events -> {args.trace_out}]"
        )
    if fleet_sinks and args.events_out:
        print(f"[events -> {args.events_out}]")
    if fleet_sinks and args.metrics_dir:
        print(f"[metrics -> {args.metrics_dir}]")
    stats = drain_session()
    name = args.experiment if args.experiment != "campaign" else f"campaign {args.target}"
    footer = f"[{name} completed in {time.time() - started:.1f}s"
    if stats:
        footer += f" | {session_footer(stats)}"
    footer += "]"
    print("\n" + footer)
    if args.telemetry_out:
        with open(args.telemetry_out, "w", encoding="utf-8") as handle:
            json.dump([t.snapshot() for t in stats], handle, indent=2, sort_keys=True)
    if args.experiment == "campaign" and stats:
        for t in stats:
            print(f"  {t.progress_line()} [{t.elapsed:.1f}s, jobs={t.jobs}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
