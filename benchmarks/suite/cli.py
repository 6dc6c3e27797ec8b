"""``python -m benchmarks.suite run | compare | pin | worker``.

``run`` measures one workload and prints every metric with its unit; its
last output line is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``). ``compare`` judges two sets of runs. ``pin`` records result
digests for the correctness gate. ``worker`` is the traced cluster worker
that traced ``grid-cluster`` runs start.
"""

from __future__ import annotations

import argparse
import json
import signal
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.suite import ROOT, SRC, STARTED


def _run(args: argparse.Namespace) -> int:
    import repro

    from benchmarks.suite import measure

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"repro resolved to {repro.__file__}, not to the checkout's {SRC}")
    import_s = time.perf_counter() - STARTED
    if args.workload not in measure.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(measure.WORKLOADS)}")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(measure.BENCHMARK.read_text())["run_seconds"]
    trace = args.trace != "0"
    doc = measure.run(
        args.workload,
        args.seed,
        seconds,
        trace=trace,
        trace_dir=None if args.trace in ("0", "1") else Path(args.trace),
        import_s=import_s,
    )
    for line in report(doc):
        print(line)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, sort_keys=True) + "\n")
    print(json.dumps(measure.result_line(doc)))
    return 0 if doc["correct"] else 1


def report(doc: Dict[str, Any]) -> List[str]:
    """Human-readable summary lines of one run document."""
    walls = [c["wall_s"] for c in doc["campaigns"]]
    lines = [
        f"{doc['workload']} seed={doc['seed']} trace={int(doc['trace'])}: "
        f"{len(walls)} campaigns, {doc['attempted']} cells attempted, {doc['failed']} failed; "
        f"set-up trials {', '.join(f'{t:.3f}' for t in doc['setup_trials_s'])} s"
    ]
    for errors in doc["errors"].values():
        lines.extend(f"  ERROR {error}" for error in errors)
    if doc["trace"]:
        acc = doc["accounting"]
        lines.append(
            f"  traced wall {acc['wall_s']:.3f} s = {acc['self_s']:.3f} s in main-thread spans"
            f" + {acc['unspanned_s']:.3f} s unspanned ({acc['accounted']:.4f} accounted)"
        )
        lines.append(f"  {'layer':<28} {'self s':>9} {'share':>7} {'calls':>8}")
        for name, row in sorted(doc["layers"].items(), key=lambda item: -item[1]["self_s"]):
            lines.append(
                f"  {name:<28} {row['self_s']:>9.3f} {row['share']:>7.1%} {row['calls']:>8}"
            )
        decide = doc["decide"]
        if decide["count"]:
            lines.append(
                f"  decide latency p50 {decide['p50_us']:.1f} us, p99 {decide['p99_us']:.1f} us "
                f"over {decide['count']} decisions"
            )
    else:
        lines.append(f"  campaign_s_p50 is the median of {len(walls)} campaigns")
    for name, value in doc["metrics"].items():
        lines.append(f"  {name:<34} {value:.6g}")
    return lines


def _compare(args: argparse.Namespace) -> int:
    from benchmarks.suite import compare

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, ok = compare.compare(compare.load(args.parent), compare.load(args.change), benchmark)
    print("\n".join(lines))
    return 0 if ok else 1


def _pin(args: argparse.Namespace) -> int:
    from benchmarks.suite import measure

    digests = measure.pin(args.workload, args.seed, args.campaigns)
    print(f"pinned {len(digests)} {args.workload} digests for seed {args.seed}")
    return 0


def _worker(args: argparse.Namespace) -> int:
    from repro.cluster import WorkerAgent, parse_address

    from benchmarks.suite.trace import Tracer, install

    tracer = Tracer(args.trace_dir)
    install(tracer)
    tracer.enabled = True
    agent = WorkerAgent(parse_address(args.address), jobs=1, name=args.name)
    signal.signal(signal.SIGTERM, lambda signum, frame: agent.stop())
    try:
        agent.run()
    finally:
        tracer.flush()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure one workload")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, help="timed phase length (default: run_seconds)")
    run.add_argument(
        "--trace",
        default="0",
        help="0: untraced; 1: traced; anything else: traced, keeping the spans in that directory",
    )
    run.add_argument("--out", type=Path, help="append the full run report to this JSON-lines file")
    run.set_defaults(handler=_run)

    cmp = commands.add_parser("compare", help="judge change runs against parent runs")
    cmp.add_argument("parent", type=Path, help="JSON-lines file or directory of them")
    cmp.add_argument("change", type=Path, help="JSON-lines file or directory of them")
    cmp.set_defaults(handler=_compare)

    pin = commands.add_parser("pin", help="record result digests of the first campaigns")
    pin.add_argument("--workload", required=True)
    pin.add_argument("--seed", type=int, required=True)
    pin.add_argument("--campaigns", type=int, required=True)
    pin.set_defaults(handler=_pin)

    worker = commands.add_parser("worker", help="a traced cluster worker (used by grid-cluster)")
    worker.add_argument("address")
    worker.add_argument("--name", required=True)
    worker.add_argument("--trace-dir", type=Path, required=True)
    worker.set_defaults(handler=_worker)

    args = parser.parse_args(argv)
    return args.handler(args)
