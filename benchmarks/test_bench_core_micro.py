"""Micro-benchmarks of the TimeDice building blocks.

Unlike the end-to-end experiment benches, these are genuine hot-loop
timings: the busy-interval fixed point, the candidacy sweep, and the
selector draw — the three pieces that add up to a Table IV decision. They
pin the per-piece cost so a regression in any one shows up directly.
"""

import itertools
import random

import pytest

from repro.core.busy_interval import busy_interval, schedulability_test
from repro.core.candidacy import candidate_search
from repro.core.selection import WeightedUtilizationSelector
from repro.core.timedice import TimeDice
from repro.model.configs import scaled_partition_count
from repro.sim.engine import Simulator
from repro._time import ms


def _states(factor: int, n_states: int = 100, seed: int = 1):
    system = scaled_partition_count(factor)
    sim = Simulator(system, policy="timedice", seed=seed)
    states = []
    t = 0
    while len(states) < n_states:
        t += 2_000
        sim.run_until(t)
        states.append(sim.snapshot())
    return states


@pytest.fixture(scope="module")
def snapshots():
    return _states(1)


@pytest.fixture(scope="module")
def snapshots20():
    # |Pi| = 20: the top of the Table IV scaling sweep, where the
    # busy-interval fixed points dominate a decision.
    return _states(4)


def test_busy_interval_fixed_point(benchmark, snapshots):
    cycler = itertools.cycle(snapshots)

    def one():
        state = next(cycler)
        h = state.partitions[-1]
        return busy_interval(h, state.partitions[:-1], state.t, ms(1))

    benchmark(one)


def test_schedulability_test(benchmark, snapshots):
    cycler = itertools.cycle(snapshots)

    def one():
        state = next(cycler)
        h = state.partitions[2]
        return schedulability_test(h, state.partitions[:2], state.t, ms(1))

    benchmark(one)


def test_candidate_search_5_partitions(benchmark, snapshots):
    cycler = itertools.cycle(snapshots)
    benchmark(lambda: candidate_search(next(cycler), ms(1)))


def test_weighted_selection(benchmark, snapshots):
    selector = WeightedUtilizationSelector()
    rng = random.Random(1)
    candidate_lists = [
        candidate_search(state, ms(1))[0] for state in snapshots
    ]
    candidate_lists = [c for c in candidate_lists if c]
    cycler = itertools.cycle(candidate_lists)

    def one():
        candidates = next(cycler)
        return selector.select(candidates, 0, rng)

    benchmark(one)


def _decide_bench(benchmark, states):
    scheduler = TimeDice(seed=1)
    cycler = itertools.cycle(states)
    benchmark(lambda: scheduler.decide(next(cycler)))


def test_timedice_decide(benchmark, snapshots):
    _decide_bench(benchmark, snapshots)


def test_timedice_decide_20_partitions(benchmark, snapshots20):
    _decide_bench(benchmark, snapshots20)


def test_snapshot_construction(benchmark):
    system = scaled_partition_count(1)
    sim = Simulator(system, policy="norandom", seed=1)
    sim.run_for_ms(50)
    benchmark(sim.snapshot)
