"""The one schedule-replay driver (`verif/explore.interleave`) and its
three users, pinned below the analyzer's aggregate counters."""

import hashlib

import pytest

from repro.analysis.race import replay
from repro.analysis.sched_race import replay_sched
from repro.apps.kvstore import workload_scripts
from repro.nr.core import NodeReplicated
from repro.nr.datastructures import KvStore
from repro.nr.interleave import run_interleaved
from repro.verif.explore import SchedulingError, interleave

#: Recorded on the parent of the PR that introduced `interleave`, when
#: the loop still existed three times: seed -> (BLAKE2b of the NR
#: history's invocation list, race replay (steps, accesses, races),
#: sched replay (steps, accesses)).
PINNED = {
    0: ("257565388ce881ec7851fc7093f1e6bd", (266, 89, 0), (227, 156)),
    1: ("6cf37c784b3bc4b6e125f66c5eef53e7", (253, 87, 0), (210, 156)),
    2: ("f6825f6c17f6d346ef4e779fc09c6551", (260, 83, 0), (212, 156)),
    3: ("d61e091c396c1751520b4ea3177432d2", (255, 90, 0), (223, 156)),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_schedules_are_byte_identical_to_the_three_loops(seed):
    history = run_interleaved(NodeReplicated(KvStore, num_nodes=2),
                              workload_scripts(), seed)
    digest = hashlib.blake2b(repr(history.invocations).encode(),
                             digest_size=16).hexdigest()
    race = replay(workload_scripts(), seed)
    sched = replay_sched(seed)
    assert (digest, (race.seq, race.accesses, len(race.races)),
            (sched.seq, sched.accesses)) == PINNED[seed]


def _countdown(picks):
    """Runners are [name, steps left]; `step` logs the pick."""

    def step(runner):
        picks.append(runner[0])
        runner[1] -= 1
        return runner[1] > 0

    return step


def test_finished_runner_is_never_picked_again():
    picks = []
    interleave([["a", 1], ["b", 5], ["c", 2]], seed=7,
               step=_countdown(picks), max_steps=100)
    assert sorted(picks) == ["a"] + ["b"] * 5 + ["c"] * 2
    # a pick that finishes a runner is consumed like any other
    assert len(picks) == 8


def test_same_seed_same_pick_sequence():
    runs = []
    for seed in (3, 3, 4):
        picks = []
        interleave([["a", 6], ["b", 6], ["c", 6]], seed=seed,
                   step=_countdown(picks), max_steps=100)
        runs.append(picks)
    assert runs[0] == runs[1] != runs[2]


def test_budget_exhaustion_raises_scheduling_error():
    with pytest.raises(SchedulingError):
        interleave([["spin", 10**9]], seed=0, step=_countdown([]),
                   max_steps=50)
    with pytest.raises(SchedulingError):
        run_interleaved(NodeReplicated(KvStore, num_nodes=2),
                        workload_scripts(), seed=0, max_steps=10)
    with pytest.raises(SchedulingError):
        replay_sched(0, max_steps=10)
