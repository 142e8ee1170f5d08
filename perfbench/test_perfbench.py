"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q

The schedule tests pin the seed contract: the workload inputs are a pure
function of the seed.  The smoke test runs every workload for a couple
of seconds against a real loopback deployment (about half a minute).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workload  # noqa: E402


def test_same_seed_gives_byte_identical_schedule():
    a = workload.schedule_bytes(workload.mixed_schedule(7, 10.0))
    b = workload.schedule_bytes(workload.mixed_schedule(7, 10.0))
    assert a == b


def test_different_seeds_give_different_schedules():
    a = workload.schedule_bytes(workload.mixed_schedule(7, 10.0))
    b = workload.schedule_bytes(workload.mixed_schedule(8, 10.0))
    assert a != b


def test_roster_and_nonces_follow_the_seed():
    assert workload.roster(3) == workload.roster(3)
    assert workload.roster(3) != workload.roster(4)
    names = [name for name, _ in workload.roster(3)]
    assert len(set(names)) == workload.N_STUDENTS
    assert workload.nonce(3, "seed", 0) != workload.nonce(4, "seed", 0)


def test_schedule_is_open_loop_at_the_stated_rate_and_mix():
    sched = workload.mixed_schedule(11, 20.0)
    dues = [item[0] for item in sched]
    assert dues == sorted(dues) and dues[-1] < 20.0
    rate = len(sched) / 20.0
    assert abs(rate - workload.MIXED_RATE_PER_S) < 0.1 * workload.MIXED_RATE_PER_S
    submits = sum(1 for item in sched if item[2] == "submit")
    assert submits == len(sched) // workload.MIXED_SUBMIT_EVERY
    assert {item[2] for item in sched} == {"submit", *workload.READ_KINDS}


def test_shell_program_prints_what_the_check_expects():
    token = workload.nonce(1, "mixed", 0)
    out = subprocess.run(workload.shell_argv(token, 3), capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines() == workload.shell_output(token, 3)


def test_slices_average_the_kinds_and_pair_with_their_reference():
    import run

    tally = run.Tally()
    # slice 0: reads of 1 and 3 ms, a submit of 6 ms; slice 1: one 2 ms
    # read; the last sample falls after the window and is left out
    for start, kind, latency in [(0.1, "status", 1e-3), (0.2, "status", 3e-3),
                                 (0.3, "submit", 6e-3), (1.5, "jobs", 2e-3),
                                 (2.5, "jobs", 9e-3)]:
        tally.samples.append((start, kind, latency))
        tally.refs.append((start, 0.5e-3 if start < 1 else 1e-3))
    slices = run.slice_p50s(tally, 0.0, 2.0)
    assert slices == pytest.approx([(4.0, 0.5), (2.0, 1.0)])


@pytest.mark.skipif(not (HERE.parent / "src" / "repro").is_dir(),
                    reason="needs the repro sources beside the benchmark")
def test_smoke_every_workload_runs_correct():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {name.split(".", 1)[0] for name in result["metrics"]} == {"poll", "submit", "mixed"}
