"""Crash-point battery for the durability layer (WAL + recovery).

The headline harness: for every instrumented crash point in the
distributor's journal path, run a workload, kill the process model at
that exact instruction (``SimulatedCrash`` unwinds like ``kill -9`` —
it is a ``BaseException``, so no error guard absorbs it), reboot from
the journal directory, and assert the durability contract:

* **no acknowledged job is lost** — every id ``submit`` returned exists
  after recovery and reaches a terminal state;
* **no attempt double-completes** — at most one ``completed`` lineage
  entry per job, even when the crash landed between the journal write
  and the in-memory callback;
* **attempt epochs stay monotone** across the crash/reboot boundary.

Alongside the battery: frame-codec and store-level units (torn tails,
overlap dedup after an interrupted compaction, mid-journal corruption),
recovery-reconciliation paths (resume on surviving nodes, retry-budget
exhaustion, unrecoverable callables), a crash *during recovery*, the
hypothesis prefix-replay property, and the injector/RPC/CLI surfaces.
"""

from __future__ import annotations

import io
import itertools
import json
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._errors import JobError, ResourceError
from repro.cluster import (
    CallableBackend,
    ClusterSpec,
    FaultInjector,
    Grid,
    JobDistributor,
    JobRequest,
    JobState,
    RetryPolicy,
    SimulatedBackend,
)
from repro.desim import Simulator
from repro.durability import (
    CRASH_POINTS,
    CrashPoints,
    DurabilityStore,
    JobJournal,
    JournalCorruption,
    SimulatedCrash,
    decode_frames,
    encode_frame,
    recover_distributor,
    replay,
)
from repro.durability.__main__ import main as journal_cli
from repro.durability.journal import FrameStats

settings.register_profile(
    "repro-durability",
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("repro-durability")

RETRY = RetryPolicy(
    max_attempts=4,
    backoff_base_s=0.01,
    jitter=0.0,
    retry_on=("failed", "timeout", "node_lost"),
)


def des_env(journal_dir, **dist_kwargs):
    """Fresh DES world journaling into ``journal_dir``."""
    sim = Simulator()
    grid = Grid(ClusterSpec.small(segments=1, slaves=3, cores=2))
    store = DurabilityStore(journal_dir, fsync="never")
    dist = JobDistributor(
        grid,
        SimulatedBackend(sim),
        now_fn=lambda: sim.now,
        journal=JobJournal(store, snapshot_every=dist_kwargs.pop("snapshot_every", 7)),
        retry=dist_kwargs.pop("retry", RETRY),
        **dist_kwargs,
    )
    return sim, grid, dist


def reboot(journal_dir, live_nodes=None, **dist_kwargs):
    """Boot a new world from the journal directory alone."""
    sim = Simulator()
    grid = Grid(ClusterSpec.small(segments=1, slaves=3, cores=2))
    store = DurabilityStore(journal_dir, fsync="never")
    dist, report = recover_distributor(
        store,
        grid,
        SimulatedBackend(sim),
        live_nodes=live_nodes,
        now_fn=lambda: sim.now,
        retry=dist_kwargs.pop("retry", RETRY),
        **dist_kwargs,
    )
    return sim, grid, dist, report


def drain(sim, dist, rounds=200):
    """Drive dispatch + DES until every job is terminal."""
    for _ in range(rounds):
        dist.dispatch()
        sim.run()
        if all(j.terminal for j in dist.jobs.values()):
            return
    raise AssertionError(
        f"jobs stuck: {[(j.id, j.state.value) for j in dist.jobs.values() if not j.terminal]}"
    )


def assert_durability_contract(dist, acked):
    """The battery's three invariants, post-recovery."""
    for job_id in acked:
        job = dist.jobs.get(job_id)
        assert job is not None, f"acknowledged job {job_id} lost in crash"
        assert job.terminal, (job_id, job.state)
        completed = [a for a in job.attempts if a.outcome == "completed"]
        assert len(completed) <= 1, f"{job_id} double-completed: {job.attempts}"
        if job.state is JobState.COMPLETED:
            assert len(completed) == 1
        nos = [a.no for a in job.attempts]
        assert nos == sorted(nos), f"{job_id} attempt epochs not monotone: {nos}"
        assert job.attempt_epoch >= (nos[-1] if nos else 0)


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------
class TestFrames:
    def test_roundtrip(self):
        recs = [{"kind": "submit", "lsn": i, "job": f"j{i}"} for i in range(1, 6)]
        blob = b"".join(encode_frame(r) for r in recs)
        assert list(decode_frames(io.BytesIO(blob))) == recs

    def test_torn_tail_is_dropped_not_raised(self):
        good = encode_frame({"lsn": 1, "kind": "submit"})
        torn = encode_frame({"lsn": 2, "kind": "seal"})[:-3]
        stats = FrameStats()
        out = list(decode_frames(io.BytesIO(good + torn), stats))
        assert [r["lsn"] for r in out] == [1]
        assert stats.torn and stats.tail_bytes == len(torn)

    def test_bit_flip_stops_decode(self):
        good = encode_frame({"lsn": 1, "kind": "submit"})
        bad = bytearray(encode_frame({"lsn": 2, "kind": "seal"}))
        bad[-1] ^= 0xFF  # payload corrupt -> crc mismatch
        stats = FrameStats()
        out = list(decode_frames(io.BytesIO(good + bytes(bad)), stats))
        assert [r["lsn"] for r in out] == [1]
        assert stats.torn

    def test_garbage_header_is_torn(self):
        stats = FrameStats()
        assert list(decode_frames(io.BytesIO(b"\xff" * 40), stats)) == []
        assert stats.torn

    def test_crc_is_real(self):
        frame = encode_frame({"lsn": 9, "kind": "seal"})
        length, crc = struct.unpack(">II", frame[:8])
        assert length == len(frame) - 8
        assert crc == zlib.crc32(frame[8:]) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# store: segments, snapshots, compaction, corruption
# ---------------------------------------------------------------------------
class TestStore:
    def test_append_assigns_monotone_lsns_and_recovers_in_order(self, tmp_path):
        store = DurabilityStore(tmp_path, fsync="never")
        lsns = [store.append({"kind": "submit", "job": f"j{i}"}) for i in range(10)]
        assert lsns == list(range(1, 11))
        store.close()
        state, records, info = DurabilityStore(tmp_path, fsync="never").recover()
        assert state is None
        assert [r["lsn"] for r in records] == lsns
        assert not info["torn_tail"]

    def test_snapshot_compacts_and_records_resume_above_lsn(self, tmp_path):
        store = DurabilityStore(tmp_path, fsync="never")
        for i in range(5):
            store.append({"kind": "submit", "job": f"j{i}"})
        out = store.snapshot({"jobs": [{"id": "j0"}]})
        assert out == {"lsn": 5, "segments_deleted": 1}
        store.append({"kind": "seal", "job": "j0"})
        store.close()
        state, records, info = DurabilityStore(tmp_path, fsync="never").recover()
        assert state == {"jobs": [{"id": "j0"}]}
        assert [r["lsn"] for r in records] == [6]
        assert info["snapshot_lsn"] == 5

    def test_interrupted_compaction_leaves_dedupable_overlap(self, tmp_path):
        crash = CrashPoints()
        store = DurabilityStore(tmp_path, fsync="never", crashpoints=crash)
        for i in range(4):
            store.append({"kind": "submit", "job": f"j{i}"})
        crash.arm("compaction.mid")
        with pytest.raises(SimulatedCrash):
            store.snapshot({"jobs": []})
        # snapshot is live, stale segment survived -> overlap on disk
        assert (tmp_path / "snapshot.json").exists()
        assert len(list(tmp_path.glob("wal-*.log"))) >= 1
        state, records, info = DurabilityStore(tmp_path, fsync="never").recover()
        assert state == {"jobs": []}
        assert records == []  # everything <= snapshot lsn deduped away
        assert info["snapshot_lsn"] == 4

    def test_crash_before_snapshot_rename_keeps_old_truth(self, tmp_path):
        crash = CrashPoints()
        store = DurabilityStore(tmp_path, fsync="never", crashpoints=crash)
        store.append({"kind": "submit", "job": "j0"})
        store.snapshot({"jobs": ["old"]})
        store.append({"kind": "seal", "job": "j0"})
        crash.arm("snapshot.mid-write")
        with pytest.raises(SimulatedCrash):
            store.snapshot({"jobs": ["new"]})
        state, records, _ = DurabilityStore(tmp_path, fsync="never").recover()
        assert state == {"jobs": ["old"]}  # rename never happened
        assert [r["kind"] for r in records] == ["seal"]

    def test_mid_journal_corruption_raises(self, tmp_path):
        store = DurabilityStore(tmp_path, fsync="never")
        store.append({"kind": "submit", "job": "j0"})
        store.snapshot({"jobs": []})  # rotates; old segment deleted
        store.append({"kind": "seal", "job": "j0"})
        store.close()
        first = sorted(tmp_path.glob("wal-*.log"))[0]
        first.write_bytes(first.read_bytes()[:-2])  # tear it
        # make it non-last by adding a later segment
        (tmp_path / "wal-99999999.log").write_bytes(
            encode_frame({"lsn": 99999999, "kind": "seal", "job": "jx"})
        )
        with pytest.raises(JournalCorruption, match="mid-journal"):
            DurabilityStore(tmp_path, fsync="never").recover()

    def test_torn_tail_on_last_segment_tolerated_and_counted(self, tmp_path):
        store = DurabilityStore(tmp_path, fsync="never")
        for i in range(3):
            store.append({"kind": "submit", "job": f"j{i}"})
        store.close()
        seg = sorted(tmp_path.glob("wal-*.log"))[-1]
        seg.write_bytes(seg.read_bytes()[:-5])
        store2 = DurabilityStore(tmp_path, fsync="never")
        _, records, info = store2.recover()
        assert [r["job"] for r in records] == ["j0", "j1"]
        assert info["torn_tail"]
        assert store2.stats["torn_tail_dropped_bytes"] > 0
        # new appends land in a fresh segment, never extend the torn file
        store2.append({"kind": "submit", "job": "j3"})
        store2.close()
        assert len(list(tmp_path.glob("wal-*.log"))) == 2

    def test_recover_twice_is_idempotent(self, tmp_path):
        store = DurabilityStore(tmp_path, fsync="never")
        for i in range(6):
            store.append({"kind": "submit", "job": f"j{i}"})
        store.close()
        a = DurabilityStore(tmp_path, fsync="never").recover()
        b = DurabilityStore(tmp_path, fsync="never").recover()
        assert a[0] == b[0] and a[1] == b[1]

    def test_fresh_lsns_never_collide_after_reopen(self, tmp_path):
        store = DurabilityStore(tmp_path, fsync="never")
        store.append({"kind": "submit", "job": "a"})
        store.close()
        store2 = DurabilityStore(tmp_path, fsync="never")
        assert store2.append({"kind": "submit", "job": "b"}) == 2

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(Exception, match="fsync"):
            DurabilityStore(tmp_path, fsync="sometimes")

    def test_fsync_always_counts_and_observes(self, tmp_path):
        seen = []
        store = DurabilityStore(tmp_path, fsync="always", observe_fsync=seen.append)
        store.append({"kind": "submit", "job": "a"})
        store.append({"kind": "seal", "job": "a"})
        assert store.stats["fsyncs"] == 2
        assert len(seen) == 2 and all(dt >= 0 for dt in seen)


# ---------------------------------------------------------------------------
# the crash battery
# ---------------------------------------------------------------------------
class TestCrashBattery:
    """Kill at every instrumented point; reboot; hold the contract."""

    def _run_workload(self, journal_dir, point, at):
        sim, grid, dist = des_env(journal_dir)
        inj = FaultInjector(dist)
        inj.arm_crash(point, at=at)
        acked = []
        crashed = False
        try:
            for i in range(12):
                acked.append(dist.submit(JobRequest(name=f"w{i}", sim_duration=2.0)).id)
            dist.dispatch()
            sim.run()
        except SimulatedCrash as exc:
            assert exc.point == point
            crashed = True
        return acked, crashed

    @pytest.mark.parametrize("point", CRASH_POINTS)
    @pytest.mark.parametrize("at", [1, 3])
    def test_kill_and_reboot_at_every_point(self, tmp_path, point, at):
        acked, crashed = self._run_workload(tmp_path, point, at)
        assert crashed, f"{point} never fired at occurrence {at}"
        sim2, _, dist2, report = reboot(tmp_path)
        drain(sim2, dist2)
        assert_durability_contract(dist2, acked)
        # everything this workload acked should actually finish COMPLETED:
        # simulated jobs are relaunchable and the retry budget covers the
        # single synthetic node_lost a crash can cost each one.
        for job_id in acked:
            assert dist2.job(job_id).state is JobState.COMPLETED
        assert report.jobs_restored >= len(acked)

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_state_survives_a_second_reboot_unchanged(self, tmp_path, point):
        acked, crashed = self._run_workload(tmp_path, point, 2)
        assert crashed
        sim2, _, dist2, _ = reboot(tmp_path)
        drain(sim2, dist2)
        final = {j: dist2.job(j).state for j in acked}
        lineage = {j: [a.no for a in dist2.job(j).attempts] for j in acked}
        # third boot: all work is sealed; recovery must change nothing
        _, _, dist3, report3 = reboot(tmp_path)
        assert {j: dist3.job(j).state for j in acked} == final
        assert {j: [a.no for a in dist3.job(j).attempts] for j in acked} == lineage
        assert report3.terminal_restored == report3.jobs_restored

    def test_crash_during_recovery_replays_to_same_state(self, tmp_path):
        acked, crashed = self._run_workload(tmp_path, "attempt.post-journal", 3)
        assert crashed
        # second boot crashes *inside* recovery: retiring the lost attempts
        # journals them, and that append trips the armed point again.
        sim2 = Simulator()
        grid2 = Grid(ClusterSpec.small(segments=1, slaves=3, cores=2))
        crash = CrashPoints()
        crash.arm("attempt.post-journal", at=1)
        store2 = DurabilityStore(tmp_path, fsync="never", crashpoints=crash)
        with pytest.raises(SimulatedCrash):
            recover_distributor(
                store2, grid2, SimulatedBackend(sim2),
                now_fn=lambda: sim2.now, retry=RETRY,
            )
        # third boot is clean and still honours the contract
        sim3, _, dist3, _ = reboot(tmp_path)
        drain(sim3, dist3)
        assert_durability_contract(dist3, acked)

    def test_submit_pre_journal_crash_loses_only_the_unacked_job(self, tmp_path):
        sim, grid, dist = des_env(tmp_path)
        FaultInjector(dist).arm_crash("submit.pre-journal", at=4)
        acked = []
        with pytest.raises(SimulatedCrash):
            for i in range(6):
                acked.append(dist.submit(JobRequest(name=f"s{i}", sim_duration=1.0)).id)
        assert len(acked) == 3  # fourth submit crashed before acking
        _, _, dist2, report = reboot(tmp_path)
        assert set(dist2.jobs) == set(acked)
        assert report.jobs_restored == 3


# ---------------------------------------------------------------------------
# recovery reconciliation paths
# ---------------------------------------------------------------------------
class TestRecoveryPaths:
    def _crash_mid_flight(self, journal_dir, n=6, duration=10.0):
        sim, grid, dist = des_env(journal_dir)
        acked = [
            dist.submit(JobRequest(name=f"m{i}", sim_duration=duration)).id
            for i in range(n)
        ]
        dist.dispatch()
        sim.run(until=1.0)  # jobs running, none finished
        running = [j for j in acked if dist.job(j).state is JobState.RUNNING]
        assert running
        return acked, running, grid

    def test_in_flight_on_dead_nodes_requeues_via_retry_path(self, tmp_path):
        acked, running, _ = self._crash_mid_flight(tmp_path)
        sim2, _, dist2, report = reboot(tmp_path)  # live_nodes=None: all dead
        assert report.requeued_in_flight == len(running)
        drain(sim2, dist2)
        for job_id in running:
            job = dist2.job(job_id)
            assert job.state is JobState.COMPLETED
            assert [a.outcome for a in job.attempts] == ["node_lost", "completed"]
            assert "crash" in job.attempts[0].error

    def test_in_flight_on_surviving_nodes_resumes_same_epoch(self, tmp_path):
        acked, running, grid = self._crash_mid_flight(tmp_path)
        live = [n.name for n in grid.up_compute_nodes()]
        sim2, _, dist2, report = reboot(tmp_path, live_nodes=live)
        assert report.resumed_in_flight == len(running)
        assert report.requeued_in_flight == 0
        drain(sim2, dist2)
        for job_id in running:
            job = dist2.job(job_id)
            assert job.state is JobState.COMPLETED
            # same attempt restarted: exactly one lineage entry, epoch 1
            assert [a.outcome for a in job.attempts] == ["completed"]
            assert job.attempt_epoch == 1

    def test_no_retry_budget_seals_failed_on_reboot(self, tmp_path):
        sim, grid, dist = des_env(
            tmp_path, retry=RetryPolicy(max_attempts=1, retry_on=("node_lost",))
        )
        job = dist.submit(JobRequest(name="one-shot", sim_duration=10.0))
        dist.dispatch()
        sim.run(until=1.0)
        sim2, _, dist2, report = reboot(
            tmp_path, retry=RetryPolicy(max_attempts=1, retry_on=("node_lost",))
        )
        assert report.sealed_no_budget == 1
        got = dist2.job(job.id)
        assert got.state is JobState.FAILED
        assert got.attempts[-1].outcome == "node_lost"

    def test_journaled_completion_seals_without_rerun(self, tmp_path):
        # crash exactly between the attempt record and the in-memory seal:
        # reboot must mark the job COMPLETED from the journal, not run it again.
        sim, grid, dist = des_env(tmp_path)
        inj = FaultInjector(dist)
        job = dist.submit(JobRequest(name="done-but-unsealed", sim_duration=1.0))
        inj.arm_crash("attempt.post-journal")
        with pytest.raises(SimulatedCrash):
            dist.dispatch()
            sim.run()
        _, _, dist2, report = reboot(tmp_path)
        assert report.sealed_completed == 1
        got = dist2.job(job.id)
        assert got.state is JobState.COMPLETED
        assert [a.outcome for a in got.attempts] == ["completed"]

    def test_queued_jobs_keep_submission_order(self, tmp_path):
        sim, grid, dist = des_env(tmp_path)
        # 10 jobs on 6 cores: several must still be QUEUED when we "crash"
        acked = [
            dist.submit(JobRequest(name=f"q{i}", sim_duration=5.0)).id
            for i in range(10)
        ]
        dist.dispatch()
        queued = [j for j in acked if dist.job(j).state is JobState.QUEUED]
        assert queued
        sim2, _, dist2, report = reboot(tmp_path)
        assert report.requeued_queued >= len(queued)
        drain(sim2, dist2)
        # the never-started cohort (no crash-lost attempt, no backoff) must
        # drain in submission (seq) order
        starts = {}
        for job_id in acked:
            job = dist2.job(job_id)
            assert job.state is JobState.COMPLETED
            if job_id in queued:
                starts[job.seq] = job.attempts[-1].started_at
        seqs = sorted(starts)
        assert all(starts[a] <= starts[b] for a, b in zip(seqs, seqs[1:]))

    def test_unrecoverable_callable_sealed_failed_with_lineage(self, tmp_path):
        import threading

        store = DurabilityStore(tmp_path, fsync="never")
        grid = Grid(ClusterSpec.small(segments=1, slaves=2, cores=2))
        dist = JobDistributor(
            grid, CallableBackend(), journal=JobJournal(store), retry=RETRY
        )
        job = dist.submit(JobRequest(name="py", callable=lambda j: "ok"))
        dist.wait_all(timeout=10.0)
        assert job.state is JobState.COMPLETED
        gate = threading.Event()
        hung = dist.submit(
            JobRequest(name="never-finished", callable=lambda j: gate.wait(10))
        )
        # crash model: abandon the old process mid-run and boot from disk
        try:
            store2 = DurabilityStore(tmp_path, fsync="never")
            grid2 = Grid(ClusterSpec.small(segments=1, slaves=2, cores=2))
            dist2, report = recover_distributor(
                store2, grid2, CallableBackend(), retry=RETRY
            )
        finally:
            gate.set()
        done = dist2.job(job.id)
        assert done.state is JobState.COMPLETED  # terminal lineage survives
        assert done.request.argv == ["<callable lost in restart>"]
        lost = dist2.job(hung.id)
        assert lost.state is JobState.FAILED
        assert "callable lost" in lost.error
        assert report.sealed_unrecoverable >= 1

    def test_queued_callable_is_sealed_failed_and_the_boot_succeeds(self, tmp_path):
        import threading

        def boot():
            store = DurabilityStore(tmp_path, fsync="never")
            grid = Grid(ClusterSpec.small(segments=1, slaves=1, cores=1))
            return recover_distributor(store, grid, CallableBackend(), retry=RETRY)

        store = DurabilityStore(tmp_path, fsync="never")
        grid = Grid(ClusterSpec.small(segments=1, slaves=1, cores=1))
        dist = JobDistributor(grid, CallableBackend(), journal=JobJournal(store), retry=RETRY)
        gate = threading.Event()
        try:
            running = dist.submit(JobRequest(name="running", callable=lambda j: gate.wait(10)))
            queued = dist.submit(JobRequest(name="queued", callable=lambda j: "never ran"))
            assert running.state is JobState.RUNNING and queued.state is JobState.QUEUED
            # crash model: abandon the old process and boot from disk, twice
            dist2, report = boot()
            dist3, _ = boot()
        finally:
            gate.set()
        assert report.sealed_unrecoverable == 2
        for booted in (dist2, dist3):
            for job in (running, queued):
                lost = booted.job(job.id)
                assert lost.state is JobState.FAILED
                assert lost.error == "callable lost in restart (not journalable)"
            assert booted.grid.cores_free == booted.grid.cores_total

    def test_new_submissions_never_collide_with_restored_ids(self, tmp_path):
        sim, grid, dist = des_env(tmp_path)
        old = [dist.submit(JobRequest(name=f"o{i}", sim_duration=1.0)).id for i in range(4)]
        dist.dispatch()
        sim.run()
        sim2, _, dist2, _ = reboot(tmp_path)
        fresh = dist2.submit(JobRequest(name="new", sim_duration=1.0))
        assert fresh.id not in old
        drain(sim2, dist2)
        assert dist2.job(fresh.id).state is JobState.COMPLETED


# ---------------------------------------------------------------------------
# hypothesis: prefix replay == replay of prefix
# ---------------------------------------------------------------------------
def _lifecycle_records(draw):
    """A plausible multi-job journal: interleaved lifecycles, monotone epochs."""
    n_jobs = draw(st.integers(1, 5))
    scripts = []
    for j in range(n_jobs):
        n_attempts = draw(st.integers(0, 3))
        events = [("submit", j)]
        for a in range(1, n_attempts + 1):
            events.append(("start", j, a))
            outcome = draw(st.sampled_from(["completed", "failed", "timeout", "node_lost"]))
            events.append(("attempt", j, a, outcome))
            if outcome == "completed":
                events.append(("seal", j, "completed"))
                break
            if a < n_attempts:
                events.append(("requeue", j, a))
            else:
                events.append(("seal", j, "failed"))
        scripts.append(events)
    # deterministic interleave driven by draws
    records, cursors = [], [0] * n_jobs
    while any(c < len(s) for c, s in zip(cursors, scripts)):
        ready = [j for j in range(n_jobs) if cursors[j] < len(scripts[j])]
        j = ready[draw(st.integers(0, len(ready) - 1))]
        ev = scripts[j][cursors[j]]
        cursors[j] += 1
        kind = ev[0]
        if kind == "submit":
            records.append({"kind": "submit", "job": f"j{j}", "seq": j + 1, "t": 0.0,
                            "request": {"name": f"j{j}", "argv": ["true"]}})
        elif kind == "start":
            records.append({"kind": "start", "job": f"j{j}", "epoch": ev[2], "t": 1.0,
                            "placement": {"n0": 1}})
        elif kind == "attempt":
            records.append({"kind": "attempt", "job": f"j{j}",
                            "attempt": {"no": ev[2], "outcome": ev[3], "placement": {},
                                        "started_at": 1.0, "finished_at": 2.0,
                                        "error": None, "exit_code": 0, "backoff_s": 0.0}})
        elif kind == "requeue":
            records.append({"kind": "requeue", "job": f"j{j}", "not_before": 2.5,
                            "epoch": ev[2]})
        else:
            records.append({"kind": "seal", "job": f"j{j}", "state": ev[2], "t": 3.0,
                            "error": None, "exit_code": 0})
    return records


class TestPrefixReplayProperty:
    @given(data=st.data())
    @settings(max_examples=60)
    def test_byte_truncation_recovers_a_record_prefix_with_identical_fold(
        self, data, tmp_path
    ):
        records = _lifecycle_records(data.draw)
        blob = b""
        for i, rec in enumerate(records):
            rec["lsn"] = i + 1
            blob += encode_frame(rec)
        cut = data.draw(st.integers(0, len(blob)))
        stats = FrameStats()
        recovered = list(decode_frames(io.BytesIO(blob[:cut]), stats))
        # 1. byte truncation yields a clean *record* prefix (torn tail dropped)
        n = len(recovered)
        assert recovered == records[:n]
        if cut == len(blob):
            assert n == len(records) and not stats.torn
        # 2. folding the recovered prefix == folding the full log cut at n
        assert replay(None, recovered) == replay(None, records[:n])
        # 3. no effect duplication / epoch regression along the fold
        epochs: dict[str, int] = {}
        for k in range(n + 1):
            state = replay(None, records[:k])
            for job_id, wire in state.items():
                nos = [a["no"] for a in wire["attempts"]]
                assert nos == sorted(nos)
                assert len([a for a in wire["attempts"] if a["outcome"] == "completed"]) <= 1
                assert wire["attempt_epoch"] >= epochs.get(job_id, 0)
                epochs[job_id] = wire["attempt_epoch"]

    _case = itertools.count()

    @given(data=st.data())
    @settings(max_examples=30)
    def test_prefix_replay_matches_through_the_store(self, data, tmp_path):
        # hypothesis re-enters the test body with the same tmp_path; a
        # shared journal dir would leak segments between examples.
        tmp_path = tmp_path / f"case-{next(self._case)}"
        records = _lifecycle_records(data.draw)
        store = DurabilityStore(tmp_path, fsync="never")
        for rec in records:
            store.append(rec)
        store.close()
        seg = sorted(tmp_path.glob("wal-*.log"))[0]
        blob = seg.read_bytes()
        cut = data.draw(st.integers(0, len(blob)))
        seg.write_bytes(blob[:cut])
        _, recovered, info = DurabilityStore(tmp_path, fsync="never").recover()
        n = len(recovered)
        assert recovered == records[:n]  # append stamped lsn into both
        assert replay(None, recovered) == replay(None, records[:n])


# ---------------------------------------------------------------------------
# injector / RPC / telemetry / CLI surfaces
# ---------------------------------------------------------------------------
class TestSurfaces:
    def test_arm_crash_requires_a_journal(self):
        grid = Grid(ClusterSpec.small(segments=1, slaves=2, cores=2))
        dist = JobDistributor(grid, CallableBackend())
        inj = FaultInjector(dist)
        with pytest.raises(ResourceError, match="journal"):
            inj.arm_crash("seal.post-journal")
        assert inj.crash_points() == CRASH_POINTS

    def test_arm_crash_rejects_unknown_points(self, tmp_path):
        sim, grid, dist = des_env(tmp_path)
        with pytest.raises(Exception, match="crash point"):
            FaultInjector(dist).arm_crash("no.such.point")

    def test_checkpoint_requires_a_journal(self):
        grid = Grid(ClusterSpec.small(segments=1, slaves=2, cores=2))
        dist = JobDistributor(grid, CallableBackend())
        with pytest.raises(JobError, match="journal"):
            dist.checkpoint()
        assert dist.durability_stats() == {"enabled": False}
        assert dist.stats()["durability"] == {"enabled": False}

    def test_checkpoint_and_durability_over_the_bus(self, tmp_path):
        from repro.bus.core import MessageBus
        from repro.bus.rpc import RpcClient
        from repro.bus.service import ClusterBackendService

        sim, grid, dist = des_env(tmp_path)
        for i in range(3):
            dist.submit(JobRequest(name=f"b{i}", sim_duration=1.0))
        dist.dispatch()
        sim.run()
        bus = MessageBus()
        service = ClusterBackendService(bus, dist).start()
        try:
            client = RpcClient(bus, "cluster.backend")
            out = client.call("cluster.checkpoint", {})
            assert out["lsn"] >= 1
            stats = client.call("cluster.durability", {})
            assert stats["enabled"] and stats["records"] >= 9
        finally:
            service.stop()

    def test_durability_telemetry_exported(self, tmp_path):
        sim, grid, dist = des_env(tmp_path)
        dist.submit(JobRequest(name="t", sim_duration=1.0))
        dist.dispatch()
        sim.run()
        dist.checkpoint()
        from repro.telemetry import render_prometheus

        text = render_prometheus(dist.telemetry.registry.snapshot())
        assert "repro_durability_journal_total" in text
        assert 'kind="records"' in text
        assert "repro_durability_snapshot_lsn" in text

    def test_recovery_telemetry_counts_boots(self, tmp_path):
        sim, grid, dist = des_env(tmp_path)
        dist.submit(JobRequest(name="t", sim_duration=1.0))
        dist.dispatch()
        sim.run()
        _, _, dist2, report = reboot(tmp_path)
        from repro.telemetry import render_prometheus

        text = render_prometheus(dist2.telemetry.registry.snapshot())
        assert "repro_durability_recoveries_total 1" in text
        assert dist2.last_recovery is report
        assert dist2.durability_stats()["last_recovery"]["jobs_restored"] == 1

    def test_cli_inspects_a_journal(self, tmp_path, capsys):
        sim, grid, dist = des_env(tmp_path)
        for i in range(4):
            dist.submit(JobRequest(name=f"c{i}", sim_duration=1.0))
        dist.dispatch()
        sim.run()
        dist.journal.store.close()
        assert journal_cli([str(tmp_path), "--jobs"]) == 0
        out = capsys.readouterr().out
        assert "jobs restored   : 4" in out
        assert "needing recovery: 0" in out

    def test_cli_flags_corruption(self, tmp_path, capsys):
        store = DurabilityStore(tmp_path, fsync="never")
        store.append({"kind": "submit", "job": "j0"})
        store.close()
        seg = sorted(tmp_path.glob("wal-*.log"))[0]
        seg.write_bytes(seg.read_bytes()[:-1])
        (tmp_path / "wal-00009999.log").write_bytes(
            encode_frame({"lsn": 9999, "kind": "seal", "job": "j0"})
        )
        assert journal_cli([str(tmp_path)]) == 1
        assert "CORRUPT" in capsys.readouterr().err

    def test_snapshot_file_is_valid_json_with_version(self, tmp_path):
        sim, grid, dist = des_env(tmp_path)
        dist.submit(JobRequest(name="s", sim_duration=1.0))
        dist.dispatch()
        sim.run()
        dist.checkpoint()
        payload = json.loads((tmp_path / "snapshot.json").read_text())
        assert payload["version"] == 1
        assert payload["lsn"] >= 1
        assert len(payload["state"]["jobs"]) == 1
