"""End-to-end loopback benchmark of the student request path.

One command starts the real portal deployment in its own process
(``system.py``: two front-end workers over HTTP, the bus, the back-end
service, the distributor with a journal and a subprocess backend) and
drives it from this process, the load generator, over one connection
at a time (two threads log the class in during set-up)::

    python3 perfbench/run.py --workload poll|submit|mixed --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N  # every workload in turn
    python3 perfbench/run.py --smoke                  # every workload, briefly
    python3 perfbench/run.py --workload poll --seed 1 --seconds 5 --profile

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it print every metric by name with its unit.  The command exits
non-zero when any correctness check fails.  ``README.md`` beside this
file defines every metric and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import client  # noqa: E402 - the benchmark's own modules sit beside this file
import workload  # noqa: E402
from metrics import mean, percentile  # noqa: E402

perf = time.perf_counter

WORKLOADS = ("poll", "submit", "mixed")
#: deployments per timed run: each is set up (``setup_s`` is the median)
#: and measured for a third of the window (the figures are medians).
SETUPS = 3
#: load-generator threads during set-up (the machine's core count): the
#: logins' PBKDF2 work spreads over both cores.
THREADS = 2
#: students in the ``submit`` closed loop; they take turns.
SUBMIT_STUDENTS = 2
#: untimed read traffic between seeding and the window (caches fill,
#: lazy set-up finishes); the seed jobs already warmed the submit path.
WARMUP_S = 1.0
#: the ``submit`` loop's fixed state-poll interval: longer than nearly
#: every echo job takes from its 201 to a terminal state, so a job cycle
#: is almost always three requests (submit, one state poll, output) and
#: the request mix does not follow the turnaround.
POLL_INTERVAL_S = 0.02
#: ``latency_p50_rel`` is the median over the windows' slices of this
#: length: a spell of the host running slow that covers a minority of
#: them moves it little.
SLICE_S = 1.0
#: iterations of the reference computation timed after every request
#: (about 0.1 ms; see :func:`reference`).
REF_LOOPS = 1000
#: a job must turn terminal within this long, or the cycle fails.
JOB_DEADLINE_S = 30.0
#: ``mixed`` is rejected when the generator's p99 lateness exceeds this.
#: With one connection, a stall of the system holds up every arrival
#: behind it, so the bound leaves room for the host taking the machine's
#: CPU for a while; a generator that cannot keep up falls seconds behind.
LAG_BOUND_MS = 500.0
#: the per-layer self times must add up to the client-observed mean
#: latency within this share of it (``poll`` and ``submit``).
BREAKDOWN_TOLERANCE = 0.10
#: the whole run is abandoned (system killed) after this long.
WATCHDOG_S = 170.0
TERMINAL = ("completed", "failed", "cancelled", "timeout")
#: the cores this process may use when it starts
CPUS = os.sched_getaffinity(0)
#: a process that keeps a core busy at the lowest priority (``System.pin``)
SPIN = "import os\nos.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\nwhile 1: pass\n"

READ_PATHS = {
    "status": lambda job: "/api/cluster/status",
    "jobs": lambda job: "/api/jobs",
    "describe": lambda job: f"/api/jobs/{job}",
    "output": lambda job: f"/api/jobs/{job}/output",
}

#: the end-to-end metrics of the result line (``BENCHMARK.json``); the
#: rest are printed but not published — see README.md.
E2E_UNITS = {"latency_p50_rel": "ratio", "setup_s": "s"}

#: per-layer metric → unit, in the order they are printed.
LAYER_UNITS = {
    "http.overhead_ms": "ms", "http.connect_ms": "ms", "http.spawn_ms": "ms",
    "http.server_self_ms": "ms", "http.close_ms": "ms", "http.return_ms": "ms",
    "frontend.self_ms": "ms", "frontend.requests": "count",
    "admission.admit_us": "us", "admission.shed": "count",
    "respcache.hit_ratio": "ratio", "respcache.render_ms": "ms",
    "respcache.stale_drops": "count",
    "rpc.calls_per_request": "count", "rpc.call_p50_ms": "ms", "rpc.call_p99_ms": "ms",
    "rpc.codec_us": "us", "rpc.timeouts": "count", "rpc.stale_dropped": "count",
    "bus.queue_wait_ms": "ms", "bus.sent_per_request": "count",
    "service.handler_ms": "ms", "service.freshness_ms": "ms",
    "service.render_ms": "ms", "service.submit_ms": "ms",
    "dist.submit_p50_ms": "ms", "dist.submit_p99_ms": "ms", "dist.dispatch_ms": "ms",
    "dist.rounds_per_job": "count", "dist.coalesced_share": "ratio",
    "dist.queue_wait_ms": "ms",
    "sched.select_us": "us", "sched.placements_tried_per_job": "count",
    "journal.records_per_job": "count", "journal.bytes_per_job": "B",
    "journal.append_us": "us", "journal.fsyncs_per_s": "1/s", "journal.fsync_ms": "ms",
    "backend.launch_ms": "ms", "backend.run_ms": "ms", "backend.exit_lag_ms": "ms",
    "breakdown.client_ms": "ms", "breakdown.sum_ms": "ms", "breakdown.gap_share": "ratio",
    "trace.overhead_req_per_s": "req/s", "gen.lag_p99_ms": "ms",
}

#: back-end per-layer metrics a window can leave idle; they then report
#: the seed jobs' figures (see :func:`layer_metrics`).
SEED_FALLBACK = (
    "service.submit_ms", "dist.submit_p50_ms", "dist.submit_p99_ms",
    "dist.dispatch_ms", "dist.rounds_per_job", "dist.coalesced_share",
    "dist.queue_wait_ms", "sched.select_us", "sched.placements_tried_per_job",
    "journal.append_us", "journal.fsyncs_per_s", "journal.fsync_ms",
    "backend.launch_ms", "backend.run_ms", "backend.exit_lag_ms",
)


class BenchError(Exception):
    """The run cannot continue (the system died or a set-up step failed)."""


# -- the system process ---------------------------------------------------------------


class System:
    """Handle on one ``system.py`` process and its journal directory."""

    def __init__(self, roster: list, traced: bool, profile: str = "") -> None:
        # start unpinned even when an earlier deployment pinned this process
        os.sched_setaffinity(0, CPUS)
        OUT.mkdir(exist_ok=True)
        self.journal = tempfile.mkdtemp(prefix="journal-", dir=OUT)
        cmd = [sys.executable, str(HERE / "system.py"), "--journal", self.journal]
        if traced:
            cmd.append("--traced")
        if profile:
            cmd += ["--profile", profile]
        # one string-hash seed for every deployment: a per-process random
        # seed changes dict layouts, and with them the speed of a deployment
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env
        )
        self.spinner: subprocess.Popen | None = None
        self._send({"students": roster})
        self.addrs = [tuple(a) for a in self._recv()["urls"]]

    def _send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def _recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"system process exited (code {self.proc.wait()})")
        return json.loads(line)

    def call(self, cmd: str) -> dict:
        self._send({"cmd": cmd})
        return self._recv()

    def stop(self) -> None:
        """Clean shutdown; the journal stays on disk for offline recovery."""
        self._stop_spinner()
        if self.proc.poll() is None:
            try:
                self.call("stop")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (BenchError, OSError, subprocess.TimeoutExpired):
                self.kill()
        self.proc.stdout.close()

    def kill(self) -> None:
        self._stop_spinner()
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def _stop_spinner(self) -> None:
        if self.spinner is not None:
            self.spinner.kill()
            self.spinner.wait()

    def pin(self) -> None:
        """Put the system and this generator on one core, the last.

        Set-up runs unpinned (the PBKDF2 work spreads over both cores).
        For the measured phases, every thread of the system process and
        the generator's thread move to the last core; threads and jobs the
        system starts later inherit that.  With one request in flight the
        two sides take turns, so the core stays busy while a request is
        answered.  On separate cores each request woke an idle virtual
        CPU twice, and how fast the host did that varied with its load:
        ``poll``'s ``latency_p50_ms`` spread 0.29-0.42 over six runs,
        against 0.05-0.06 on one core for runs interleaved with them.

        The core is also kept from idling between requests (``mixed``
        waits for due times, ``submit`` sleeps before its state poll): a
        spinner at ``SCHED_IDLE`` priority runs only when nothing else on
        the core can, so the system and the generator preempt it at once
        and a due request no longer waits for the host to wake the core.
        It took ``mixed``'s spread from 0.17 to 0.05 over five seeds.
        """
        core = {max(CPUS)}
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                os.sched_setaffinity(int(tid), core)
            except ProcessLookupError:
                pass  # the thread ended since the listing
        os.sched_setaffinity(0, core)
        self.spinner = subprocess.Popen([sys.executable, "-c", SPIN])
        os.sched_setaffinity(self.spinner.pid, core)


# -- the load generator -------------------------------------------------------------------


class Student:
    """One virtual student: credentials, session, validators, acked jobs."""

    def __init__(self, name: str, password: str) -> None:
        self.name = name
        self.password = password
        self.token = ""
        self.turn = 0
        self.etags: dict[str, str] = {}
        self.jobs: list[str] = []

    def next_addr(self, addrs: list) -> tuple:
        """Alternate workers request by request (session replication)."""
        addr = addrs[self.turn % len(addrs)]
        self.turn += 1
        return addr


class Tally:
    """One window's samples (seconds) and counts; merged over deployments."""

    def __init__(self) -> None:
        #: ``(due or send time, kind, latency)`` of every answered request;
        #: the kind is a read kind or ``submit``
        self.samples: list[tuple[float, str, float]] = []
        #: ``(due or send time, reference() seconds)`` after each of them
        self.refs: list[tuple[float, float]] = []
        #: ``(kind_p50_ms, reference ms)`` of each full ``SLICE_S`` slice
        self.slices: list[tuple[float, float]] = []
        self.reads: list[float] = []
        self.acks: list[float] = []
        self.turnarounds: list[float] = []
        self.latencies: list[float] = []
        #: send and response times (``perf_counter``) of each request answered
        self.sent: list[float] = []
        self.done: list[float] = []
        self.lags: list[float] = []
        self.requests = 0
        self.failed = 0
        self.jobs_ok = 0
        self.errors: list[str] = []
        #: when the next request became due (closed loops: the previous
        #: response or the end of a poll sleep)
        self.ready: float | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @classmethod
    def merge(cls, tallies: list["Tally"]) -> "Tally":
        out = cls()
        for t in tallies:
            for name in ("reads", "acks", "turnarounds", "latencies", "sent", "done", "lags",
                         "samples", "refs", "slices", "errors"):
                getattr(out, name).extend(getattr(t, name))
            out.requests += t.requests
            out.failed += t.failed
            out.jobs_ok += t.jobs_ok
        return out


class Generator:
    """Drives one deployment: set-up, a workload window, end-of-run checks."""

    def __init__(self, workload_name: str, seed: int, live: list,
                 deployment: int = 0) -> None:
        self.workload = workload_name
        self.seed = seed
        self.deployment = deployment
        #: every system process started, so a watchdog can kill them
        self.live = live
        self.students = [Student(u, p) for u, p in workload.roster(seed)]
        self.addrs: list = []
        self.acked: list[str] = []           # every job id a 201 returned
        self.expected: dict[str, list] = {}  # job id -> stdout lines
        self.mixed_jobs: list[str] = []

    # -- HTTP ------------------------------------------------------------------------
    def call(self, tally: Tally, student: Student, kind: str, method: str, path: str,
             body=None, conditional: bool = False, due: float | None = None):
        """One request of ``kind``; returns ``(status, json-or-None)`` or None on failure."""
        etag = student.etags.get(path, "") if conditional else ""
        addr = student.next_addr(self.addrs)
        t0 = perf()
        ref = tally.ready if due is None else due
        if ref is not None:
            tally.lags.append(max(0.0, t0 - ref))
        tally.requests += 1
        try:
            status, headers, content = client.request(
                addr, method, path, student.token, body, etag
            )
        except OSError as exc:
            tally.fail(f"{method} {path}: {exc}")
            return None
        tally.ready = perf()
        start = t0 if due is None else due
        latency = tally.ready - start
        tally.latencies.append(latency)
        tally.sent.append(t0)
        tally.done.append(tally.ready)
        if status not in ((200, 304) if method == "GET" else (201,)):
            tally.fail(f"{method} {path} -> {status} {content[:120]!r}")
            return None
        tally.samples.append((start, kind, latency))
        tally.refs.append((start, reference()))
        if method == "GET":
            tally.reads.append(latency)
            if "etag" in headers:
                student.etags[path] = headers["etag"]
        else:
            tally.acks.append(latency)
        return status, (json.loads(content) if status != 304 and content else None)

    def read(self, tally: Tally, student: Student, kind: str, due=None) -> None:
        job = student.jobs[-1] if student.jobs else ""
        res = self.call(tally, student, kind, "GET", READ_PATHS[kind](job),
                        conditional=True, due=due)
        if res is None or res[1] is None:
            return
        data = res[1]
        if kind == "output":
            want = self.expected.get(job, [])
            got = data.get("stdout")
            ok = got == want if data.get("state") == "completed" else got == want[:len(got)]
            if not ok:
                tally.fail(f"job {job}: stdout {got!r} != {want!r}")
        elif kind == "describe" and data.get("id") != job:
            tally.fail(f"describe {job} returned {data.get('id')!r}")

    def submit(self, tally: Tally, student: Student, argv: list, want: list, due=None):
        """POST a job; returns ``(job_id, state)`` or None."""
        res = self.call(tally, student, "submit", "POST", "/api/jobs",
                        body={"name": "bench", "argv": argv}, due=due)
        if res is None:
            return None
        job = res[1]["job"]
        self.expected[job["id"]] = want
        self.acked.append(job["id"])
        student.jobs.append(job["id"])
        return job["id"], job["state"]

    # -- set-up ------------------------------------------------------------------------
    def _parallel(self, target, parts: list) -> None:
        threads = [threading.Thread(target=target, args=(part,)) for part in parts]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def _split(self, items: list) -> list:
        return [items[i::THREADS] for i in range(THREADS)]

    def setup(self, traced: bool, profile: str = "") -> tuple[System, float]:
        """Launch a deployment and log the class in; returns it with ``setup_s``."""
        t0 = perf()
        system = System(workload.roster(self.seed), traced, profile)
        self.live.append(system)
        try:
            self.addrs = system.addrs
            failures: list[str] = []

            def login(indexed: list) -> None:
                for i, st in indexed:
                    try:
                        status, _, content = client.request(
                            self.addrs[i % len(self.addrs)], "POST", "/api/login",
                            body={"username": st.name, "password": st.password},
                        )
                    except OSError as exc:
                        failures.append(f"login {st.name}: {exc}")
                        continue
                    if status != 200:
                        failures.append(f"login {st.name} -> {status}")
                        continue
                    st.token = json.loads(content)["token"]
                    st.turn = i

            self._parallel(login, self._split(list(enumerate(self.students))))
            # both workers answer an authenticated read for a session
            # created on worker 0: replication is live
            for addr in self.addrs:
                status, _, _ = client.request(addr, "GET", "/api/whoami",
                                              self.students[0].token)
                if status != 200:
                    failures.append(f"whoami on {addr} -> {status}")
            if failures:
                raise BenchError("set-up failed: " + "; ".join(failures[:3]))
            return system, perf() - t0
        except BaseException:
            system.kill()
            shutil.rmtree(system.journal, ignore_errors=True)
            raise

    def seed_jobs(self, system: System) -> None:
        """Give every student one completed ``/bin/echo`` job."""
        tally = Tally()

        def run(part: list) -> None:
            for i, st in part:
                token = workload.nonce(self.seed, "seed", i)
                self.submit(tally, st, workload.echo_argv(token), [token])

        self._parallel(run, self._split(list(enumerate(self.students))))
        if tally.failed:
            raise BenchError("seeding failed: " + "; ".join(tally.errors))
        if not system.call("report")["drained"]:
            raise BenchError("seed jobs did not finish")

    # -- workloads ---------------------------------------------------------------------
    def window(self, seconds: float, items: list | None = None,
               kind: str = "") -> tuple[Tally, float]:
        """Run the workload (or ``kind``) for ``seconds`` over one connection.

        The generator keeps one request in flight (``mixed``: one at a
        time, in due order).  Returns ``(tally, elapsed)``.
        """
        body = {"poll": self._poll_loop, "submit": self._submit_loop,
                "mixed": self._mixed_loop}[kind or self.workload]
        tally = Tally()
        t0 = tally.ready = perf()
        body(tally, items, t0, t0 + seconds)
        tally.slices = slice_p50s(tally, t0, seconds)
        return tally, perf() - t0

    def _poll_loop(self, tally: Tally, _items, t0: float, deadline: float) -> None:
        students = self.students
        n = 0
        while perf() < deadline:
            st = students[n % len(students)]
            kind = workload.READ_KINDS[(n // len(students)) % len(workload.READ_KINDS)]
            self.read(tally, st, kind)
            n += 1

    def _submit_loop(self, tally: Tally, _items, t0: float, deadline: float) -> None:
        k = 0
        while perf() < deadline:
            st = self.students[k % SUBMIT_STUDENTS]
            token = workload.nonce(self.seed, f"submit{self.deployment}", k)
            k += 1
            started = perf()
            sub = self.submit(tally, st, workload.echo_argv(token), [token])
            if sub is None:
                continue
            job, state = sub
            path = f"/api/jobs/{job}"
            while state not in TERMINAL and perf() - started < JOB_DEADLINE_S:
                time.sleep(POLL_INTERVAL_S)
                tally.ready = perf()
                res = self.call(tally, st, "describe", "GET", path, conditional=True)
                if res is None:
                    break
                if res[1] is not None:
                    state = res[1]["state"]
            if state != "completed":
                tally.fail(f"job {job} ended {state}")
                continue
            res = self.call(tally, st, "output", "GET", path + "/output")
            if res is None:
                continue
            if res[1]["stdout"] != [token]:
                tally.fail(f"job {job}: stdout {res[1]['stdout']!r} != {[token]!r}")
                continue
            tally.turnarounds.append(perf() - started)
            tally.jobs_ok += 1

    def _mixed_loop(self, tally: Tally, items: list, t0: float, deadline: float) -> None:
        for due_s, si, op, token, lines in items:
            due = t0 + due_s
            delay = due - perf()
            if delay > 0:
                time.sleep(delay)
            st = self.students[si]
            if op == "submit":
                sub = self.submit(tally, st, workload.shell_argv(token, lines),
                                  workload.shell_output(token, lines), due=due)
                if sub is not None:
                    self.mixed_jobs.append(sub[0])
            else:
                self.read(tally, st, op, due=due)

    # -- end-of-run checks ---------------------------------------------------------------
    def check(self, system: System, report: dict) -> list[str]:
        """The end-of-run correctness checks; returns the failures."""
        failures: list[str] = []
        live = {j["id"]: j for j in report["jobs"]}
        if not report["drained"]:
            failures.append("jobs still running 60 s after the window")
        # every 201 maps to exactly one job, and no job exists without one
        listed: list[str] = []
        tally = Tally()
        for st in self.students:
            res = self.call(tally, st, "jobs", "GET", "/api/jobs")
            if res is None:
                failures.append(f"job list of {st.name} failed: {tally.errors[-1:]}")
                continue
            listed += [j["id"] for j in res[1]["jobs"]]
        if len(listed) != len(set(listed)):
            failures.append("a job is listed more than once")
        if len(self.acked) != len(set(self.acked)):
            failures.append("two 201s returned the same job id")
        if set(listed) != set(self.acked):
            missing = set(self.acked) - set(listed)
            extra = set(listed) - set(self.acked)
            failures.append(f"listing vs 201s: {len(missing)} missing, {len(extra)} unacked")
        # every completed job's stdout is what its nonce predicts
        wrong = [
            job for job in self.acked
            if live.get(job, {}).get("state") != "completed"
            or live[job]["stdout"] != self.expected[job]
        ]
        if wrong:
            failures.append(f"{len(wrong)} job(s) not completed with the expected stdout")
        if report["admission_shed"]:
            failures.append(f"admission shed {report['admission_shed']} request(s)")
        if report["rpc_timeouts"]:
            failures.append(f"{report['rpc_timeouts']} RPC timeout(s)")
        # submit, start, attempt and seal: four journal records per job
        if report["journal_records"] != 4 * len(live):
            failures.append(f"{report['journal_records']} journal records for "
                            f"{len(live)} jobs (expected 4 per job)")
        # the journal alone rebuilds the same job table
        system.stop()
        from repro.durability import DurabilityStore, replay

        snapshot, records, _ = DurabilityStore(system.journal, fsync="never").recover()
        replayed = replay(snapshot, records)
        recovered = {job: wire["state"] for job, wire in replayed.items()}
        if recovered != {job: j["state"] for job, j in live.items()}:
            failures.append("offline journal replay disagrees with the live job table")
        return failures


# -- metrics --------------------------------------------------------------------------------


def _ms(values: list, q: float) -> float:
    return percentile(values, q) * 1e3


def _service_ms(tally: Tally) -> float:
    """Mean time from sending a request to its response, in ms."""
    return (math.fsum(tally.done) - math.fsum(tally.sent)) / max(len(tally.sent), 1) * 1e3


def part_pct(parts: list, q: float) -> float:
    """``q``-quantile of the reads in ms: the median over deployments.

    Each measured deployment of a run whose reads hold at least ten
    samples beyond the quantile gives its own, and the median of those is
    reported.  When one holds fewer (``mixed``'s p99), the quantile of
    the pooled reads is used instead.
    """
    samples = [p["tally"].reads for p in parts]
    if all(len(s) >= 10 / (1 - q) for s in samples):
        return statistics.median(percentile(s, q) for s in samples) * 1e3
    return percentile([x for s in samples for x in s], q) * 1e3


def kind_p50_ms(samples: list) -> float:
    """The median latency of each request kind, averaged over the kinds, in ms."""
    kinds: dict[str, list[float]] = {}
    for _, kind, latency in samples:
        kinds.setdefault(kind, []).append(latency)
    return mean([percentile(values, 0.50) for values in kinds.values()]) * 1e3


def reference() -> float:
    """CPU seconds this thread spends on a fixed piece of interpreter work.

    The generator runs it after every request, on the core the system
    runs on, so it tracks how fast the host lets that core run at the
    time (CPU time leaves out spells when the host ran something else).
    """
    t = time.thread_time()
    x = 0
    for i in range(REF_LOOPS):
        x = (x + i * i) % 1000003
    return time.thread_time() - t


def slice_p50s(tally: Tally, t0: float, seconds: float) -> list[tuple[float, float]]:
    """``(kind_p50_ms, median reference ms)`` of each full ``SLICE_S`` slice.

    A request belongs to the slice of its due time (``mixed``) or send
    time; the last cycles of a closed loop, sent after the window, are
    left out with any partial slice.
    """
    n = int(seconds / SLICE_S + 1e-9)
    samples: list[list] = [[] for _ in range(n)]
    refs: list[list] = [[] for _ in range(n)]
    for sample, (start, ref) in zip(tally.samples, tally.refs):
        k = int((start - t0) // SLICE_S)
        if 0 <= k < n:
            samples[k].append(sample)
            refs[k].append(ref)
    return [(kind_p50_ms(part), statistics.median(ref) * 1e3)
            for part, ref in zip(samples, refs) if part]


def e2e_lines(name: str, parts: list, setup_times: list) -> dict:
    """Every end-to-end figure of one workload, by name: ``(value, unit, n)``.

    ``latency_p50_rel`` (each slice's ``kind_p50_ms`` over its median
    reference time), ``latency_p50_ms`` and ``reference_ms`` are medians
    over the slices of every measured deployment.  ``latency_ms`` (the
    mean time from sending a request to its response, every kind),
    ``req_per_s`` and the read quantiles are medians over the
    deployments; the rest pool them.
    """
    tally = Tally.merge([p["tally"] for p in parts])
    elapsed = sum(p["elapsed"] for p in parts)
    jobs_ok = sum(p["jobs_ok"] for p in parts)
    checks_failed = sum(len(p["failures"]) for p in parts)
    attempted = max(tally.requests, 1)
    out = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "latency_p50_rel": (statistics.median(p50 / ref for p50, ref in tally.slices)
                            if tally.slices else 0.0, "ratio", len(tally.latencies)),
        "latency_p50_ms": (statistics.median(p50 for p50, _ in tally.slices)
                           if tally.slices else 0.0, "ms", len(tally.latencies)),
        "reference_ms": (statistics.median(ref for _, ref in tally.slices)
                         if tally.slices else 0.0, "ms", len(tally.refs)),
        "latency_ms": (statistics.median(_service_ms(p["tally"]) for p in parts),
                       "ms", len(tally.latencies)),
        "req_per_s": (statistics.median(p["tally"].requests / p["elapsed"] for p in parts),
                      "req/s", tally.requests),
        "read_p50_ms": (part_pct(parts, 0.50), "ms", len(tally.reads)),
        "read_p99_ms": (part_pct(parts, 0.99), "ms", len(tally.reads)),
    }
    if tally.acks:
        out["submit_ack_p50_ms"] = (_ms(tally.acks, 0.50), "ms", len(tally.acks))
        out["submit_ack_p99_ms"] = (_ms(tally.acks, 0.99), "ms", len(tally.acks))
    if tally.turnarounds:
        out["turnaround_p50_ms"] = (_ms(tally.turnarounds, 0.50), "ms", len(tally.turnarounds))
        out["turnaround_p99_ms"] = (_ms(tally.turnarounds, 0.99), "ms", len(tally.turnarounds))
    if name != "poll":
        out["jobs_per_s"] = (jobs_ok / elapsed, "jobs/s", jobs_ok)
    out["error_share"] = ((tally.failed + checks_failed) / attempted, "ratio", attempted)
    if name == "mixed":
        out["due_latency_ms"] = (
            statistics.median(mean(p["tally"].latencies) for p in parts) * 1e3,
            "ms", len(tally.latencies),
        )
    if tally.lags:
        out["gen.lag_p99_ms"] = (_ms(tally.lags, 0.99), "ms", len(tally.lags))
    return out


def layer_metrics(summary: dict, seed_summary: dict, tally: Tally,
                  untraced_rps: float, traced_rps: float, lags: list,
                  report: dict) -> dict:
    """Per-layer metrics: the system's span summary plus the client's view.

    ``tally`` is the traced window's; the system saw the same requests
    (``run`` checks the count), so the legs outside the system follow from
    the two sides' sums of the shared clock's readings.  A back-end layer
    the window left idle (``poll`` submits nothing) reports what it
    measured on the set-up's seed jobs instead.
    """
    m = dict(summary)
    for name in SEED_FALLBACK:
        if not m[name]:
            m[name] = seed_summary[name]
    n = max(len(tally.sent), 1)
    client_ms = _service_ms(tally)
    m["http.overhead_ms"] = client_ms - m.pop("wsgi_ms")
    m["http.connect_ms"] = (m.pop("http.accepted_sum_s") - math.fsum(tally.sent)) / n * 1e3
    m["http.return_ms"] = (math.fsum(tally.done) - m.pop("http.closed_sum_s")) / n * 1e3
    calls = m["rpc.calls_per_request"]
    rpc_parts = calls * (m["rpc.codec_us"] / 1e3 + m["service.handler_ms"]
                         + m["bus.queue_wait_ms"])
    proxy_glue = m.pop("proxy.per_request_ms") - m.pop("rpc.per_request_ms")
    m["breakdown.client_ms"] = client_ms
    # every leg of a request: connect, the system's self times from
    # accept() to the closed socket, and the response's return
    m["breakdown.sum_ms"] = (
        m["http.connect_ms"] + m["http.spawn_ms"] + m["http.server_self_ms"]
        + m["http.close_ms"] + m["http.return_ms"] + m["frontend.self_ms"] + m.pop("admission.per_request_ms")
        + m.pop("respcache.per_request_ms") + proxy_glue + rpc_parts
    )
    m["breakdown.gap_share"] = (
        (client_ms - m["breakdown.sum_ms"]) / client_ms if client_ms else 0.0
    )
    m["trace.overhead_req_per_s"] = traced_rps - untraced_rps
    m["gen.lag_p99_ms"] = _ms(lags, 0.99)
    n_jobs = len(report["jobs"])
    m["journal.records_per_job"] = report["journal_records"] / n_jobs if n_jobs else 0.0
    m["journal.bytes_per_job"] = report["journal_bytes"] / n_jobs if n_jobs else 0.0
    return {name: m[name] for name in LAYER_UNITS}


# -- one run --------------------------------------------------------------------------------


def _slice(schedule: list | None, t0: float, t1: float) -> list | None:
    """The schedule items due in ``[t0, t1)``, re-based to ``t0``."""
    if schedule is None:
        return None
    return [[item[0] - t0, *item[1:]] for item in schedule if t0 <= item[0] < t1]


def measure(gen: Generator, system: System, seconds: float, items: list | None,
            trace: bool, profile: bool = False) -> dict:
    """Seed, warm up and measure one deployment, then run the checks.

    Traced, the window's first half runs plain and the second traced, and
    the seed jobs get a traced window of their own.  Profiled, the
    profile starts afresh after the warm-up.
    """
    system.pin()
    if trace:
        system.call("trace_start")
    gen.seed_jobs(system)
    part: dict = {"seed_summary": system.call("trace_stop")} if trace else {}
    warm, _ = gen.window(WARMUP_S, kind="poll")
    if warm.failed:
        raise BenchError("warm-up failed: " + "; ".join(warm.errors))
    if profile:
        system.call("profile_reset")
    if trace:
        half = seconds / 2
        part["plain"], part["plain_s"] = gen.window(half, _slice(items, 0.0, half))
        gen.mixed_jobs = []  # jobs_per_s covers the traced half only
        system.call("trace_start")
        tally, elapsed = gen.window(seconds - half, _slice(items, half, seconds))
        part["summary"] = system.call("trace_stop")
    else:
        tally, elapsed = gen.window(seconds, items)
    report = system.call("report")
    failures = gen.check(system, report)
    jobs_ok = tally.jobs_ok
    if gen.workload == "mixed":
        table = {j["id"]: j for j in report["jobs"]}
        jobs_ok = sum(
            1 for job in gen.mixed_jobs
            if table.get(job, {}).get("stdout") == gen.expected[job]
        )
        lag_p99 = _ms(tally.lags, 0.99)
        if lag_p99 > LAG_BOUND_MS:
            failures.append(f"generator fell behind: lag p99 {lag_p99:.1f} ms "
                            f"> {LAG_BOUND_MS} ms")
    part.update(tally=tally, elapsed=elapsed, report=report, failures=failures,
                jobs_ok=jobs_ok, checked=len(gen.students))
    return part


def run(name: str, seed: int, seconds: float, trace: bool, live: list,
        profile: bool = False) -> dict:
    """One run of workload ``name``; returns the result object.

    A timed run sets the deployment up ``SETUPS`` times (``setup_s`` is
    the median) and measures each deployment for an equal share of
    ``seconds``; the published figures are medians over them.  Traced and
    profiled runs set up one deployment and measure it for the whole
    window.  Every system process started is appended to ``live``.
    """
    setups = 1 if trace or profile else SETUPS
    profile_path = str(OUT / f"{name}-profile.txt") if profile else ""
    schedule = workload.mixed_schedule(seed, seconds) if name == "mixed" else None
    span = seconds / setups
    times: list[float] = []
    parts: list[dict] = []
    for d in range(setups):
        gen = Generator(name, seed, live, deployment=d)
        system, setup_s = gen.setup(traced=trace, profile=profile_path)
        times.append(setup_s)
        try:
            parts.append(measure(gen, system, span,
                                 _slice(schedule, d * span, (d + 1) * span), trace,
                                 profile))
        finally:
            system.kill()
            shutil.rmtree(system.journal, ignore_errors=True)
    result = {
        "workload": name,
        "lines": e2e_lines(name, parts, times),
        "failures": [f for p in parts for f in p["failures"] + p["tally"].errors],
        "attempted": sum(p["tally"].requests + p["checked"] for p in parts),
        "failed": sum(p["tally"].failed + len(p["failures"]) for p in parts),
    }
    if trace:
        part = parts[0]
        tally = part["tally"]
        linked = part["summary"]["http.linked"]
        if linked != len(tally.sent):
            result["failures"].append(
                f"the system traced {linked} requests, the generator sent {len(tally.sent)}"
            )
            result["failed"] += 1
        layers = layer_metrics(
            part["summary"], part["seed_summary"], tally,
            part["plain"].requests / part["plain_s"], tally.requests / part["elapsed"],
            part["plain"].lags + tally.lags, part["report"],
        )
        gap = layers["breakdown.gap_share"]
        if name in ("poll", "submit") and abs(gap) > BREAKDOWN_TOLERANCE:
            result["failures"].append(
                f"per-layer breakdown misses the client mean by {gap:.1%} "
                f"(tolerance {BREAKDOWN_TOLERANCE:.0%})"
            )
            result["failed"] += 1
        result["layers"] = layers
        OUT.mkdir(exist_ok=True)
        (OUT / f"{name}-trace.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "seconds": seconds,
             "metrics": layers, "spans_s": part["summary"]}, indent=1))
    if profile:
        result["profile"] = profile_path
    return result


def _print_run(result: dict, trace: bool) -> None:
    print(f"workload {result['workload']}")
    for name, (value, unit, n) in result["lines"].items():
        print(f"  {name:<22} {value:>12.4f} {unit:<7} (n={n})")
    if trace:
        print("  per-layer (traced run):")
        for name, value in result["layers"].items():
            print(f"  {name:<32} {value:>12.4f} {LAYER_UNITS[name]}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end loopback portal benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload for 2 s, traced, one set-up each")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the system process; top-25 lands in perfbench/out")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    sys.path.insert(0, str(ROOT / "src"))
    names = WORKLOADS if args.smoke or args.workload == "all" else (args.workload,)
    trace = args.smoke or bool(args.trace)
    seconds = 2.0 if args.smoke else args.seconds
    live: list[System] = []
    watchdog = threading.Timer(WATCHDOG_S * len(names), _abort, args=(live,))
    watchdog.daemon = True
    watchdog.start()
    results = []
    try:
        for name in names:
            results.append(run(name, args.seed, seconds, trace, live, args.profile))
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        watchdog.cancel()
    units = LAYER_UNITS if trace else E2E_UNITS
    metrics = {}
    for result in results:
        _print_run(result, trace)
        if args.profile:
            print(f"profile: {result['profile']}")
        values = result["layers"] if trace else {k: result["lines"][k][0] for k in units}
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": not failed,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if not failed else 1


def _abort(live: list) -> None:
    """Watchdog: kill every system process and exit without a result."""
    print(f"watchdog: run exceeded {WATCHDOG_S:.0f} s", file=sys.stderr)
    for system in live:
        system.kill()
    os._exit(3)


if __name__ == "__main__":
    raise SystemExit(main())
