"""The system under test: the portal deployment on loopback, in its own process.

``run.py`` starts this script, hands it the class roster and then drives
it through one JSON command per stdin line; every reply is one JSON line
on stdout.  The deployment is the same for every workload:

* the cluster, scheduler and admission stanzas come from the spec
  document ``deployment.json`` through the ``repro.spec`` materialisers;
* a :class:`JobDistributor` with a :class:`SubprocessBackend` and a
  :class:`JobJournal` on ``DurabilityStore(fsync="interval")``;
* a :class:`FrontendFleet` of two workers (``reply_latency_s=0``) served
  over HTTP by ``repro.portal.server.start_fleet``.

Commands: ``trace_start`` / ``trace_stop`` (traced deployments only; the
stop reply carries the per-layer metrics), ``profile_reset`` (profiled
deployments only: forget the set-up), ``report`` (waits for every
job to finish, then returns the live job table and the shed and timeout
counters) and ``stop`` (clean shutdown; the journal is closed so it can
be recovered offline).

    python3 perfbench/system.py --journal DIR [--traced] [--profile FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

SPEC = HERE / "deployment.json"
N_WORKERS = 2


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _add_users(users, roster: list) -> None:
    """Create the class on two threads (PBKDF2 releases the GIL)."""
    halves = [roster[0::2], roster[1::2]]
    threads = [
        threading.Thread(target=lambda part=part: [users.add_user(u, p) for u, p in part])
        for part in halves
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class Deployment:
    """One loopback deployment and its command handlers."""

    def __init__(self, journal_dir: str, roster: list, traced: bool) -> None:
        from repro.cluster.backends import SubprocessBackend
        from repro.durability import DurabilityStore, JobJournal
        from repro.portal.frontend import FrontendFleet
        from repro.portal.server import start_fleet
        from repro.spec import build_admission, build_distributor, ensure_valid

        doc = json.loads(SPEC.read_text())
        ensure_valid(doc, source=str(SPEC))
        self.store = DurabilityStore(journal_dir, fsync="interval")
        self.dist = build_distributor(
            doc, SubprocessBackend(), check=False, journal=JobJournal(self.store)
        )
        self.fleet = FrontendFleet(
            self.dist,
            n_workers=N_WORKERS,
            admission_factory=lambda _i: build_admission(doc),
            reply_latency_s=0.0,
        )
        _add_users(self.fleet.users, roster)
        self.fleet.start()
        self.tracer = None
        if traced:
            from spans import TracedApp, Tracer

            self.tracer = Tracer(self.fleet, self.dist)
            apps = [TracedApp(w, self.tracer) for w in self.fleet.workers]
        else:
            apps = self.fleet.workers
        self.servers = [httpd for httpd, _ in start_fleet(apps)]

    def urls(self) -> list:
        return [list(httpd.server_address[:2]) for httpd in self.servers]

    # -- commands ----------------------------------------------------------------
    def trace_start(self) -> dict:
        self.tracer.start(self.servers)
        return {"ok": True}

    def trace_stop(self) -> dict:
        return self.tracer.stop()

    def report(self) -> dict:
        drained = self.dist.wait_all(timeout=60.0)
        jobs = [
            {
                "id": job.id,
                "owner": job.request.owner,
                "state": job.state.value,
                "stdout": job.stdout.read_since(0)[0],
            }
            for job in list(self.dist.jobs.values())
        ]
        shed = sum(
            w.admission.rejected_429 + w.admission.rejected_503
            for w in self.fleet.workers
            if w.admission is not None
        )
        stats = self.store.stats
        return {
            "drained": drained,
            "jobs": jobs,
            "admission_shed": shed,
            "rpc_timeouts": sum(w.proxy.rpc.timeouts for w in self.fleet.workers),
            "journal_records": stats["records"],
            "journal_bytes": stats["bytes"],
        }

    def stop(self) -> dict:
        for httpd in self.servers:
            httpd.shutdown()
            httpd.server_close()
        self.fleet.stop()
        self.dist.wait_all(timeout=10.0)
        self.store.close()
        return {"stopped": True}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description="loopback portal deployment")
    parser.add_argument("--journal", required=True, help="fresh journal directory")
    parser.add_argument("--traced", action="store_true",
                        help="serve through the per-layer span wrappers")
    parser.add_argument("--profile", default="",
                        help="write a cProfile self-time top-25 here on stop")
    args = parser.parse_args(argv)
    profiler = None
    if args.profile:
        from profiling import ThreadProfiler

        profiler = ThreadProfiler()
    roster = json.loads(sys.stdin.readline())["students"]
    deployment = Deployment(args.journal, roster, args.traced)
    _reply({"urls": deployment.urls()})
    for line in sys.stdin:
        cmd = json.loads(line)["cmd"]
        if cmd == "profile_reset":
            profiler.reset()
            _reply({"ok": True})
            continue
        if cmd == "stop":
            out = deployment.stop()
            if profiler is not None:
                profiler.write_top(args.profile, 25)
            _reply(out)
            return 0
        _reply(getattr(deployment, cmd)())
    deployment.stop()  # the load generator went away: shut down cleanly anyway
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
