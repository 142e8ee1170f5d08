"""Experiment P3 — horizontal front-end scale-out capacity model.

The scale-out claim behind DESIGN §13: splitting the portal into N
front-end workers that reach one cluster back-end over the message bus
raises aggregate capacity on the cached read mix, because each worker
spends most of a request *waiting* on the cluster control-plane round
trip, and N workers overlap those waits.

The bench builds a :class:`~repro.portal.frontend.FrontendFleet` whose
back-end service models a 2 ms control-plane RTT (each caller sleeps it
outside the service's lock, so waits overlap), drives each worker with
a closed-loop client hammering the cached status/listing mix, and
publishes req/s and p99 latency for 1 → 2 → 4 → 8 workers.

Guard: **aggregate throughput at 4 workers ≥ 2× a single worker.**
p99 is reported per worker count so the saturation knee is visible in
the table (latency rises once the single CPU, not the RTT, is the
bottleneck).

Run under pytest (tier-2: ``-m perf``) or as a script:

    PYTHONPATH=src python benchmarks/bench_scaleout.py [--ci]
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.backends import CallableBackend
from repro.cluster.distributor import JobDistributor
from repro.cluster.grid import Grid
from repro.cluster.spec import ClusterSpec
from repro.portal import PortalClient
from repro.portal.frontend import FrontendFleet

pytestmark = pytest.mark.perf

SPEEDUP_FLOOR = 2.0       # 4 workers vs 1, cached read mix
CI_SPEEDUP_FLOOR = 1.2    # gentler smoke floor (noisy shared runners)
REPLY_LATENCY_S = 0.002   # modeled cluster control-plane RTT
WORKER_COUNTS = (1, 2, 4, 8)
MAX_SAMPLES_PER_WORKER = 50_000


def _make_distributor() -> JobDistributor:
    grid = Grid(ClusterSpec.small(segments=2, slaves=4, cores=2))
    return JobDistributor(grid, CallableBackend())


def _drive_worker(worker, deadline: float, counts: list, samples: list, start: threading.Event):
    """Closed loop: one client per worker on the cached read mix.

    90% cluster-status polls, 10% job listings — both revalidate via a
    tiny RPC and serve 304/body from the worker's own response cache.
    """
    client = PortalClient(app=worker, conditional=True)
    client.login("bench", "bench-pass")
    for _ in range(5):  # warm the cache + client validators
        client.cluster_status()
        client.jobs()
    start.wait()
    n = 0
    lat: list = []
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        if n % 10 == 9:
            client.jobs()
        else:
            client.cluster_status()
        if len(lat) < MAX_SAMPLES_PER_WORKER:
            lat.append(time.perf_counter() - t0)
        n += 1
    counts.append(n)
    samples.extend(lat)


def _measure(n_workers: int, duration_s: float) -> tuple[float, float]:
    """Aggregate req/s and p99 (ms) for one fleet size."""
    fleet = FrontendFleet(
        _make_distributor(), n_workers=n_workers, reply_latency_s=REPLY_LATENCY_S
    ).start()
    try:
        fleet.users.add_user("bench", "bench-pass")
        counts: list = []
        samples: list = []
        start = threading.Event()
        deadline = time.perf_counter() + duration_s + 0.25
        threads = [
            threading.Thread(
                target=_drive_worker,
                args=(worker, deadline, counts, samples, start),
                daemon=True,
            )
            for worker in fleet.workers
        ]
        for t in threads:
            t.start()
        time.sleep(0.25)  # let every thread finish logging in + warming
        start.set()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        rps = sum(counts) / elapsed
        p99_ms = float(np.percentile(np.array(samples), 99) * 1e3)
        return rps, p99_ms
    finally:
        fleet.stop()


def _capacity_table(worker_counts=WORKER_COUNTS, duration_s: float = 1.5):
    rows = []
    for n in worker_counts:
        rps, p99 = _measure(n, duration_s)
        rows.append((n, rps, p99))
    return rows


def _render(rows, floor: float) -> tuple[str, list]:
    base = rows[0][1]
    lines = [
        "Front-end scale-out capacity (cached read mix, "
        f"{REPLY_LATENCY_S * 1e3:.0f} ms modeled cluster RTT)",
        f"guard: multi-worker aggregate req/s >= {floor:.1f}x single worker",
        f"{'workers':>8} {'req/s':>10} {'speedup':>8} {'p99 ms':>8}",
    ]
    metrics = []
    for n, rps, p99 in rows:
        lines.append(f"{n:>8} {rps:>10.0f} {rps / base:>7.2f}x {p99:>8.2f}")
        metrics.append({"metric": f"rps_{n}w", "value": round(rps, 1), "unit": "req/s"})
        metrics.append({"metric": f"p99_{n}w", "value": round(p99, 3), "unit": "ms"})
    by_n = {n: rps for n, rps, _ in rows}
    if 4 in by_n:
        metrics.append(
            {
                "metric": "speedup_4w_over_1w",
                "value": round(by_n[4] / base, 3),
                "unit": "x",
                "threshold": floor,
            }
        )
    return "\n".join(lines), metrics


def test_p3_scaleout_capacity(report):
    rows = _capacity_table()
    text, metrics = _render(rows, SPEEDUP_FLOOR)
    report("p3_scaleout_capacity", text, metrics)
    by_n = {n: rps for n, rps, _ in rows}
    speedup = by_n[4] / by_n[1]
    assert speedup >= SPEEDUP_FLOOR, (
        f"4-worker aggregate {by_n[4]:.0f} req/s is only {speedup:.2f}x the "
        f"single worker's {by_n[1]:.0f} req/s (floor {SPEEDUP_FLOOR}x)"
    )


def test_p3_overload_sheds_not_collapses(report):
    """Saturate one worker's admission tier: throughput must hold.

    A worker with a tiny concurrency budget fed by an aggressive client
    must keep answering — shed requests get fast 503/429 + Retry-After,
    admitted ones complete — instead of queueing without bound.
    """
    from repro.portal.admission import AdmissionController

    fleet = FrontendFleet(
        _make_distributor(),
        n_workers=1,
        reply_latency_s=REPLY_LATENCY_S,
        admission_factory=lambda i: AdmissionController(
            rate_per_s=200.0, burst=50.0, max_inflight=1, queue_limit=1
        ),
    ).start()
    try:
        fleet.users.add_user("bench", "bench-pass")
        worker = fleet.workers[0]
        client = PortalClient(app=worker, conditional=True)
        client.login("bench", "bench-pass")
        served = shed = 0
        hdrs = {"Authorization": f"Bearer {client._token}"}
        deadline = time.perf_counter() + 1.0
        transport = client._transport
        while time.perf_counter() < deadline:
            status, rh, _ = transport.request("GET", "/api/cluster/status", b"", hdrs)
            if status in (429, 503):
                shed += 1
                assert rh.get("Retry-After"), "shed responses must carry Retry-After"
            else:
                served += 1
        stats = worker.stats()["admission"]
        report(
            "p3_overload_shedding",
            "Overload behaviour at max_inflight=1, queue_limit=1 (1s closed loop)\n"
            f"served {served}, shed {shed} "
            f"(429: {stats['rejected_429']}, 503: {stats['rejected_503']}), "
            f"last Retry-After {stats['retry_after_s']:.2f}s",
            [
                {"metric": "served_under_overload", "value": served, "unit": "req",
                 "threshold": 1},
                {"metric": "shed_under_overload", "value": shed, "unit": "req"},
            ],
        )
        assert served > 0, "admission must keep serving under overload"
        assert stats["rejected_429_503"] == shed
    finally:
        fleet.stop()


# -- CLI ----------------------------------------------------------------------


def _publish(name: str, text: str, metrics: list) -> None:
    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import write_result

    write_result(name, text, metrics)


def _ci_slice() -> int:
    """Smoke slice for CI: 1 vs 2 workers, short windows, gentle floor."""
    rows = _capacity_table(worker_counts=(1, 2), duration_s=0.6)
    text, metrics = _render(rows, CI_SPEEDUP_FLOOR)
    _publish("p3_scaleout_ci", text, metrics)
    print(text)
    speedup = rows[1][1] / rows[0][1]
    if speedup < CI_SPEEDUP_FLOOR:
        print(f"FAIL: 2-worker speedup {speedup:.2f}x < {CI_SPEEDUP_FLOOR}x")
        return 1
    print(f"scaleout ci slice: 2-worker speedup {speedup:.2f}x (floor "
          f"{CI_SPEEDUP_FLOOR}x)")
    return 0


def main(argv: list | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ci", action="store_true",
                        help="fast smoke slice (1 vs 2 workers)")
    args = parser.parse_args(argv)
    if args.ci:
        return _ci_slice()
    rows = _capacity_table()
    text, metrics = _render(rows, SPEEDUP_FLOOR)
    _publish("p3_scaleout_capacity", text, metrics)
    print(text)
    by_n = {n: rps for n, rps, _ in rows}
    speedup = by_n[4] / by_n[1]
    if speedup < SPEEDUP_FLOOR:
        print(f"FAIL: 4-worker speedup {speedup:.2f}x < {SPEEDUP_FLOOR}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
