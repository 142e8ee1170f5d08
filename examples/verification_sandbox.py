#!/usr/bin/env python3
"""The verification sandbox: find, replay, and disprove concurrency bugs.

A tour of `repro.interleave` as a teaching-scale model checker:

1. find a lost-update bug by exploring schedules, and *replay* the exact
   failing interleaving from its choice prefix;
2. watch the Eraser-style lockset detector point at the racy variable;
3. compare DFS vs BFS exploration on a shallow AB/BA deadlock;
4. prove (within a schedule budget) that the fixed readers-writer lock
   never admits two writers.

Run:  python examples/verification_sandbox.py
"""

from repro.interleave import (
    STOP_EXHAUSTED,
    FixedPolicy,
    Nop,
    Scheduler,
    SharedVar,
    VMutex,
    VRWLock,
    explore,
)


def lost_update_hunt() -> None:
    print("== 1. Hunting a lost update, then replaying it ==")

    def factory(policy):
        sched = Scheduler(policy=policy)
        counter = SharedVar("counter", 0)

        def incrementer(counter):
            for _ in range(2):
                value = yield counter.read()
                yield counter.write(value + 1)

        sched.spawn(incrementer(counter), name="t0")
        sched.spawn(incrementer(counter), name="t1")

        def check(run):
            return None if counter.value == 4 else f"final counter = {counter.value}, expected 4"

        return sched, check

    result = explore(factory, max_schedules=400)
    print(f"   explored {result.schedules_run} schedules: "
          f"{len(result.violations)} violating, races: {len(result.races)}")
    prefix, message = result.violations[0]
    print(f"   first violation: {message}  (choice prefix {prefix})")
    if result.races:
        print(f"   detector says: {result.races[0]}")

    # Deterministic replay of that exact interleaving:
    sched, check = factory(FixedPolicy(list(prefix)))
    sched.run()
    print(f"   replayed prefix -> {check(None)} (reproduced deterministically)")


def dfs_vs_bfs() -> None:
    print("\n== 2. DFS vs BFS on the AB/BA deadlock ==")

    def factory(policy):
        sched = Scheduler(policy=policy, detect_races=False)
        a, b = VMutex("A"), VMutex("B")

        def forward():
            yield a.acquire(); yield Nop(); yield b.acquire()
            yield b.release(); yield a.release()

        def backward():
            yield b.acquire(); yield Nop(); yield a.acquire()
            yield a.release(); yield b.release()

        sched.spawn(forward(), name="p")
        sched.spawn(backward(), name="q")
        return sched, None

    for strategy in ("dfs", "bfs"):
        result = explore(factory, max_schedules=500, stop_on_first=True, strategy=strategy)
        print(f"   {strategy}: found a deadlock after {result.schedules_run} schedule(s)"
              f" — {result.deadlocks[0][1].split(';')[1].strip()}")


def rwlock_proof() -> None:
    print("\n== 3. Bounded proof: the RW lock admits at most one writer ==")

    def factory(policy):
        sched = Scheduler(policy=policy, detect_races=False)
        rw = VRWLock()
        inside = SharedVar("writers_inside", 0)
        violations = []

        def writer(rw, inside):
            yield from rw.acquire_write()
            before = yield inside.fetch_add(1)
            if before != 0:
                violations.append(before)
            yield Nop("writing")
            yield inside.fetch_add(-1)
            yield from rw.release_write()

        def reader(rw):
            yield from rw.acquire_read()
            yield Nop("reading")
            yield from rw.release_read()

        for i in range(2):
            sched.spawn(writer(rw, inside), name=f"w{i}")
        sched.spawn(reader(rw), name="r0")

        def check(run):
            return f"writer overlap: {violations}" if violations else None

        return sched, check

    result = explore(factory, max_schedules=2000)
    print(f"   {result.summary()}")
    exhausted = result.stop_reason == STOP_EXHAUSTED
    verdict = "HOLDS (within the bound)" if result.clean and exhausted else (
        "holds for every explored schedule" if result.clean else "VIOLATED"
    )
    print(f"   mutual exclusion of writers: {verdict}")


def main() -> None:
    lost_update_hunt()
    dfs_vs_bfs()
    rwlock_proof()


if __name__ == "__main__":
    main()
