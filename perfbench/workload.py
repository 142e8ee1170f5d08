"""Seeded inputs of the loopback benchmark: the class roster, job nonces
and the ``mixed`` arrival schedule.

Everything here is a pure function of the workload seed (and, for the
schedule, of the run length): the same seed gives byte-identical inputs,
and the system under test receives only what these functions produce.
No ``repro`` import, so the benchmark's own tests run without the
package.
"""

from __future__ import annotations

import hashlib
import json
import random

__all__ = [
    "MIXED_RATE_PER_S",
    "MIXED_SUBMIT_EVERY",
    "N_STUDENTS",
    "READ_KINDS",
    "echo_argv",
    "mixed_schedule",
    "nonce",
    "roster",
    "schedule_bytes",
    "shell_argv",
    "shell_output",
]

#: the class: every student logs in once during set-up.
N_STUDENTS = 40
#: the ``mixed`` open-loop arrival rate.  A ``mixed`` request costs more
#: than a ``poll`` one (writes invalidate the caches, jobs run beside the
#: portal).  At 150 req/s the generator's one connection keeps up: its
#: p99 lateness stayed within about 12 ms on a 2-core machine.
MIXED_RATE_PER_S = 150.0
#: every this-many-th ``mixed`` arrival is a job submission (the rest are
#: conditional reads): a fixed 10% share, so the mix of a run does not
#: vary with the seed.
MIXED_SUBMIT_EVERY = 10
#: the conditional reads a student cycles through.
READ_KINDS = ("status", "jobs", "describe", "output")


def roster(seed: int, n: int = N_STUDENTS) -> list[tuple[str, str]]:
    """``n`` ``(username, password)`` pairs derived from ``seed``."""
    rng = random.Random(f"roster:{seed}")
    return [
        (f"s{i:02d}x{rng.getrandbits(24):06x}", f"pw-{rng.getrandbits(48):012x}")
        for i in range(n)
    ]


def nonce(seed: int, stream: str, k: int) -> str:
    """The ``k``-th nonce of ``stream`` under ``seed`` (16 hex digits)."""
    data = f"{seed}:{stream}:{k}".encode()
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def echo_argv(token: str) -> list[str]:
    """A one-line native program whose stdout is exactly ``token``."""
    return ["/bin/echo", token]


def shell_argv(token: str, lines: int) -> list[str]:
    """A short shell program printing ``lines`` lines ~10 ms apart."""
    steps = " ".join(str(i) for i in range(1, lines + 1))
    return ["/bin/sh", "-c", f"for i in {steps}; do echo {token}.$i; sleep 0.01; done"]


def shell_output(token: str, lines: int) -> list[str]:
    """The stdout lines :func:`shell_argv` must produce."""
    return [f"{token}.{i}" for i in range(1, lines + 1)]


def mixed_schedule(
    seed: int,
    seconds: float,
    rate_per_s: float = MIXED_RATE_PER_S,
    n_students: int = N_STUDENTS,
) -> list[list]:
    """Seeded Poisson arrivals over ``seconds``: ``[due_s, student, op, nonce, lines]``.

    ``op`` is ``"submit"`` (with a nonce and a line count for its shell
    program) or one of :data:`READ_KINDS` (nonce ``""``, lines 0).  Due
    times are offsets from the start of the run, rounded to the
    microsecond so the serialised schedule is stable.
    """
    rng = random.Random(f"mixed:{seed}")
    out: list[list] = []
    t = 0.0
    k = 0
    while True:
        t += rng.expovariate(rate_per_s)
        if t >= seconds:
            return out
        student = rng.randrange(n_students)
        if len(out) % MIXED_SUBMIT_EVERY == MIXED_SUBMIT_EVERY - 1:
            out.append([round(t, 6), student, "submit", nonce(seed, "mixed", k),
                        rng.randint(2, 4)])
            k += 1
        else:
            out.append([round(t, 6), student, rng.choice(READ_KINDS), "", 0])


def schedule_bytes(schedule: list[list]) -> bytes:
    """Canonical serialisation of a schedule (what the tests compare)."""
    return json.dumps(schedule, separators=(",", ":")).encode()
