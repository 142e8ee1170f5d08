"""Signed session tokens.

Tokens are ``<session_id>.<hmac>`` where the HMAC (SHA-256, server
secret) covers the id — so a client cannot forge or splice ids.  Session
payloads live server-side with sliding expiry.

Scale notes: the table is sharded (id-hashed) across independent locks
so concurrent polling clients refresh their expiries without serialising
on one mutex, and :meth:`maybe_sweep` — wired into the portal's request
path — reclaims expired sessions opportunistically (every N operations
or T seconds, whichever comes first) so the table cannot grow without
bound under churn.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import secrets
import threading
import time
from typing import Any, Callable, Optional

from repro._errors import AuthenticationError

__all__ = ["SessionStore"]

_N_SHARDS = 16


class SessionStore:
    """In-memory session table with signed ids, TTL, and sharded locks."""

    def __init__(
        self,
        secret: bytes | None = None,
        ttl_s: float = 3600.0,
        now_fn: Callable[[], float] = time.monotonic,
        sweep_every: int = 512,
        sweep_interval_s: float = 60.0,
    ) -> None:
        self._secret = secret or secrets.token_bytes(32)
        #: keyed once: :meth:`_sign` copies it, where ``hmac.digest`` would
        #: look the digest up by name and key a fresh HMAC on every call
        self._keyed = hmac.new(self._secret, digestmod=hashlib.sha256)
        self.ttl_s = ttl_s
        self._now = now_fn
        self._shards: list[dict[str, tuple[float, dict[str, Any]]]] = [
            {} for _ in range(_N_SHARDS)
        ]
        self._locks = [threading.Lock() for _ in range(_N_SHARDS)]
        # opportunistic-sweep pacing (own lock: never contends with lookups)
        self.sweep_every = sweep_every
        self.sweep_interval_s = sweep_interval_s
        self._sweep_lock = threading.Lock()
        self._ops_since_sweep = 0
        self._last_sweep = self._now()
        self.swept_total = 0
        #: replication hooks (scale-out): fired after a *local* create or
        #: destroy commits, outside the shard lock.  ``apply_create`` /
        #: ``apply_destroy`` deliberately do NOT fire them, so replicated
        #: events never echo back onto the bus.
        self.on_create: Optional[Callable[[str, dict[str, Any]], None]] = None
        self.on_destroy: Optional[Callable[[str], None]] = None
        self.replicated_in = 0

    def _shard_of(self, sid: str) -> int:
        # sids are hex (validated in _verify); two chars spread 0..255
        return int(sid[:2], 16) % _N_SHARDS

    # -- token crypto -------------------------------------------------------
    def _sign(self, sid: str) -> str:
        mac = self._keyed.copy()
        mac.update(sid.encode())
        return mac.hexdigest()[:32]

    def _token(self, sid: str) -> str:
        return f"{sid}.{self._sign(sid)}"

    def _verify(self, token: str) -> str:
        sid, _, sig = token.partition(".")
        # compare_digest raises TypeError on non-ASCII str; any token that
        # survives it was signed by us, so sid is guaranteed hex.
        try:
            if not sid or not sig or not hmac.compare_digest(sig, self._sign(sid)):
                raise AuthenticationError("invalid session token")
        except TypeError:
            raise AuthenticationError("invalid session token") from None
        return sid

    # -- lifecycle -------------------------------------------------------------
    def create(self, data: dict[str, Any]) -> str:
        """New session; returns the signed token for the cookie."""
        sid = secrets.token_hex(16)
        i = self._shard_of(sid)
        with self._locks[i]:
            self._shards[i][sid] = (self._now() + self.ttl_s, dict(data))
        if self.on_create is not None:
            self.on_create(sid, dict(data))
        return self._token(sid)

    def get(self, token: str) -> dict[str, Any]:
        """Session data for ``token``; refreshes the sliding expiry.

        Raises :class:`AuthenticationError` for forged, unknown or
        expired tokens.
        """
        sid = self._verify(token)
        i = self._shard_of(sid)
        with self._locks[i]:
            shard = self._shards[i]
            if sid not in shard:
                raise AuthenticationError("unknown session (logged out?)")
            expires, data = shard[sid]
            now = self._now()
            if now > expires:
                del shard[sid]
                raise AuthenticationError("session expired")
            shard[sid] = (now + self.ttl_s, data)
            return data

    def peek(self, token: str) -> Optional[dict[str, Any]]:
        """Like :meth:`get` but returns None instead of raising."""
        try:
            return self.get(token)
        except AuthenticationError:
            return None

    def destroy(self, token: str) -> bool:
        """Log out; returns whether a session was removed."""
        try:
            sid = self._verify(token)
        except AuthenticationError:
            return False
        i = self._shard_of(sid)
        with self._locks[i]:
            removed = self._shards[i].pop(sid, None) is not None
        if removed and self.on_destroy is not None:
            self.on_destroy(sid)
        return removed

    # -- replication (scale-out front-end tier) -----------------------------
    def apply_create(self, sid: str, data: dict[str, Any]) -> None:
        """Install a session replicated from a peer store (no hook echo).

        Peers share the HMAC secret, so the token a peer minted for this
        sid verifies here too — a student may log in on worker 0 and
        poll through worker 3.  Sliding-expiry refreshes stay
        replica-local (each replica restarts the TTL on its own reads).
        """
        i = self._shard_of(sid)
        with self._locks[i]:
            self._shards[i][sid] = (self._now() + self.ttl_s, dict(data))
        self.replicated_in += 1

    def apply_destroy(self, sid: str) -> None:
        """Remove a session destroyed on a peer store (no hook echo)."""
        i = self._shard_of(sid)
        with self._locks[i]:
            self._shards[i].pop(sid, None)
        self.replicated_in += 1

    # -- durability (portal restart) ----------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Serialisable state for a portal restart.

        Expiries are stored as *remaining* seconds, not absolute times —
        the default clock is ``time.monotonic``, whose epoch does not
        survive a process restart.  The HMAC secret rides along (hex) so
        tokens already in students' cookies keep verifying; persist the
        result only through :meth:`save`, which clamps file permissions.
        Already-expired sessions are skipped, never resurrected.
        """
        now = self._now()
        sessions = []
        for i in range(_N_SHARDS):
            with self._locks[i]:
                items = list(self._shards[i].items())
            for sid, (expires, data) in items:
                remaining = expires - now
                if remaining <= 0:
                    continue
                sessions.append(
                    {"sid": sid, "remaining_s": remaining, "data": dict(data)}
                )
        return {
            "version": 1,
            "secret": self._secret.hex(),
            "ttl_s": self.ttl_s,
            "sessions": sessions,
        }

    @classmethod
    def restore(
        cls,
        snapshot: dict[str, Any],
        now_fn: Callable[[], float] = time.monotonic,
        **kwargs: Any,
    ) -> "SessionStore":
        """Rebuild a store from :meth:`snapshot` output.

        Remaining TTLs are re-anchored to the new process's clock; any
        session whose remaining time hit zero while the portal was down
        stays dead (the snapshot records how long it *had*, not a new
        lease).
        """
        if snapshot.get("version") != 1:
            raise AuthenticationError(
                f"unsupported session snapshot version {snapshot.get('version')!r}"
            )
        # snapshot values are defaults: an explicit ``secret=``/``ttl_s=``
        # from the caller wins instead of raising a duplicate-kwarg error
        kwargs.setdefault("secret", bytes.fromhex(snapshot["secret"]))
        kwargs.setdefault("ttl_s", float(snapshot.get("ttl_s", 3600.0)))
        store = cls(now_fn=now_fn, **kwargs)
        now = now_fn()
        for entry in snapshot.get("sessions", ()):
            remaining = float(entry.get("remaining_s", 0.0))
            if remaining <= 0:
                continue
            sid = entry["sid"]
            i = store._shard_of(sid)
            with store._locks[i]:
                store._shards[i][sid] = (now + remaining, dict(entry.get("data", {})))
        return store

    def save(self, path: str | os.PathLike) -> int:
        """Write :meth:`snapshot` to ``path`` (0600 — it holds the secret).

        Returns the number of live sessions persisted.
        """
        snap = self.snapshot()
        tmp = f"{path}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        with os.fdopen(fd, "w") as f:
            json.dump(snap, f, separators=(",", ":"))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        return len(snap["sessions"])

    @classmethod
    def load(
        cls,
        path: str | os.PathLike,
        now_fn: Callable[[], float] = time.monotonic,
        **kwargs: Any,
    ) -> "SessionStore":
        """Rebuild a store from a :meth:`save` file."""
        with open(path) as f:
            return cls.restore(json.load(f), now_fn=now_fn, **kwargs)

    # -- reclamation -------------------------------------------------------------
    def sweep(self) -> int:
        """Drop expired sessions; returns how many were removed."""
        removed = 0
        for i in range(_N_SHARDS):
            now = self._now()
            with self._locks[i]:
                shard = self._shards[i]
                dead = [sid for sid, (exp, _) in shard.items() if now > exp]
                for sid in dead:
                    del shard[sid]
                removed += len(dead)
        self.swept_total += removed
        return removed

    def maybe_sweep(self) -> int:
        """Opportunistic sweep, paced for the request path.

        Cheap to call on every request: runs a full :meth:`sweep` only
        once per ``sweep_every`` calls or ``sweep_interval_s`` seconds.
        """
        with self._sweep_lock:
            self._ops_since_sweep += 1
            due = (
                self._ops_since_sweep >= self.sweep_every
                or self._now() - self._last_sweep >= self.sweep_interval_s
            )
            if not due:
                return 0
            self._ops_since_sweep = 0
            self._last_sweep = self._now()
        return self.sweep()

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)
