"""User store and session store units."""

import hashlib
import hmac

import pytest

from repro._errors import AuthenticationError, AuthorizationError
from repro.portal import SessionStore, UserStore


class TestUserStore:
    @pytest.fixture
    def store(self):
        s = UserStore()
        s.add_user("alice", "password1", full_name="Alice")
        return s

    def test_authenticate_roundtrip(self, store):
        user = store.authenticate("alice", "password1")
        assert user.username == "alice" and user.role == "student"

    def test_wrong_password_rejected(self, store):
        with pytest.raises(AuthenticationError):
            store.authenticate("alice", "wrong")

    def test_unknown_user_same_error_message(self, store):
        try:
            store.authenticate("alice", "wrong")
        except AuthenticationError as e1:
            msg1 = str(e1)
        try:
            store.authenticate("nobody", "wrong")
        except AuthenticationError as e2:
            msg2 = str(e2)
        assert msg1 == msg2  # no username-probing oracle

    def test_duplicate_username_rejected(self, store):
        with pytest.raises(AuthenticationError):
            store.add_user("alice", "other-pass")

    @pytest.mark.parametrize("bad", ["", "1abc", "a", "has space", "x" * 40, "../etc"])
    def test_invalid_usernames_rejected(self, bad):
        with pytest.raises(AuthenticationError):
            UserStore().add_user(bad, "password1")

    def test_short_password_rejected(self):
        with pytest.raises(AuthenticationError):
            UserStore().add_user("bob", "12345")

    def test_unknown_role_rejected(self):
        with pytest.raises(AuthenticationError):
            UserStore().add_user("bob", "password1", role="superuser")

    def test_password_change(self, store):
        store.change_password("alice", "password1", "newpass99")
        with pytest.raises(AuthenticationError):
            store.authenticate("alice", "password1")
        assert store.authenticate("alice", "newpass99")

    def test_password_change_requires_old(self, store):
        with pytest.raises(AuthenticationError):
            store.change_password("alice", "wrong", "newpass99")

    def test_disabled_user_cannot_login(self, store):
        store.disable("alice")
        with pytest.raises(AuthenticationError):
            store.authenticate("alice", "password1")

    def test_distinct_salts_per_user(self):
        s = UserStore()
        a = s.add_user("u1", "samepass")
        b = s.add_user("u2", "samepass")
        assert a.salt != b.salt and a.password_hash != b.password_hash


class TestPermissions:
    def test_role_matrix(self):
        s = UserStore()
        student = s.add_user("stu", "password1", role="student")
        instructor = s.add_user("prof", "password1", role="instructor")
        admin = s.add_user("root1", "password1", role="admin")
        assert student.can("submit_job") and not student.can("view_all_jobs")
        assert instructor.can("view_all_jobs") and not instructor.can("manage_users")
        assert admin.can("manage_users") and admin.can("grade")

    def test_require_raises(self):
        s = UserStore()
        student = s.add_user("stu", "password1")
        with pytest.raises(AuthorizationError):
            student.require("manage_users")
        student.require("submit_job")  # no raise

    def test_unknown_action_rejected(self):
        s = UserStore()
        u = s.add_user("stu", "password1")
        with pytest.raises(AuthorizationError):
            u.can("launch_missiles")


class TestSessionStore:
    def test_create_get_roundtrip(self):
        store = SessionStore()
        token = store.create({"username": "alice"})
        assert store.get(token) == {"username": "alice"}

    def test_forged_token_rejected(self):
        store = SessionStore()
        token = store.create({"username": "alice"})
        sid, _, sig = token.partition(".")
        forged = sid + "." + ("0" * len(sig))
        with pytest.raises(AuthenticationError):
            store.get(forged)

    def test_token_from_other_store_rejected(self):
        token = SessionStore().create({"u": "x"})
        with pytest.raises(AuthenticationError):
            SessionStore().get(token)  # different secret

    def test_token_signature_is_the_truncated_sha256_hmac_of_its_id(self):
        secret = bytes(range(32))
        store = SessionStore(secret=secret)
        # twice: signing one token leaves the store's keyed state as it was
        for username in ("alice", "bob"):
            sid, _, sig = store.create({"username": username}).partition(".")
            assert sig == hmac.new(secret, sid.encode(), hashlib.sha256).hexdigest()[:32]

    def test_destroy_logs_out(self):
        store = SessionStore()
        token = store.create({"u": "x"})
        assert store.destroy(token)
        assert store.peek(token) is None
        assert not store.destroy(token)  # idempotent

    def test_expiry_with_fake_clock(self):
        clock = {"t": 0.0}
        store = SessionStore(ttl_s=100.0, now_fn=lambda: clock["t"])
        token = store.create({"u": "x"})
        clock["t"] = 99.0
        assert store.get(token)  # refreshes expiry (sliding window)
        clock["t"] = 198.0
        assert store.get(token)  # still alive thanks to the refresh
        clock["t"] = 400.0
        with pytest.raises(AuthenticationError, match="expired"):
            store.get(token)

    def test_sweep_removes_expired(self):
        clock = {"t": 0.0}
        store = SessionStore(ttl_s=10.0, now_fn=lambda: clock["t"])
        store.create({"u": "a"})
        store.create({"u": "b"})
        clock["t"] = 50.0
        assert store.sweep() == 2
        assert len(store) == 0

    def test_sessions_isolated(self):
        store = SessionStore()
        t1 = store.create({"username": "a"})
        t2 = store.create({"username": "b"})
        assert store.get(t1)["username"] == "a"
        assert store.get(t2)["username"] == "b"


class TestUserStorePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        store = UserStore()
        store.add_user("alice", "password1", role="instructor", full_name="Alice A")
        store.add_user("bob", "hunter22")
        store.disable("bob")
        path = tmp_path / "users.json"
        store.save(path)

        restored = UserStore.load(path)
        user = restored.authenticate("alice", "password1")
        assert user.role == "instructor" and user.full_name == "Alice A"
        with pytest.raises(AuthenticationError):
            restored.authenticate("bob", "hunter22")  # still disabled
        assert restored.usernames() == ["alice", "bob"]

    def test_saved_file_not_world_readable(self, tmp_path):
        import stat

        store = UserStore()
        store.add_user("alice", "password1")
        path = tmp_path / "users.json"
        store.save(path)
        mode = stat.S_IMODE(path.stat().st_mode)
        assert mode & 0o077 == 0

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "users.json"
        path.write_text('{"version": 99, "users": []}')
        with pytest.raises(AuthenticationError):
            UserStore.load(path)

    def test_passwords_not_stored_in_clear(self, tmp_path):
        store = UserStore()
        store.add_user("alice", "supersecretpw")
        path = tmp_path / "users.json"
        store.save(path)
        assert "supersecretpw" not in path.read_text()


class TestSessionStorePersistence:
    """Portal restart: live sessions survive, dead ones stay dead."""

    def test_snapshot_restore_keeps_tokens_valid(self):
        store = SessionStore()
        t_alice = store.create({"username": "alice"})
        t_bob = store.create({"username": "bob"})
        restored = SessionStore.restore(store.snapshot())
        # the *same cookies* authenticate on the restarted portal —
        # secret and sids both survived the round trip.
        assert restored.get(t_alice)["username"] == "alice"
        assert restored.get(t_bob)["username"] == "bob"
        assert len(restored) == 2

    def test_restore_accepts_caller_overrides(self):
        # an explicit ttl_s/secret kwarg must override the snapshot's
        # values, not collide with them (regression: duplicate-kwarg
        # TypeError on SessionStore.load(path, ttl_s=...))
        store = SessionStore(ttl_s=100.0)
        token = store.create({"username": "alice"})
        restored = SessionStore.restore(store.snapshot(), ttl_s=2000.0)
        assert restored.ttl_s == 2000.0
        assert restored.get(token)["username"] == "alice"

    def test_expired_sessions_not_resurrected(self):
        clock = {"t": 0.0}
        store = SessionStore(ttl_s=100.0, now_fn=lambda: clock["t"])
        dead = store.create({"u": "dead"})
        clock["t"] = 60.0
        alive = store.create({"u": "alive"})
        clock["t"] = 150.0  # 'dead' expired at 100; 'alive' runs to 160
        snap = store.snapshot()
        assert len(snap["sessions"]) == 1  # expired one never serialized
        restored = SessionStore.restore(snap, now_fn=lambda: clock["t"])
        assert restored.peek(alive)["u"] == "alive"
        with pytest.raises(AuthenticationError):
            restored.get(dead)

    def test_remaining_ttl_reanchors_to_new_clock(self):
        old_clock = {"t": 1000.0}
        store = SessionStore(ttl_s=100.0, now_fn=lambda: old_clock["t"])
        token = store.create({"u": "x"})
        old_clock["t"] = 1070.0  # 30s of lease left
        snap = store.snapshot()
        # restarted process: monotonic clock starts over near zero
        new_clock = {"t": 5.0}
        restored = SessionStore.restore(snap, now_fn=lambda: new_clock["t"])
        new_clock["t"] = 20.0
        assert restored.peek(token) is not None   # refreshed: sliding TTL
        restored2 = SessionStore.restore(snap, now_fn=lambda: new_clock["t"])
        new_clock["t"] = 55.0  # re-anchored at 20 with 30s left: dead at 50
        assert restored2.peek(token) is None

    def test_save_load_roundtrip_with_tight_permissions(self, tmp_path):
        import stat

        store = SessionStore()
        token = store.create({"username": "alice", "role": "student"})
        path = tmp_path / "sessions.json"
        assert store.save(path) == 1
        mode = stat.S_IMODE(path.stat().st_mode)
        assert mode & 0o077 == 0  # holds the HMAC secret
        restored = SessionStore.load(path)
        assert restored.get(token)["role"] == "student"

    def test_wrong_snapshot_version_rejected(self):
        with pytest.raises(AuthenticationError):
            SessionStore.restore({"version": 99, "secret": "00", "sessions": []})

    def test_restored_store_keeps_minting_verifiable_tokens(self):
        store = SessionStore()
        old = store.create({"u": "old"})
        restored = SessionStore.restore(store.snapshot())
        fresh = restored.create({"u": "fresh"})
        # both directions: old cookie works on new store, and a token the
        # restarted portal mints verifies against the persisted secret.
        assert restored.get(old)["u"] == "old"
        assert SessionStore.restore(store.snapshot()).ttl_s == store.ttl_s
        assert restored.get(fresh)["u"] == "fresh"
