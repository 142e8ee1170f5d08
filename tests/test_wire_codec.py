"""The typed wire codec, and the declarations it reads.

``repro.wire`` builds each boundary's checks from type hints: a
``JobRequest`` and its ``RetryPolicy`` from their dataclass fields, a port
RPC from its ``LocalCluster`` signature, an HTTP body from its handler's
keyword-only parameters.  The walk below covers every field of the two
dataclasses, so a field added without a wire type fails here.  The
journal tests pin the records and the snapshot (a ``JobSnapshot`` per
job) to the bytes earlier versions wrote.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import types
import typing

import pytest

from repro.cluster import CallableBackend, ClusterSpec, Grid, SimulatedBackend
from repro.cluster.distributor import JobDistributor
from repro.cluster.job import Job, JobKind, JobRequest, RetryPolicy
from repro.desim import Simulator
from repro.durability import DurabilityStore, JobJournal, job_wire, recover_distributor, replay
from repro.durability.joblog import request_wire
from repro.durability.journal import _HEADER, dumps_compact
from repro.wire import REQUIRED, Fields, WireError, codec
from tests.test_portal_transports import _deploy
from tests.test_settle import ManualBackend


class Colour(enum.Enum):
    RED = "red"
    BLUE = "blue"


@dataclasses.dataclass
class Inner:
    n: int
    tags: frozenset[str] = frozenset()


#: hint → (wire value, decoded value, wrongly typed wire value)
_CASES = [
    (str, "x", "x", 5),
    (int, 3, 3, True),
    (float, 2, 2, "2"),
    (float, 2.5, 2.5, None),
    (bool, True, True, 1),
    (dict, {"a": [1]}, {"a": [1]}, []),
    (dict[str, str], {"A": "b"}, {"A": "b"}, {"A": 1}),
    (list[str], ["a", "b"], ["a", "b"], ["a", 5]),
    (tuple[str, ...], ["a"], ("a",), "a"),
    (frozenset[str], ["b", "a"], frozenset({"a", "b"}), "ab"),
    (Colour, "blue", Colour.BLUE, "green"),
    (typing.Optional[int], 4, 4, "4"),
    (int | None, 4, 4, 4.0),
    (Inner, {"n": 1, "tags": ["t"]}, Inner(1, frozenset({"t"})), {"n": "1"}),
    (list, [1, {"a": None}], [1, {"a": None}], {"a": 1}),
]


class TestCodec:
    @pytest.mark.parametrize("hint,wire,value,wrong", _CASES)
    def test_each_hint_checks_decodes_and_encodes(self, hint, wire, value, wrong):
        c = codec(hint)
        decoded = c.decode(wire)
        assert decoded == value and type(decoded) is type(value)
        back = decoded if c.encode is None else c.encode(decoded)
        assert back == (sorted(wire) if hint == frozenset[str] else wire)
        with pytest.raises(WireError):
            c.decode(wrong)

    def test_a_hint_with_no_wire_form_is_refused_once_at_build(self):
        for hint in (set[str], int | str, bytes, list[int], tuple[str], dict[str, int]):
            with pytest.raises(TypeError):
                codec(hint)

    def test_null_is_absent_and_a_required_field_must_be_present(self):
        fields = Fields([("a", int, 1), ("b", str | None, None), ("c", str, REQUIRED)])
        assert fields.decode({"a": None, "b": None, "c": "x", "other": 1}) == {"c": "x"}
        assert fields.required == ("c",)
        for data in ({}, {"c": None}):
            with pytest.raises(WireError, match="c is required"):
                fields.decode(data)

    def test_a_nullable_field_must_default_to_none(self):
        with pytest.raises(TypeError, match="default to None"):
            Fields([("max_seconds", float | None, 30.0)])

    def test_an_error_names_the_field_inside_nested_values(self):
        fields = Fields([("inner", Inner, REQUIRED)])
        with pytest.raises(WireError, match=r"^inner\.tags\[1\] must be str, got int$"):
            fields.decode({"inner": {"n": 1, "tags": ["a", 5]}})


# -- every JobRequest and RetryPolicy field ------------------------------------

#: a valid (non-default) and a wrongly typed wire value for each field hint
_FIELD_VALUES = {
    str: ("x", 5),
    int: (2, True),
    float: (0.5, "0.5"),
    bool: (True, 0),
    JobKind: ("interactive", 1),
    list[str]: (["a", "b"], ["a", 5]),
    tuple[str, ...]: (["job-1"], "job-1"),
    frozenset[str]: (["failed"], "failed"),
    dict[str, str]: ({"A": "b"}, {"A": 1}),
    RetryPolicy: ({"max_attempts": 2}, 5),
}

#: fields whose hint's valid value is out of their range
_VALID = {"backoff_factor": 1.5}

#: what else a case sets, so that exactly one of argv and sim_duration is given
_ALONG = {("sim_duration", False): {"argv": None}, ("argv", True): {"sim_duration": 1.0}}


def _plain(hint):
    """``X`` for ``X | None``, else the hint itself."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return next(a for a in typing.get_args(hint) if a is not type(None))
    return hint


def _field_cases() -> list[tuple[type, dataclasses.Field, object]]:
    cases = []
    for dc in (JobRequest, RetryPolicy):
        hints = typing.get_type_hints(dc)
        cases += [(dc, f, hints[f.name]) for f in dataclasses.fields(dc) if f.name != "callable"]
    return cases


def _wire(dc, name: str, value) -> dict:
    """A ``JobRequest`` wire dict with field ``name`` of ``dc`` set to ``value``."""
    case = {name: value, **_ALONG.get((name, value is None), {})}
    if dc is RetryPolicy:
        case = {"retry": case}
    return {"name": "j", "argv": ["true"], "kind": "parallel", **case}


def _valid(field: dataclasses.Field, hint):
    return _VALID.get(field.name, _FIELD_VALUES[_plain(hint)][0])


def _default(field: dataclasses.Field):
    return field.default_factory() if field.default is dataclasses.MISSING else field.default


@pytest.mark.parametrize("dc,field,hint", _field_cases(), ids=lambda x: getattr(x, "name", ""))
class TestDeclaredFields:
    def test_the_hint_has_a_wire_form(self, dc, field, hint):
        assert _plain(hint) in _FIELD_VALUES, f"{dc.__name__}.{field.name}: add it to the table"
        codec(hint)

    def test_a_valid_value_round_trips(self, dc, field, hint):
        request = JobRequest.from_wire(_wire(dc, field.name, _valid(field, hint)))
        assert JobRequest.from_wire(request.to_wire()) == request
        holder = request.retry if dc is RetryPolicy else request
        assert getattr(holder, field.name) != _default(field)

    def test_a_wrong_type_names_the_field(self, dc, field, hint):
        with pytest.raises(ValueError, match=field.name):
            JobRequest.from_wire(_wire(dc, field.name, _FIELD_VALUES[_plain(hint)][1]))

    def test_null_takes_the_default(self, dc, field, hint):
        request = JobRequest.from_wire(_wire(dc, field.name, None))
        holder = request.retry if dc is RetryPolicy else request
        assert getattr(holder, field.name) == _default(field)


@pytest.mark.parametrize("kind", ["local", "bus"])
def test_each_wrongly_typed_field_answers_400_and_submits_nothing(kind, tmp_path):
    dep, fleet = _deploy(kind, tmp_path)
    try:
        token = dep.login("alice", "alice-pass")
        for dc, field, hint in _field_cases():
            if field.name == "owner":
                continue  # the session sets it, whatever the body says
            body = _wire(dc, field.name, _FIELD_VALUES[_plain(hint)][1])
            status, _, answer = dep.call("POST", "/api/jobs", body, token)
            assert status == 400 and field.name in answer["error"], (field.name, answer)
        assert dep.dist.jobs == {}
    finally:
        if fleet is not None:
            fleet.stop()


# -- the journal's submit record -------------------------------------------------

_TABLE = [
    JobRequest(name="hi", owner="alice", argv=["/bin/echo", "hi"]),
    JobRequest(name="sim", owner="bob", sim_duration=5, timeout_s=120, priority=-1),
    JobRequest(
        name="lab3", owner="alice", kind=JobKind.PARALLEL, argv=["./a.out", "--n", "4"],
        n_tasks=4, cores_per_task=2, memory_mb_per_task=256, need_gpu=True,
        node_type="gpu", priority=3, timeout_s=30.0, wallclock_timeout_s=120.0,
        est_runtime_s=10.5, after=("job-000001", "job-000002"), after_ok=True,
        stdin_data="5\n", env={"OMP_NUM_THREADS": "2", "LANG": "C"}, workdir="/tmp/w",
        retry=RetryPolicy(max_attempts=2, backoff_base_s=1, retry_on=("timeout", "failed")),
    ),
    JobRequest(name="cat", owner="carol", kind=JobKind.INTERACTIVE, argv=["cat"],
               stdin_data="x\n", retry=RetryPolicy()),
    JobRequest(name="f", owner="dave", callable=lambda: None),
]

#: ``request_wire`` of each ``_TABLE`` entry, as journals already hold it
_JOURNALED = [
    '{"name":"hi","owner":"alice","argv":["/bin/echo","hi"]}',
    '{"name":"sim","owner":"bob","sim_duration":5,"priority":-1,"timeout_s":120}',
    '{"name":"lab3","owner":"alice","kind":"parallel","argv":["./a.out","--n","4"],"n_tasks":4,'
    '"cores_per_task":2,"memory_mb_per_task":256,"need_gpu":true,"node_type":"gpu",'
    '"priority":3,"timeout_s":30.0,"wallclock_timeout_s":120.0,"est_runtime_s":10.5,'
    '"after":["job-000001","job-000002"],"after_ok":true,"stdin_data":"5\\n",'
    '"env":{"OMP_NUM_THREADS":"2","LANG":"C"},"workdir":"/tmp/w","retry":{"max_attempts":2,'
    '"backoff_base_s":1,"backoff_factor":2.0,"backoff_max_s":30.0,"jitter":0.1,'
    '"retry_on":["failed","timeout"]}}',
    '{"name":"cat","owner":"carol","kind":"interactive","argv":["cat"],"stdin_data":"x\\n",'
    '"retry":{"max_attempts":3,"backoff_base_s":0.25,"backoff_factor":2.0,'
    '"backoff_max_s":30.0,"jitter":0.1,"retry_on":["failed","node_lost","timeout"]}}',
    '{"_unrecoverable":"callable","name":"f","owner":"dave","kind":"sequential"}',
]


class TestJournalCompatibility:
    def test_request_wire_is_byte_identical(self):
        assert [dumps_compact(request_wire(r)) for r in _TABLE] == _JOURNALED

    def test_a_simulated_job_journals_the_same_four_records(self, tmp_path):
        """Records per job stay four; bytes per job stay the same, because the
        other three kinds are rendered by hand and never held a request."""
        sim = Simulator()
        store = DurabilityStore(tmp_path, fsync="never")
        dist = JobDistributor(Grid(ClusterSpec.small()), SimulatedBackend(sim),
                              now_fn=lambda: sim.now, journal=JobJournal(store))
        job = dist.submit(_TABLE[1])
        sim.run()
        assert job.terminal
        _, records, _ = DurabilityStore(tmp_path, fsync="never").recover()
        assert [r["kind"] for r in records] == ["submit", "start", "attempt", "seal"]
        assert dumps_compact(records[0]["request"]) == _JOURNALED[1]

    def test_journaled_submit_records_replay_to_equal_requests(self, tmp_path):
        store = DurabilityStore(tmp_path, fsync="never")
        ids = []
        for seq, text in enumerate(_JOURNALED, start=1):
            ids.append(f"job-{seq:06d}")
            store.append({"kind": "submit", "job": ids[-1], "seq": seq, "t": 0.0,
                          "request": json.loads(text)})
            store.append({"kind": "seal", "job": ids[-1], "state": "cancelled", "t": 1.0,
                          "error": None, "exit_code": None})
        store.close()
        sim = Simulator()
        dist, report = recover_distributor(
            DurabilityStore(tmp_path, fsync="never"), Grid(ClusterSpec.small()),
            SimulatedBackend(sim), now_fn=lambda: sim.now,
        )
        assert report.jobs_restored == len(_TABLE)
        for job_id, request in zip(ids[:-1], _TABLE[:-1]):
            assert dist.jobs[job_id].request == request
        stub = dist.jobs[ids[-1]].request
        assert (stub.name, stub.owner, stub.callable) == ("f", "dave", None)


# -- the snapshot: one JobSnapshot per job ---------------------------------------

class _ManualCallables(ManualBackend, CallableBackend):
    """A ``ManualBackend`` that the distributor also hands callable jobs to."""


def _journal_every_state(tmp_path):
    """A journaled distributor left with a job in each state, oldest first."""
    clock = [0.0]
    backend = _ManualCallables()
    dist = JobDistributor(
        Grid(ClusterSpec.small(slaves=1, cores=1)), backend, track_health=False,
        journal=JobJournal(DurabilityStore(tmp_path, fsync="never")),
        now_fn=lambda: clock[0], defer_fn=lambda delay, cb: None,
        retry=RetryPolicy(max_attempts=2, backoff_base_s=0.5, jitter=0.0),
    )

    def at(t, exit_code=None):
        clock[0] = t
        if exit_code is not None:
            backend.handles[-1].finish(exit_code)

    jobs = [dist.submit(JobRequest(name="done", owner="alice", argv=["true"]))]
    at(1.0, 0)
    jobs.append(dist.submit(JobRequest(name="fn", owner="bob", callable=lambda job: None)))
    at(1.0, 0)
    at(2.0)
    jobs.append(dist.submit(JobRequest(name="flaky", owner="alice", argv=["false"])))
    at(3.0, 1)  # requeued until 3.5
    at(4.0)
    dist.dispatch()
    at(5.0, 1)  # no retry left
    jobs.append(dist.submit(JobRequest(name="backoff", owner="alice", argv=["false"])))
    at(6.0, 1)  # requeued until 6.5; the clock stays at 6.0
    jobs.append(dist.submit(JobRequest(name="running", owner="alice", argv=["sleep", "9"])))
    jobs.append(dist.submit(JobRequest(name="queued", owner="carol", argv=["true"], priority=2)))
    jobs.append(dist.submit(JobRequest(name="cancelled", owner="carol", argv=["true"])))
    dist.cancel(jobs[-1].id)
    assert [j.state.value for j in jobs] == [
        "completed", "completed", "failed", "queued", "running", "queued", "cancelled"
    ]
    return dist, jobs


def _payloads(segment) -> list[str]:
    """The JSON payload of each frame of a journal segment, as written."""
    data, off, out = segment.read_bytes(), 0, []
    while off < len(data):
        length, _ = _HEADER.unpack_from(data, off)
        off += _HEADER.size
        out.append(data[off:off + length].decode())
        off += length
    return out


def _canonical(text: str, jobs) -> str:
    """``text`` with each job's id and seq (drawn from the process-wide
    sequence) replaced by its place in ``jobs``: ``J1``, ``S1``, ..."""
    for k, job in enumerate(jobs, 1):
        text = text.replace(f'"{job.id}"', f'"J{k}"').replace(f'"seq":{job.seq},', f'"seq":S{k},')
    return text


#: the snapshot of ``_journal_every_state``, as journals already hold it
_SNAPSHOT_JSON = (
    '{"version":1,"lsn":24,"state":{"jobs":[{"id":"J1","seq":S1,"request":{"name":"done",'
    '"owner":"alice","argv":["true"]},"state":"completed","attempt_epoch":1,'
    '"attempts":[{"no":1,"placement":{"seg-0-n00":1},"started_at":0.0,"finished_at":1.0,'
    '"outcome":"completed","error":null,"exit_code":0,"backoff_s":null}],'
    '"placement":{"seg-0-n00":1},"submitted_at":0.0,"started_at":0.0,"finished_at":1.0,'
    '"not_before":0.0,"error":null,"exit_code":0},{"id":"J2","seq":S2,'
    '"request":{"_unrecoverable":"callable","name":"fn","owner":"bob","kind":"sequential"},'
    '"state":"completed","attempt_epoch":1,"attempts":[{"no":1,"placement":{"seg-0-n00":1},'
    '"started_at":1.0,"finished_at":1.0,"outcome":"completed","error":null,"exit_code":0,'
    '"backoff_s":null}],"placement":{"seg-0-n00":1},"submitted_at":1.0,"started_at":1.0,'
    '"finished_at":1.0,"not_before":0.0,"error":null,"exit_code":0},{"id":"J3","seq":S3,'
    '"request":{"name":"flaky","owner":"alice","argv":["false"]},"state":"failed",'
    '"attempt_epoch":2,"attempts":[{"no":1,"placement":{"seg-0-n00":1},"started_at":2.0,'
    '"finished_at":3.0,"outcome":"failed","error":null,"exit_code":1,"backoff_s":0.5},'
    '{"no":2,"placement":{"seg-0-n00":1},"started_at":4.0,"finished_at":5.0,'
    '"outcome":"failed","error":null,"exit_code":1,"backoff_s":null}],'
    '"placement":{"seg-0-n00":1},"submitted_at":2.0,"started_at":4.0,"finished_at":5.0,'
    '"not_before":3.5,"error":null,"exit_code":1},{"id":"J4","seq":S4,'
    '"request":{"name":"backoff","owner":"alice","argv":["false"]},"state":"queued",'
    '"attempt_epoch":1,"attempts":[{"no":1,"placement":{"seg-0-n00":1},"started_at":5.0,'
    '"finished_at":6.0,"outcome":"failed","error":null,"exit_code":1,"backoff_s":0.5}],'
    '"placement":{},"submitted_at":5.0,"started_at":5.0,"finished_at":null,"not_before":6.5,'
    '"error":null,"exit_code":null},{"id":"J5","seq":S5,"request":{"name":"running",'
    '"owner":"alice","argv":["sleep","9"]},"state":"running","attempt_epoch":1,"attempts":[],'
    '"placement":{"seg-0-n00":1},"submitted_at":6.0,"started_at":6.0,"finished_at":null,'
    '"not_before":0.0,"error":null,"exit_code":null},{"id":"J6","seq":S6,'
    '"request":{"name":"queued","owner":"carol","argv":["true"],"priority":2},'
    '"state":"queued","attempt_epoch":0,"attempts":[],"placement":{},"submitted_at":6.0,'
    '"started_at":null,"finished_at":null,"not_before":0.0,"error":null,"exit_code":null},'
    '{"id":"J7","seq":S7,"request":{"name":"cancelled","owner":"carol","argv":["true"]},'
    '"state":"cancelled","attempt_epoch":0,"attempts":[],"placement":{},"submitted_at":6.0,'
    '"started_at":null,"finished_at":6.0,"not_before":0.0,"error":null,"exit_code":null}]}}'
)

#: the four records of its first job
_DONE_RECORDS = [
    '{"kind":"submit","job":"J1","seq":S1,"t":0.0,"request":{"name":"done","owner":"alice",'
    '"argv":["true"]},"lsn":1}',
    '{"kind":"start","job":"J1","epoch":1,"t":0.0,"placement":{"seg-0-n00":1},"lsn":2}',
    '{"kind":"attempt","job":"J1","attempt":{"no":1,"placement":{"seg-0-n00":1},'
    '"started_at":0.0,"finished_at":1.0,"outcome":"completed","error":null,"exit_code":0,'
    '"backoff_s":null},"lsn":3}',
    '{"kind":"seal","job":"J1","state":"completed","t":1.0,"error":null,"exit_code":0,'
    '"lsn":4}',
]


class TestSnapshotCompatibility:
    def test_a_jobs_records_and_the_snapshot_are_byte_identical(self, tmp_path):
        dist, jobs = _journal_every_state(tmp_path)
        (segment,) = tmp_path.glob("wal-*.log")
        first = [p for p in _payloads(segment) if f'"job":"{jobs[0].id}"' in p]
        assert [_canonical(p, jobs) for p in first] == _DONE_RECORDS
        dist.checkpoint()
        assert _canonical((tmp_path / "snapshot.json").read_text(), jobs) == _SNAPSHOT_JSON

    def test_each_state_round_trips_through_restore(self, tmp_path):
        dist, jobs = _journal_every_state(tmp_path)
        _, records, _ = DurabilityStore(tmp_path, fsync="never").recover()
        dist.checkpoint()
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())["state"]
        assert snapshot["jobs"] == [job_wire(j) for j in jobs]
        for wires in (snapshot["jobs"], replay(None, records).values()):
            for wire in wires:
                assert job_wire(Job.restore(wire)) == wire, wire["request"]["name"]
        assert replay(snapshot, []) == {j.id: job_wire(j) for j in jobs}

    def test_a_lone_submit_replays_to_the_accepted_job(self, tmp_path):
        store = DurabilityStore(tmp_path, fsync="never")
        dist = JobDistributor(Grid(ClusterSpec.small()), ManualBackend(),
                              journal=JobJournal(store), now_fn=lambda: 7.5)
        job = dist._accept(_TABLE[3])
        accepted = job_wire(job)
        store.close()
        _, records, _ = DurabilityStore(tmp_path, fsync="never").recover()
        assert [r["kind"] for r in records] == ["submit"]
        assert replay(None, records) == {job.id: accepted}
