"""Tests for the experiment service: parsing, fairness, HTTP lifecycle.

Covers the serving-layer tentpole end to end: untrusted spec JSON parsed
into validated experiments (hostile input gets a 4xx message, never a
stack trace), content-derived job ids deduping identical submissions
across tenants, the weighted-round-robin queue with per-tenant quotas,
the submit → poll → stream → cancel HTTP lifecycle over a real socket,
and the acceptance scenario: two tenants submitting overlapping sweeps
concurrently share one computation per distinct point, streamed results
are byte-identical to a direct ``Experiment.sweep`` run, and
``GET /metrics`` reports queue depth, p50/p99 latency, and hit rate.
"""

import http.client
import json
import threading
import time

import pytest

from repro.api import Experiment
from repro.service import (
    ExperimentService,
    FairQueue,
    JobRecord,
    QuotaExceeded,
    ServiceConfig,
    ServiceServer,
    SpecError,
    SpecLimits,
    TenantQuota,
    parse_submission,
)
from repro.service.jobs import States

DEADLINE = 30.0


def ghz_spec(tenant="alice", parties=3, shots=400, seed=7, **extra):
    spec = {
        "tenant": tenant,
        "experiment": {
            "kind": "ghz_fidelity",
            "payload": {"num_parties": parties},
            "options": {"shots": shots, "seed": seed},
        },
    }
    spec.update(extra)
    return spec


def swap_spec(tenant="alice", shots=300, seed=11, **extra):
    spec = {
        "tenant": tenant,
        "experiment": {
            "kind": "swap_test",
            "payload": {"states": [[1, 0], [1, 0]]},
            "options": {"shots": shots, "seed": seed},
        },
    }
    spec.update(extra)
    return spec


FAMILY_KINDS = ("multistate_swap", "nstate_swap", "nparty_hadamard")


def family_spec(kind, tenant="alice", shots=300, seed=3, **experiment_extra):
    spec = {
        "tenant": tenant,
        "experiment": {
            "kind": kind,
            "payload": {"states": [[1, 0], [0, 1]]},
            "options": {"shots": shots, "seed": seed},
        },
    }
    spec["experiment"].update(experiment_extra)
    return spec


# ----------------------------------------------------------------------
# Spec parsing (untrusted JSON -> validated Experiment)
# ----------------------------------------------------------------------
class TestSpecParse:
    def test_minimal_spec_parses(self):
        submission = parse_submission(ghz_spec())
        assert submission.tenant == "alice"
        assert submission.experiment.kind == "ghz_fidelity"
        assert submission.experiment.options.shots == 400
        assert not submission.is_sweep
        assert len(submission.job_id) == 32

    def test_job_id_is_content_derived(self):
        a = parse_submission(ghz_spec(tenant="alice"))
        b = parse_submission(ghz_spec(tenant="bob"))
        assert a.job_id == b.job_id  # tenant does not key the physics
        c = parse_submission(ghz_spec(seed=8))
        assert c.job_id != a.job_id

    def test_pool_options_do_not_key_the_job(self):
        base = ghz_spec()
        pooled = ghz_spec()
        pooled["experiment"]["options"] = {
            "shots": 400, "seed": 7, "workers": 8, "executor": "thread", "cache": True,
        }
        assert parse_submission(base).job_id == parse_submission(pooled).job_id

    def test_sweep_spec_parses(self):
        submission = parse_submission(
            swap_spec(sweep={"over": "p", "values": [0.0, 0.01]})
        )
        assert submission.is_sweep
        assert submission.sweep == {"over": "p", "values": [0.0, 0.01]}

    def test_complex_payload_entries_decode(self):
        spec = {
            "tenant": "t",
            "experiment": {
                "kind": "swap_test",
                "payload": {"states": [
                    [{"__complex__": [0.0, 1.0]}, 0],
                    [1, 0],
                ]},
                "options": {"shots": 100, "seed": 1},
            },
        }
        submission = parse_submission(spec)
        state = submission.experiment.payload["states"][0]
        assert state[0] == 1j

    @pytest.mark.parametrize("mangle,needle", [
        (lambda s: s.pop("tenant"), "tenant"),
        (lambda s: s.update(tenant=""), "tenant"),
        (lambda s: s.update(tenant="x" * 999), "tenant"),
        (lambda s: s.update(tenant="a\x00b"), "printable"),
        (lambda s: s.update(bogus=1), "unknown submission field"),
        (lambda s: s["experiment"].update(kind="nope"), "kind"),
        (lambda s: s["experiment"].update(bogus=1), "unknown experiment field"),
        (lambda s: s["experiment"].update(protocol={"bogus": 1}), "protocol"),
        (lambda s: s["experiment"].update(options={"shots": -5}), "shots"),
        (lambda s: s["experiment"].update(options={"shots": 10**9}), "at most"),
        (lambda s: s["experiment"]["payload"].update(num_parties="three"), "integer"),
        (lambda s: s["experiment"]["payload"].update(num_parties=999), "num_parties"),
        (lambda s: s.update(sweep={"over": "p"}), "sweep"),
        (lambda s: s.update(sweep={"over": "p", "values": []}), "values"),
        (lambda s: s.update(sweep={"over": "bogus_param", "values": [1]}),
         "sweep parameters"),
    ])
    def test_hostile_specs_rejected_with_safe_message(self, mangle, needle):
        spec = ghz_spec()
        mangle(spec)
        with pytest.raises(SpecError) as excinfo:
            parse_submission(spec)
        message = str(excinfo.value)
        assert needle in message
        assert "Traceback" not in message

    def test_non_object_submission_rejected(self):
        with pytest.raises(SpecError):
            parse_submission([1, 2, 3])
        with pytest.raises(SpecError):
            parse_submission({"tenant": "t", "experiment": "nope"})

    def test_ragged_states_rejected(self):
        spec = swap_spec()
        spec["experiment"]["payload"]["states"] = [[1, 0], [1, 0, 0]]
        with pytest.raises(SpecError):
            parse_submission(spec)

    def test_oversized_state_rejected_before_allocation(self):
        spec = swap_spec()
        limits = SpecLimits(max_qubits=2)
        spec["experiment"]["payload"]["states"] = [[0] * 1000, [0] * 1000]
        with pytest.raises(SpecError) as excinfo:
            parse_submission(spec, limits)
        assert "qubit limit" in str(excinfo.value)

    def test_sweep_cardinality_bounded(self):
        spec = swap_spec(sweep={"grid": {"p": [0.0] * 20, "shots": list(range(20))}})
        with pytest.raises(SpecError) as excinfo:
            parse_submission(spec, SpecLimits(max_sweep_points=100))
        assert "grid points" in str(excinfo.value)


# ----------------------------------------------------------------------
# Protocol-family kinds through the untrusted front door
# ----------------------------------------------------------------------
class TestFamilySpecParse:
    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_family_kind_parses_with_distributed_default(self, kind):
        submission = parse_submission(family_spec(kind))
        assert submission.experiment.kind == kind
        # A client that omits the backend still gets the only legal one.
        assert submission.experiment.protocol.backend == "distributed"
        assert len(submission.job_id) == 32

    def test_family_kinds_key_distinct_jobs(self):
        ids = {parse_submission(family_spec(kind)).job_id for kind in FAMILY_KINDS}
        assert len(ids) == 3

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    @pytest.mark.parametrize("mangle,needle", [
        (lambda s: s["experiment"]["payload"].update(states=[[1, 0]] * 40),
         "max_parties"),
        (lambda s: s["experiment"]["payload"].update(states=[[1, 0]]),
         ">= 2 state vectors"),
        (lambda s: s["experiment"]["payload"].update(states=[[1, 0], [1, 0, 0, 0]]),
         "equal width"),
        (lambda s: s["experiment"].update(network={"topology": "moebius"}),
         "topology"),
        (lambda s: s["experiment"].update(protocol={"backend": "monolithic"}),
         "distributed"),
    ])
    def test_hostile_family_specs_rejected_with_safe_message(
        self, kind, mangle, needle
    ):
        spec = family_spec(kind)
        mangle(spec)
        with pytest.raises(SpecError) as excinfo:
            parse_submission(spec)
        message = str(excinfo.value)
        assert needle in message
        assert "Traceback" not in message

    def test_oversized_family_state_rejected_before_allocation(self):
        spec = family_spec("nstate_swap")
        spec["experiment"]["payload"]["states"] = [[0] * 4096, [0] * 4096]
        with pytest.raises(SpecError) as excinfo:
            parse_submission(spec, SpecLimits(max_qubits=4))
        assert "qubit limit" in str(excinfo.value)


# ----------------------------------------------------------------------
# Trace kinds: every run the runner cannot honour is a 4xx at parse time
# ----------------------------------------------------------------------
def trace_spec(kind, payload, shots=300, **experiment_extra):
    spec = {
        "tenant": "alice",
        "experiment": {
            "kind": kind,
            "payload": payload,
            "options": {"shots": shots, "seed": 5},
        },
    }
    spec["experiment"].update(experiment_extra)
    return spec


MIXED = [[0.5, 0], [0, 0.5]]


class TestTraceSpecParse:
    @pytest.mark.parametrize("spec,needle", [
        (trace_spec("swap_test", {"states": [[1, 0], [1, 0]]},
                    protocol={"backend": "distributed"}), "backend"),
        (trace_spec("renyi", {"rho": MIXED, "order": 2},
                    protocol={"backend": "distributed"}), "backend"),
        (trace_spec("swap_test", {"states": [[1, 0], [1, 0]]},
                    protocol={"backend": "compas", "observable": "Z"}), "monolithic"),
        (trace_spec("virtual", {"rho": MIXED, "observable": "Z", "copies": 2},
                    protocol={"backend": "compas"}), "monolithic"),
        (trace_spec("renyi", {"rho": MIXED, "order": 2}, shots=1), "two shots"),
        (trace_spec("trace_sum", {"groups": [[[1, 0], [1, 0, 0, 0]]], "weights": [1.0]}),
         "equal width"),
        (trace_spec("virtual", {"rho": MIXED, "observable": "ZZ", "copies": 2}),
         "one Pauli per qubit"),
    ], ids=[
        "swap_test-distributed",
        "renyi-distributed",
        "observable-compas",
        "virtual-compas",
        "renyi-one-shot",
        "trace_sum-widths",
        "virtual-observable-length",
    ])
    def test_unrunnable_trace_specs_rejected(self, spec, needle):
        with pytest.raises(SpecError) as excinfo:
            parse_submission(spec)
        message = str(excinfo.value)
        assert needle in message
        assert "Traceback" not in message

    def test_runnable_trace_spec_accepted(self):
        submission = parse_submission(
            trace_spec("virtual", {"rho": MIXED, "observable": "Z", "copies": 2})
        )
        assert submission.experiment.kind == "virtual"


# ----------------------------------------------------------------------
# Fair queue: weighted round-robin under per-tenant quotas
# ----------------------------------------------------------------------
def make_record(tenant: str, seed: int) -> JobRecord:
    return JobRecord(submission=parse_submission(ghz_spec(tenant=tenant, seed=seed)))


class TestFairQueue:
    def config(self, **quotas) -> ServiceConfig:
        return ServiceConfig(
            default_quota=TenantQuota(weight=1, max_queued=4, max_running=2),
            quotas={name: quota for name, quota in quotas.items()},
        )

    def test_round_robin_interleaves_tenants(self):
        queue = FairQueue(self.config())
        for seed in range(3):
            queue.submit(make_record("alice", seed))
        queue.submit(make_record("bob", 100))
        first = queue.acquire()
        second = queue.acquire()
        tenants = {first.submission.tenant, second.submission.tenant}
        # Bob's single job is at most one rotation away, despite Alice's
        # three-deep backlog.
        assert tenants == {"alice", "bob"}

    def test_weights_skew_the_rotation(self):
        config = self.config(alice=TenantQuota(weight=2, max_queued=8, max_running=8))
        queue = FairQueue(config)
        for seed in range(4):
            queue.submit(make_record("alice", seed))
        for seed in range(4):
            queue.submit(make_record("bob", 100 + seed))
        order = [queue.acquire().submission.tenant for _ in range(6)]
        # Weight-2 alice drains two per visit to weight-1 bob's one.
        assert order[:3] == ["alice", "alice", "bob"]

    def test_max_queued_rejects(self):
        queue = FairQueue(self.config())
        for seed in range(4):
            queue.submit(make_record("alice", seed))
        with pytest.raises(QuotaExceeded) as excinfo:
            queue.submit(make_record("alice", 99))
        assert "max_queued" in str(excinfo.value)
        # Another tenant is unaffected.
        queue.submit(make_record("bob", 1))

    def test_max_running_skips_tenant_until_release(self):
        queue = FairQueue(self.config())
        for seed in range(4):
            queue.submit(make_record("alice", seed))
        running = [queue.acquire(), queue.acquire()]
        assert queue.acquire() is None  # alice is at max_running=2
        queue.release(running[0])
        assert queue.acquire() is not None

    def test_cancelled_queued_jobs_are_skipped(self):
        queue = FairQueue(self.config())
        records = [make_record("alice", seed) for seed in range(3)]
        for record in records:
            queue.submit(record)
        records[0].mark_cancelled()
        acquired = queue.acquire()
        assert acquired is records[1]
        assert queue.depth() == 1

    def test_depths_report_queued_only(self):
        queue = FairQueue(self.config())
        queue.submit(make_record("alice", 1))
        queue.submit(make_record("bob", 2))
        assert queue.depth() == 2
        assert queue.depths() == {"alice": 1, "bob": 1}
        queue.acquire()
        assert queue.depth() == 1


# ----------------------------------------------------------------------
# HTTP lifecycle over a real socket
# ----------------------------------------------------------------------
class Client:
    """A minimal JSON HTTP client against one ServiceServer."""

    def __init__(self, server: ServiceServer):
        self.port = server.port

    def request(self, method: str, path: str, payload=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=DEADLINE)
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        data = json.loads(response.read())
        conn.close()
        return response.status, data

    def stream_events(self, job_id: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=DEADLINE)
        conn.request("GET", f"/jobs/{job_id}/events")
        response = conn.getresponse()
        assert response.status == 200
        events = [json.loads(line) for line in response.read().splitlines()]
        conn.close()
        return events

    def wait(self, job_id: str):
        deadline = time.time() + DEADLINE
        while time.time() < deadline:
            status, record = self.request("GET", f"/jobs/{job_id}")
            assert status == 200
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} did not finish within {DEADLINE}s")


@pytest.fixture()
def server():
    service = ExperimentService(ServiceConfig(engine_workers=2, concurrency=2))
    with ServiceServer(service) as running:
        yield running


@pytest.fixture()
def client(server):
    return Client(server)


class TestHttpLifecycle:
    def test_submit_poll_result_matches_direct_run(self, client):
        status, submitted = client.request("POST", "/jobs", swap_spec())
        assert status == 202
        assert submitted["state"] == "queued"
        record = client.wait(submitted["job_id"])
        assert record["state"] == "done"
        served = record["result"]["result"]

        direct = Experiment.swap_test([[1, 0], [1, 0]], shots=300, seed=11).run()
        assert served["estimate"] == direct.to_dict()["estimate"]

    def test_events_stream_replays_lifecycle(self, client):
        _, submitted = client.request("POST", "/jobs", ghz_spec())
        client.wait(submitted["job_id"])
        events = [e["event"] for e in client.stream_events(submitted["job_id"])]
        assert events[0] == "queued"
        assert events[-1] == "done"
        assert "result" in events

    def test_malformed_json_is_400(self, client):
        conn = http.client.HTTPConnection("127.0.0.1", client.port, timeout=DEADLINE)
        conn.request("POST", "/jobs", body="{not json")
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "Traceback" not in payload["error"]

    def test_hostile_spec_is_400_without_stack_trace(self, client):
        status, payload = client.request(
            "POST", "/jobs", {"tenant": "t", "experiment": {"kind": "../../etc"}}
        )
        assert status == 400
        assert "Traceback" not in payload["error"]
        assert "kind" in payload["error"]

    def test_unknown_job_is_404(self, client):
        status, payload = client.request("GET", "/jobs/deadbeef")
        assert status == 404
        status, _ = client.request("DELETE", "/jobs/deadbeef")
        assert status == 404

    def test_unknown_path_is_404_and_bad_method_405(self, client):
        status, _ = client.request("GET", "/nope")
        assert status == 404
        status, _ = client.request("DELETE", "/jobs")
        assert status == 405

    def test_healthz(self, client):
        status, payload = client.request("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_oversized_body_is_413(self):
        service = ExperimentService(ServiceConfig(max_body_bytes=64))
        with ServiceServer(service) as running:
            client = Client(running)
            status, payload = client.request("POST", "/jobs", ghz_spec())
            assert status == 413

    def test_identical_concurrent_submissions_dedupe(self, client):
        spec_a = swap_spec(tenant="alice", shots=2000, seed=3)
        spec_b = swap_spec(tenant="bob", shots=2000, seed=3)
        _, first = client.request("POST", "/jobs", spec_a)
        _, second = client.request("POST", "/jobs", spec_b)
        assert first["job_id"] == second["job_id"]
        assert second["deduped"]
        record = client.wait(first["job_id"])
        assert set(record["tenants"]) == {"alice", "bob"}

    def test_cancel_queued_job(self):
        # concurrency=1 and a slow job in front keeps the victim queued.
        service = ExperimentService(ServiceConfig(engine_workers=1, concurrency=1))
        with ServiceServer(service) as running:
            client = Client(running)
            blocker = swap_spec(tenant="alice", shots=60_000, seed=1)
            _, front = client.request("POST", "/jobs", blocker)
            _, victim = client.request(
                "POST", "/jobs", swap_spec(tenant="alice", shots=500, seed=2)
            )
            status, cancelled = client.request("DELETE", f"/jobs/{victim['job_id']}")
            assert status == 200
            record = client.wait(victim["job_id"])
            assert record["state"] == "cancelled"
            # The blocker is unaffected.
            assert client.wait(front["job_id"])["state"] == "done"

    def test_cancel_running_sweep_stops_midway(self, client):
        spec = swap_spec(
            tenant="alice",
            shots=50_000,
            sweep={"over": "p", "values": [0.0, 0.001, 0.002, 0.003, 0.004, 0.005]},
        )
        _, submitted = client.request("POST", "/jobs", spec)
        job_id = submitted["job_id"]
        # Wait for the first streamed point, then cancel.
        deadline = time.time() + DEADLINE
        while time.time() < deadline:
            status, record = client.request("GET", f"/jobs/{job_id}")
            if record["events"] >= 3:  # queued, running, first point
                break
            time.sleep(0.02)
        client.request("DELETE", f"/jobs/{job_id}")
        record = client.wait(job_id)
        assert record["state"] == "cancelled"
        events = client.stream_events(job_id)
        points = [e for e in events if e["event"] == "point"]
        assert 1 <= len(points) < 6  # stopped midway, not after all points

    def test_quota_enforced_under_concurrent_tenants(self):
        config = ServiceConfig(
            engine_workers=1,
            concurrency=1,
            default_quota=TenantQuota(weight=1, max_queued=2, max_running=1),
        )
        service = ExperimentService(config)
        with ServiceServer(service) as running:
            client = Client(running)
            # A slow job occupies the single worker; then fill alice's queue.
            client.request("POST", "/jobs", swap_spec(tenant="alice", shots=60_000))
            statuses = []
            for seed in range(4):
                status, payload = client.request(
                    "POST", "/jobs", swap_spec(tenant="alice", shots=100, seed=seed)
                )
                statuses.append(status)
            assert statuses.count(429) >= 1
            # Bob's quota is independent: he is admitted.
            status, _ = client.request(
                "POST", "/jobs", swap_spec(tenant="bob", shots=100, seed=77)
            )
            assert status == 202


class TestAcceptance:
    """The ISSUE's end-to-end criterion, over one shared service."""

    def test_two_tenants_overlapping_sweeps(self):
        config = ServiceConfig(engine_workers=2, concurrency=2)
        service = ExperimentService(config)
        # The grids overlap on p=0.002 and p=0.004: 2 shared points × 2
        # basis jobs = 4 engine jobs requested by both tenants.  Engine
        # single flight makes the dedupe deterministic whatever the
        # interleaving — the second requester of each shared job either
        # finds it cached, or joins the in-flight computation and is
        # served from the cache when it stores.  Either way: 4 hits,
        # and each distinct job computed (stored) exactly once.
        values_a = [0.0, 0.002, 0.004]
        values_b = [0.002, 0.004, 0.006]
        with ServiceServer(service) as running:
            client = Client(running)
            spec_a = swap_spec(
                tenant="alice", shots=400, seed=5,
                sweep={"over": "p", "values": values_a},
            )
            spec_b = swap_spec(
                tenant="bob", shots=400, seed=5,
                sweep={"over": "p", "values": values_b},
            )
            ids = {}
            errors = []

            def post(name, spec):
                try:
                    status, payload = client.request("POST", "/jobs", spec)
                    assert status == 202, payload
                    ids[name] = payload["job_id"]
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [
                threading.Thread(target=post, args=("alice", spec_a)),
                threading.Thread(target=post, args=("bob", spec_b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert ids["alice"] != ids["bob"]  # different grids, distinct jobs

            record_a = client.wait(ids["alice"])
            record_b = client.wait(ids["bob"])
            assert record_a["state"] == "done"
            assert record_b["state"] == "done"

            # Identical overlapping points were computed once: the shared
            # warm cache shows hits for the duplicated engine jobs, and
            # stores count each distinct job exactly once (6 points, 2
            # basis jobs each, 2 points shared → 8 distinct jobs).
            status, metrics = client.request("GET", "/metrics")
            assert status == 200
            assert metrics["cache"]["hits"] >= 4
            assert metrics["cache"]["stores"] == 8
            assert metrics["cache"]["hit_rate"] > 0.0
            # /metrics reports the required signals.
            assert "queue_depth" in metrics
            assert metrics["latency"]["count"] >= 2
            assert metrics["latency"]["p50"] <= metrics["latency"]["p99"]

            # Streamed per-point results are byte-identical to a direct
            # Experiment.sweep at the same seed.
            direct = Experiment.swap_test([[1, 0], [1, 0]], shots=400, seed=5).sweep(
                over="p", values=values_a
            )
            streamed = [
                event for event in client.stream_events(ids["alice"])
                if event["event"] == "point"
            ]
            assert len(streamed) == len(values_a)
            for event, point in zip(streamed, direct.points):
                assert event["params"] == {"p": point.params["p"]}
                assert event["result"]["estimate"] == point.result.to_dict()["estimate"]
            # And the final envelope holds the full sweep.
            assert record_a["result"]["sweep"]["points"][0]["result"]["estimate"] == (
                direct.points[0].result.to_dict()["estimate"]
            )


class TestServiceUnit:
    """Service-level behaviour not requiring HTTP."""

    def test_failed_job_reports_message_not_traceback(self):
        service = ExperimentService(ServiceConfig())
        # A spec that parses but fails at run time: a compas backend
        # network check tripped by unknown QPU overrides is hard to
        # reach; instead drive a sweep whose derived point is invalid.
        record, _ = service.submit(swap_spec(
            sweep={"over": "shots", "values": [100, -5]},
        ))
        service._execute(record)
        assert record.state == States.FAILED
        assert "Traceback" not in (record.error or "")
        assert record.error

    def test_resubmit_after_failure_requeues(self):
        service = ExperimentService(ServiceConfig())
        spec = swap_spec(sweep={"over": "shots", "values": [100, -5]})
        record, deduped = service.submit(spec)
        assert not deduped
        service._execute(record)
        assert record.state == States.FAILED
        fresh, deduped = service.submit(spec)
        assert not deduped  # failed records do not absorb resubmissions
        assert fresh is not record

    def test_done_record_serves_resubmission(self):
        service = ExperimentService(ServiceConfig())
        record, _ = service.submit(ghz_spec())
        service._execute(record)
        assert record.state == States.DONE
        again, deduped = service.submit(ghz_spec(tenant="bob"))
        assert deduped
        assert again is record
        assert "bob" in again.tenants

    def test_metrics_snapshot_shape(self):
        service = ExperimentService(ServiceConfig())
        record, _ = service.submit(ghz_spec())
        service.queue.acquire()
        service._execute(record)
        snapshot = service.metrics_snapshot()
        assert snapshot["latency"]["count"] == 1
        assert snapshot["jobs_by_state"] == {"done": 1}
        assert "cache" in snapshot and "engine" in snapshot

    def test_retention_cap_drops_oldest_terminal(self):
        config = ServiceConfig(max_jobs_retained=2)
        service = ExperimentService(config)
        records = []
        for seed in range(3):
            record, _ = service.submit(ghz_spec(seed=seed, shots=100))
            service.queue.acquire()
            service._execute(record)
            records.append(record)
        assert len(service.jobs) == 2
        assert service.get(records[0].job_id) is None
        assert service.get(records[2].job_id) is not None


# ----------------------------------------------------------------------
# Bounded per-record event log
# ----------------------------------------------------------------------
class TestBoundedEventLog:
    def test_unbounded_by_default(self):
        record = make_record("alice", seed=1)
        for index in range(100):
            record.publish({"event": "point", "index": index})
        events, cursor, _ = record.events_since(0)
        assert len(events) == 101  # queued + 100 points
        assert cursor == 101
        assert record.dropped == 0

    def test_oldest_events_dropped_at_the_cap(self):
        record = JobRecord(
            submission=parse_submission(ghz_spec()), max_events=5,
        )
        for index in range(12):
            record.publish({"event": "point", "index": index})
        events, cursor, _ = record.events_since(cursor=8)
        # 13 total (queued + 12 points), 5 retained: absolute cursor 8
        # sits inside the retained window [8, 13).
        assert [e["index"] for e in events] == [7, 8, 9, 10, 11]
        assert cursor == 13
        assert record.dropped == 8
        assert record.to_dict()["events"] == 13
        assert record.to_dict()["events_dropped"] == 8

    def test_stale_cursor_sees_synthetic_dropped_event(self):
        record = JobRecord(
            submission=parse_submission(ghz_spec()), max_events=3,
        )
        for index in range(10):
            record.publish({"event": "point", "index": index})
        events, cursor, _ = record.events_since(0)
        assert events[0]["event"] == "dropped"
        assert events[0]["count"] == 8  # absolute indices 0..7 are gone
        assert events[0]["total_dropped"] == record.dropped == 8
        assert [e["index"] for e in events[1:]] == [7, 8, 9]
        # The cursor resumes past the gap: a second read is drop-free.
        later, _, _ = record.events_since(cursor)
        assert later == []

    def test_service_config_bounds_job_records(self):
        service = ExperimentService(ServiceConfig(max_events=2))
        record, _ = service.submit(ghz_spec(shots=100))
        service.queue.acquire()
        service._execute(record)
        # queued/running/result/done is 4 events through a cap of 2.
        view = record.to_dict()
        assert view["events"] == 4
        assert view["events_dropped"] == 2
        events, _, terminal = record.events_since(0)
        assert terminal
        assert events[0]["event"] == "dropped"
        assert [e["event"] for e in events[1:]] == ["result", "done"]

    def test_max_events_config_validated(self):
        with pytest.raises(ValueError, match="max_events"):
            ServiceConfig(max_events=0).validate()
