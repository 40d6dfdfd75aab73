"""The two workloads, each a closed loop driven from this one process.

``cold_family``
    One caller makes repeated passes over the paper's experiment set on a
    prewarmed process-pool engine with the result cache off.  The dense
    kernel and pool dispatch do nearly all the work; protocol build, job
    hashing and the cache do almost none.  Kernel, live-width and
    scheduler changes show here.
``service_mixed``
    One closed-loop client drives an in-process HTTP service.  One
    submission in four is fresh (parse, fair queue, engine compute on a
    noisy monolithic SWAP test on the service's thread pool, cache put);
    three in four repeat a spec that finished during set-up (parse and
    content-id dedupe, no compute).  It is the only workload that
    measures the service layer, and it mixes writes with reads.  A second
    client adds no throughput (fresh computes bound it) and only turns
    the median into a measure of waiting on the interpreter lock.

Every input (states, per-experiment seeds, the submission mix) derives
from the workload seed; the program only ever sees the generated inputs.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from checks import DigestBook, Reference, digest, reference_for
from repro import Engine
from repro.api import Experiment, ExperimentResult, NetworkSpec
from repro.service import ExperimentService, ServiceConfig, ServiceServer
from repro.utils.states import random_pure_state

def pool_workers() -> int:
    """Worker processes for the engines: at most 2, at most the CPUs."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass
class Measurement:
    """What one timed phase produced."""

    latencies: list = field(default_factory=list)
    window_rates: list = field(default_factory=list)
    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def family_ops(seed: int, shots: dict) -> list[tuple[str, Experiment, bool]]:
    """The paper's experiment set as ``(key, experiment, noisy)`` triples."""
    rng = np.random.default_rng(seed)
    pair = [random_pure_state(2, rng) for _ in range(2)]
    triple = [random_pure_state(1, rng) for _ in range(3)]
    seeds = [int(s) for s in rng.integers(2**31, size=5)]
    return [
        (
            "swap_test.monolithic",
            Experiment.swap_test(pair, shots=shots["monolithic"], seed=seeds[0]),
            False,
        ),
        (
            "swap_test.compas",
            Experiment.swap_test(
                triple,
                shots=shots["compas"],
                seed=seeds[1],
                backend="compas",
                network=NetworkSpec(topology="line", link_depolarizing=0.01),
            ),
            True,
        ),
        (
            "nstate_swap",
            Experiment.nstate_swap(triple, shots=shots["nstate"], seed=seeds[2]),
            False,
        ),
        (
            "nparty_hadamard",
            Experiment.nparty_hadamard(triple, shots=shots["nparty"], seed=seeds[3]),
            False,
        ),
        (
            "ghz_fidelity",
            Experiment.ghz_fidelity(64, p=0.002, shots=shots["ghz"], seed=seeds[4]),
            True,
        ),
    ]


COLD_SHOTS = {"monolithic": 10_000, "compas": 1_000, "nstate": 2_000, "nparty": 200, "ghz": 20_000}
SMOKE_SHOTS = {"monolithic": 400, "compas": 40, "nstate": 100, "nparty": 10, "ghz": 1_000}


class Workload:
    """Set-up, one timed closed loop, teardown."""

    name = ""

    def __init__(self, seed: int, smoke: bool, book: DigestBook):
        self.seed = seed
        self.smoke = smoke
        self.book = book
        self.engine = None

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()

    def check(self, m: Measurement, key: str, result, reference: Reference) -> None:
        problem = reference.problem(result.estimate) or self.book.problem(
            key, digest(result)
        )
        if problem is not None:
            m.fail(f"{key}: {problem}")


class ColdFamily(Workload):
    name = "cold_family"

    def setup(self) -> None:
        self.ops = family_ops(self.seed, SMOKE_SHOTS if self.smoke else COLD_SHOTS)
        self.refs = {key: reference_for(exp, noisy) for key, exp, noisy in self.ops}
        self.engine = Engine(workers=pool_workers(), executor="process", cache=False)
        self.engine.prewarm()

    def measure(self, seconds: float) -> Measurement:
        # Whole passes only, so every window carries the same work mix.
        m = Measurement()
        start = time.perf_counter()
        while m.elapsed < seconds or not m.window_rates:
            pass_start = time.perf_counter()
            for key, experiment, _ in self.ops:
                m.attempted += 1
                t = time.perf_counter()
                try:
                    result = experiment.run(engine=self.engine)
                except Exception as exc:  # a raised operation is a failed one
                    m.fail(f"{key}: raised {exc!r}")
                    continue
                m.latencies.append(time.perf_counter() - t)
                self.check(m, key, result, self.refs[key])
            now = time.perf_counter()
            m.window_rates.append(len(self.ops) / (now - pass_start))
            m.elapsed = now - start
        return m


class _Client:
    """Blocking HTTP/1.1 calls against the in-process server."""

    def __init__(self, port: int):
        self.port = port
        self.errors = 0  # non-2xx answers

    def call(self, method: str, path: str, body=None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            status, data = response.status, response.read()
        finally:
            conn.close()
        if not 200 <= status < 300:
            self.errors += 1
        return status, data

    def run(self, spec: dict) -> tuple[dict, ExperimentResult | None, str | None]:
        """POST one spec, stream its events to the end; (reply, result, problem)."""
        status, body = self.call("POST", "/jobs", spec)
        if status != 202:
            return {}, None, f"POST /jobs answered {status}"
        reply = json.loads(body)
        status, body = self.call("GET", f"/jobs/{reply['job_id']}/events")
        if status != 200:
            return reply, None, f"GET events answered {status}"
        events = [json.loads(line) for line in body.splitlines() if line.strip()]
        if not events or events[-1].get("event") != "done":
            last = events[-1] if events else None
            return reply, None, f"job did not end done: {last}"
        results = [e["result"] for e in events if e.get("event") == "result"]
        if len(results) != 1:
            return reply, None, f"{len(results)} result events"
        return reply, ExperimentResult.from_dict(results[0]), None


class ServiceMixed(Workload):
    name = "service_mixed"
    tenant = "client0"
    distinct_repeats = 16
    min_ops = 1000

    def spec(self, tenant: str, seed: int) -> dict:
        return {
            "tenant": tenant,
            "experiment": {
                "kind": "swap_test",
                "payload": {"states": self.states},
                "noise": {"p": 0.002},
                "options": {"shots": self.shots, "seed": seed},
            },
        }

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.states = [
            [{"__complex__": [float(a.real), float(a.imag)]} for a in random_pure_state(1, rng)]
            for _ in range(2)
        ]
        self.shots = 200 if self.smoke else 2_000
        self.repeat_seeds = [int(s) for s in rng.integers(2**31, size=self.distinct_repeats)]
        self.fresh_base = int(rng.integers(2**31))
        self.plan = rng.integers(self.distinct_repeats, size=1 << 16)
        self.service = ExperimentService(ServiceConfig())
        self.engine = self.service.engine
        self.server = ServiceServer(self.service).start()
        self.client = _Client(self.server.port)
        self.noisy = Reference()
        # Operation indices run on across phases, so a traced phase after
        # an untraced one submits fresh seeds, not the earlier phase's.
        self.counter = itertools.count()
        primed = Measurement()
        for index, seed in enumerate(self.repeat_seeds):
            _, result, problem = self.client.run(self.spec("primer", seed))
            if problem is None:
                self.check(primed, f"repeat/{index}", result, self.noisy)
            else:
                primed.fail(problem)
        if primed.failed:
            raise RuntimeError(f"service priming failed: {primed.problems}")

    def teardown(self) -> None:
        self.server.stop()

    def measure(self, seconds: float) -> Measurement:
        # Windows of 40 operations: 10 fresh computes and 30 dedupes each.
        m = Measurement()
        self.fresh_ids: list[str] = []
        self.deduped = 0
        errors_before = self.client.errors
        min_ops = 20 if self.smoke else self.min_ops
        ops_per_window = 4 if self.smoke else 40
        start = time.perf_counter()
        window_start = start
        while m.elapsed < seconds or m.attempted < min_ops:
            index = next(self.counter)
            m.attempted += 1
            fresh = index % 4 == 0
            if fresh:
                key, seed = f"fresh/{index}", self.fresh_base + index
            else:
                repeat = int(self.plan[index % len(self.plan)])
                key, seed = f"repeat/{repeat}", self.repeat_seeds[repeat]
            t = time.perf_counter()
            try:
                reply, result, problem = self.client.run(self.spec(self.tenant, seed))
            except Exception as exc:  # a raised operation is a failed one
                reply, result, problem = {}, None, f"raised {exc!r}"
            now = time.perf_counter()
            m.elapsed = now - start
            if m.attempted % ops_per_window == 0:
                m.window_rates.append(ops_per_window / (now - window_start))
                window_start = now
            if problem is not None:
                m.fail(f"{key}: {problem}")
                continue
            m.latencies.append(now - t)
            self.deduped += bool(reply.get("deduped"))
            if fresh:
                self.fresh_ids.append(reply["job_id"])
            self.check(m, key, result, self.noisy)
        if not m.window_rates:
            m.window_rates.append(m.completed / m.elapsed)
        self.http_errors = self.client.errors - errors_before
        return m

    def queue_wait_s(self) -> float:
        """Seconds fresh jobs of the last phase waited in the fair queue."""
        total = 0.0
        for job_id in self.fresh_ids:
            record = self.service.get(job_id)
            if record is not None and record.started_at is not None:
                total += record.started_at - record.submitted_at
        return total


def make(name: str, seed: int, smoke: bool, book: DigestBook) -> Workload:
    classes = {cls.name: cls for cls in (ColdFamily, ServiceMixed)}
    return classes[name](seed, smoke, book)
