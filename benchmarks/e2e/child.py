"""One workload, one process: set up, answer, verify, check, report.

The runner (``run.py``) starts this file once per workload so that
``peak_rss_mb`` and every in-process cache belong to that workload
alone, with ``REPRO_*`` scrubbed from the environment and BLAS pinned
to one thread.  The last line of standard output is one JSON object.

Everything goes through the public facade: ``PoneglyphDB.open`` ->
``Session.commit / prove / verify / batch_verify / aggregate /
verify_aggregate / serve``.  The timed part runs with the boundary
tracer *not installed*; ``--trace 1`` answers the (shorter) traced job
list twice -- untraced as the overhead baseline, then under the tracer
-- and reports the per-layer metrics instead of the end-to-end ones.

End-to-end times are seconds at reference host speed
(:mod:`hostspeed`); per-layer seconds are plain wall seconds, and
``host.speed_factor`` says how the two relate in that run.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import layers
import metrics
from boundary import BoundaryTracer
from hostspeed import HostSpeedMeter
from stats import median, summary
from workloads import BY_NAME, KEY_BITS, LIMB_BITS, VALUE_BITS, Workload, job_sql

SERVICE_WORKERS = 2
# No single job or join may outlast the driver's 180 s limit on a run.
WAIT_SECONDS = 150.0


class Ops:
    """Operations attempted and failed; a failed output check counts
    like a failed operation, and either fails the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


Window = tuple[float, float]  # an operation's start and end, perf_counter


@dataclass
class Answer:
    """One answered job: the response and what the client saw."""

    sql: str
    response: Any
    prove: Window  # Session.prove, or the job's run on its worker
    latency: Window  # request to response in the client's hands


@dataclass
class Served:
    """What the serving path reports beside the answers."""

    statuses: list[Any]
    stats: dict[str, Any]
    wall_s: float
    workers: int
    journal_records: int
    journal_bytes: int


@dataclass
class Verification:
    """Samples from the verification rounds."""

    verify: list[Window] = field(default_factory=list)
    batch: list[Window] = field(default_factory=list)
    agg: list[Window] = field(default_factory=list)
    agg_encode_s: list[float] = field(default_factory=list)
    finalize_s: list[float] = field(default_factory=list)
    deferred_openings: int = 0
    agg_bytes: int = 0
    rounds: int = 0


def timed(fn: Callable[[], Any]) -> tuple[Any, Window]:
    """Run ``fn`` once after a collection, so a collection the previous
    operation provoked is not billed to this one."""
    gc.collect()
    start = perf_counter()
    out = fn()
    return out, (start, perf_counter())


class Run:
    def __init__(
        self, workload: Workload, seed: int, seconds: float, work_dir: Path,
        spawned_at: float, meter: HostSpeedMeter,
    ):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.meter = meter
        # time.time() stamps (the runner's, JobStatus's) on perf_counter's axis
        self.clock_offset = perf_counter() - time.time()
        self.spawned_at = spawned_at + self.clock_offset
        self.ops = Ops()
        self.setup: dict[str, float] = {}
        self.session: Any = None
        self.db: Any = None
        self.field_backend = ""
        self._services = 0

    # -- set-up ------------------------------------------------------------

    def load(self) -> None:
        """Import the program (timed; a traced run does this before the
        tracer's own imports would hide it)."""
        t0 = perf_counter()
        import repro.api  # noqa: F401
        import repro.tpch.datagen  # noqa: F401

        self.setup["setup.import_s"] = perf_counter() - t0

    def set_up(self) -> None:
        """After :meth:`load`: generate the database, obtain parameters,
        commit.  The cache directory is fresh, so nothing is a disk hit."""
        from repro import PoneglyphDB, ProverConfig
        from repro.algebra import backend
        from repro.tpch import datagen

        t1 = perf_counter()
        self.db = datagen.generate(self.workload.lineitem_rows, seed=self.seed)
        t2 = perf_counter()
        config = ProverConfig(
            k=self.workload.k, limb_bits=LIMB_BITS, value_bits=VALUE_BITS,
            key_bits=KEY_BITS, workers=0, telemetry=False, field_backend="auto",
            cache_dir=self.work_dir / "cache",
        )
        self.session = PoneglyphDB.open(self.db, config)
        self.field_backend = backend.backend_name()  # what "auto" resolved to
        t3 = perf_counter()
        self.session.commit()
        t4 = perf_counter()
        self.setup.update({
            "setup.datagen_s": t2 - t1,
            "setup.params_s": t3 - t2,
            "setup.db_commit_s": t4 - t3,
        })

    def job_list(self, labels: tuple[str, ...]) -> list[str]:
        """The jobs' SQL in the seed's order."""
        sqls = [job_sql(label) for label in labels]
        random.Random(self.seed).shuffle(sqls)
        return sqls

    # -- answering -----------------------------------------------------------

    def answer(self, sqls: list[str]) -> tuple[list[Answer], Window, Served | None]:
        if self.workload.served:
            return self._answer_served(sqls)
        answers = []
        start = perf_counter()
        for sql in sqls:
            response, window = timed(lambda: self.session.prove(sql))
            self.ops.attempted += 1  # a failed prove raises and ends the run
            answers.append(Answer(sql, response, window, window))
        return answers, (start, perf_counter()), None

    def _answer_served(
        self, sqls: list[str]
    ) -> tuple[list[Answer], Window, Served]:
        """Closed loop: each client submits, waits for the reply, then
        takes the next job."""
        from repro.config import ServiceConfig
        from repro.service.journal import replay

        self._services += 1
        journal_path = self.work_dir / f"journal-{self._services}.pdbj"
        pending = deque(enumerate(sqls))
        done: dict[int, tuple[Any, Any, Window]] = {}
        lock = threading.Lock()

        def client(service: Any) -> None:
            while True:
                with lock:
                    if not pending:
                        return
                    index, sql = pending.popleft()
                start = perf_counter()
                try:
                    job_id = service.submit(sql, rng_seed=self.seed * 1000 + index)
                    response = service.wait(job_id, timeout=WAIT_SECONDS)
                except Exception as exc:  # a client must outlive a failed job
                    with lock:
                        self.ops.check(False, f"served job {index}: {exc!r}")
                    continue
                with lock:
                    self.ops.attempted += 1
                    done[index] = (job_id, response, (start, perf_counter()))

        gc.collect()
        service = self.session.serve(
            ServiceConfig(workers=SERVICE_WORKERS), journal_path=journal_path
        )
        with service:
            threads = [
                threading.Thread(target=client, args=(service,), name=f"client-{i}")
                for i in range(self.workload.clients)
            ]
            start = perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=WAIT_SECONDS)
            loop = (start, perf_counter())
            self.ops.check(
                not any(t.is_alive() for t in threads), "client threads finished"
            )
            order = sorted(done)
            statuses = [service.status(done[i][0]) for i in order]
            stats = service.stats()
        offset = self.clock_offset
        answers = [
            Answer(
                sqls[i], done[i][1],
                (status.started_at + offset, status.finished_at + offset),
                done[i][2],
            )
            for i, status in zip(order, statuses)
        ]
        # Read the journal once the service has closed it: a job's last
        # record may land after its waiter woke up.
        journal = replay(journal_path)
        served = Served(
            statuses, stats, loop[1] - loop[0], SERVICE_WORKERS, journal.records,
            journal_path.stat().st_size,
        )
        self._check_served(sqls, answers, served, journal.jobs)
        return answers, loop, served

    def _check_served(
        self, sqls: list[str], answers: list[Answer], served: Served,
        journaled: dict[str, Any],
    ) -> None:
        from repro.service.jobs import JobState
        from repro.service.scheduler import response_digest

        states = served.stats["jobs"]
        self.ops.check(
            states == {JobState.DONE.value: len(sqls)},
            f"all jobs DONE, got {states}",
        )
        self.ops.check(served.stats["shed_count"] == 0, "no job shed")
        digests = {response_digest(a.response) for a in answers}
        self.ops.check(
            len(journaled) == len(sqls)
            and all(
                job.state == "done" and job.digest in digests
                for job in journaled.values()
            ),
            "journal replays every job as done with its proof digest",
        )

    # -- verification ----------------------------------------------------------

    def verify_round(
        self, responses: list[Any], out: Verification, sample_verify: bool
    ) -> None:
        session = self.session
        for response in responses:
            report, window = timed(lambda: session.verify(response))
            self.ops.check(report.accepted, f"verify rejected: {report.reason}")
            if sample_verify:
                out.verify.append(window)
        batch, window = timed(lambda: session.batch_verify(responses))
        self.ops.check(batch.accepted, f"batch_verify rejected: {batch.reason}")
        out.batch.append(window)
        out.finalize_s.append(batch.finalize_seconds)
        out.deferred_openings = batch.deferred_openings

        def aggregate_path() -> Any:
            agg = session.aggregate(responses)
            t0 = perf_counter()
            blob = agg.to_bytes()
            out.agg_encode_s.append(perf_counter() - t0)
            out.agg_bytes = len(blob)
            return session.verify_aggregate(blob)

        report, window = timed(aggregate_path)
        self.ops.check(report.accepted, f"verify_aggregate rejected: {report.reason}")
        out.agg.append(window)
        out.rounds += 1

    def verify_rounds(
        self, responses: list[Any], deadline: float, min_rounds: int
    ) -> Verification:
        """Rounds until ``deadline``, at least ``min_rounds``.  The
        first round's sequential verifies rebuild each verifying key
        and are not sampled."""
        out = Verification()
        while out.rounds < min_rounds or perf_counter() < deadline:
            self.verify_round(responses, out, sample_verify=out.rounds > 0)
        return out

    # -- output checks -----------------------------------------------------------

    def check_outputs(self, answers: list[Answer]) -> None:
        from repro.sql.executor import Executor
        from repro.sql.parser import parse
        from repro.sql.planner import Planner

        expected: dict[str, list[list[int]]] = {}
        for a in answers:
            if a.sql not in expected:
                plan = Planner(self.db).plan(parse(a.sql))
                relation = Executor(self.db).execute(plan)
                expected[a.sql] = [list(r.values()) for r in relation.rows()]
            self.ops.check(
                a.response.result_encoded == expected[a.sql],
                "result equals the plaintext executor's",
            )
            self.ops.check(
                len(a.response.result) >= self.workload.min_groups,
                "query returns at least one group",
            )
        self._check_tamper([a.response for a in answers])

    def _check_tamper(self, responses: list[Any]) -> None:
        """One flipped proof byte must be rejected alone, and inside a
        batch and an aggregate the rejection must name its index."""
        rng = random.Random(self.seed)
        victim = responses[0]
        wire = bytearray(victim.wire_bytes())
        wire[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
        bad = replace(victim, proof_bytes=bytes(wire))
        session = self.session
        self.ops.check(
            not session.verify(bad).accepted, "flipped proof byte rejected"
        )
        pair = [responses[-1], responses[-1]]
        bad_index = rng.randrange(2)
        pair[bad_index] = bad

        def attributed(report: Any) -> bool:
            return (
                not report.accepted
                and len(report.reports) == 2
                and not report.reports[bad_index].accepted
                and report.reports[1 - bad_index].accepted
            )

        self.ops.check(
            attributed(session.batch_verify(pair)),
            "batch_verify rejects and names the tampered entry",
        )
        blob = session.aggregate(pair).to_bytes()
        self.ops.check(
            attributed(session.verify_aggregate(blob)),
            "verify_aggregate rejects and names the tampered entry",
        )

    # -- the two kinds of run ------------------------------------------------------

    def measure(self) -> dict[str, Any]:
        """Tracing off: the end-to-end metrics, in seconds at reference
        host speed."""
        self.load()
        self.set_up()
        start = perf_counter()
        answers, loop, _ = self.answer(self.job_list(self.workload.jobs))
        verification = self.verify_rounds(
            [a.response for a in answers], start + self.seconds,
            self.workload.min_verify_rounds,
        )
        end = perf_counter()
        self.check_outputs(answers)
        seconds = self.meter.seconds
        n = len(answers)
        samples = {
            "prove_s": [seconds(*a.prove) for a in answers],
            "verify_s": [seconds(*w) for w in verification.verify],
            "proof_bytes": [len(a.response.wire_bytes()) for a in answers],
            "batch_verify_per_proof_s": [seconds(*w) / n for w in verification.batch],
            "agg_verify_per_proof_s": [seconds(*w) / n for w in verification.agg],
            "job_latency_p50_s": [seconds(*a.latency) for a in answers],
        }
        values = {name: median(sample) for name, sample in samples.items()}
        values.update({
            "setup_s": seconds(self.spawned_at, start),
            "agg_bytes": verification.agg_bytes,
            "jobs_per_min": 60.0 * n / seconds(*loop),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        return {
            "metrics": metrics.with_units(values, metrics.END_TO_END),
            "samples": {name: summary(v) for name, v in samples.items()},
            "repetitions": {"jobs": n, "verify_rounds": verification.rounds},
            "timed_s": end - start,
            "host_speed_factor": self.meter.factor(start, end),
        }

    def trace(self, trace_path: Path | None) -> dict[str, Any]:
        """One untraced pass as the baseline, one under the boundary
        tracer: the per-layer metrics."""
        self.load()
        tracer = BoundaryTracer()
        tracer.rep = -1  # set-up spans are kept but not summed
        tracer.install()
        try:
            self.set_up()
        finally:
            tracer.uninstall()
        sqls = self.job_list(self.workload.trace_jobs)
        start = perf_counter()
        baseline, _, _ = self.answer(sqls)
        tracer.rep = 0
        tracer.install()
        try:
            answers, _, served = self.answer(sqls)
            tracer.rep = 1
            verification = self.verify_rounds(
                [a.response for a in answers], 0.0, min_rounds=2
            )
        finally:
            tracer.uninstall()
        timed_s = perf_counter() - start
        self.check_outputs(answers)

        values = dict(self.setup)
        values.update(layers.span_metrics(tracer.spans))
        values.update(layers.answer_metrics(answers, baseline))
        values.update(self._circuit_metrics(answers))
        values.update(layers.service_metrics(served))
        values["costmodel.msm_points_ratio"] = (
            values.pop("_fixed_base_points_in_proof")
            / values["costmodel.predicted_msm_points"]
        )
        rounds = sum(
            values[f"prover.{stem}_s"] for stem in layers.ROUNDS.values()
        )
        values["prover.round_coverage"] = rounds / values["prover.create_proof_s"]
        values["recursion.finalize_s"] = sum(verification.finalize_s)
        values["recursion.deferred_openings"] = verification.deferred_openings
        values["aggregate.encode_s"] = sum(verification.agg_encode_s)
        values["cache.hits"] = self.session.cache.stats.hits
        values["cache.misses"] = self.session.cache.stats.misses
        seconds = self.meter.seconds
        values["trace.overhead_frac"] = (
            sum(seconds(*a.prove) for a in answers)
            / sum(seconds(*a.prove) for a in baseline) - 1.0
        )
        values["host.speed_factor"] = self.meter.factor(start, start + timed_s)
        values["trace.targets_missing"] = len(tracer.missing)
        if trace_path is not None:
            tracer.write_jsonl(trace_path, self.workload.name)
        return {
            "metrics": metrics.with_units(values, metrics.PER_LAYER),
            "matrix": layers.stage_kernel_matrix(
                [s for s in tracer.spans if s[layers.REP] >= 0]
            ),
            "targets_missing": tracer.missing,
            "spans": len(tracer.spans),
            "repetitions": {"jobs": len(answers), "verify_rounds": verification.rounds},
            "timed_s": timed_s,
        }

    def _circuit_metrics(self, answers: list[Answer]) -> dict[str, float]:
        """Compile each traced job's query once more through the public
        front end for the static cost model of its circuit."""
        from repro.sql.compiler import QueryCompiler
        from repro.sql.parser import parse
        from repro.sql.planner import Planner
        from repro.telemetry.circuit import CircuitReport

        k = self.workload.k
        by_sql: dict[str, Any] = {}
        for a in answers:
            if a.sql not in by_sql:
                plan = Planner(self.db).plan(parse(a.sql))
                compiled = QueryCompiler(
                    self.db, k, LIMB_BITS, VALUE_BITS, KEY_BITS
                ).compile(plan)
                by_sql[a.sql] = CircuitReport.from_constraint_system(compiled.cs, k)
        return layers.circuit_metrics(
            [a.response.circuit_summary for a in answers],
            [by_sql[a.sql] for a in answers],
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, report setup_s, exit (the runner's extra set-up samples)",
    )
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()
    workload = BY_NAME[args.workload]
    if args.smoke:
        workload = workload.smoke()
    args.work_dir.mkdir(parents=True, exist_ok=True)
    meter = HostSpeedMeter()
    run = Run(workload, args.seed, args.seconds, args.work_dir, spawned_at, meter)
    meter.start()
    try:
        if args.setup_only:
            run.load()
            run.set_up()
            print(json.dumps(
                {"setup_s": meter.seconds(run.spawned_at, perf_counter())}
            ))
            return 0
        result = run.trace(args.trace_file) if args.trace else run.measure()
    finally:
        meter.stop()
        if run.session is not None:
            run.session.close()
    result.update({
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "failures": run.ops.failures,
        "field_backend": run.field_backend,
    })
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
