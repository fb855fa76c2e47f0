"""Prio end-to-end benchmark: a real PrioTransportServer over loopback TCP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sum-bulk --seed 1 --seconds 20 \
        --trace 0

This process is the load generator.  It prepares every upload with
``PrioClient``, then drives a separate server process
(``serverproc.py``: two logical Prio servers, inline executor) over two
TCP connections.  Every decision is checked against the decision the
schedule expects, and the published aggregate, decoded with
``afe.decode``, against the plain statistic of the accepted values.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run.  The last line of standard output
is one JSON object; the line before it is a report with quartiles,
sample counts, decision counts and the host.  The exit code is 0 only
if every check passed.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy  # noqa: E402

from repro.ec.p256 import Point  # noqa: E402
from repro.field import backend_name  # noqa: E402
from repro.protocol.client import PrioClient  # noqa: E402
from repro.transport import Status, TransportClient  # noqa: E402

from loadgen import Item, Sender, add_replays, corrupt  # noqa: E402
from spans import CLIENT_LAYERS, SERVER_LAYERS, Tracer  # noqa: E402
from workloads import N_SERVERS, WORKLOADS  # noqa: E402

#: a run that takes longer than this is cut and fails
RUN_DEADLINE_S = 170.0


class ServerControl:
    """The server process and its JSON-lines command pipe."""

    def __init__(self, workload: str, seed: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serverproc.py"),
             "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        )
        if "ready" not in self._read():
            raise RuntimeError("server process did not start")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process exited")
        return json.loads(line)

    def call(self, op: str, **args) -> dict:
        self.proc.stdin.write(json.dumps(dict(args, op=op)) + "\n")
        self.proc.stdin.flush()
        return self._read()

    async def acall(self, op: str, **args) -> dict:
        """``call`` without blocking the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, lambda: self.call(op, **args))

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def summary(values) -> dict:
    """Median, quartiles and sample count."""
    values = list(values)
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values, p: int) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[p - 1]


class Run:
    """One run: client phase, then set-ups and passes, then checks."""

    def __init__(self, args) -> None:
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.trace = bool(args.trace)
        (self.pool_size, self.n_single, self.n_pass,
         self.n_setup) = self.workload.sizes(args.seconds)
        if self.trace:
            self.n_pass = self.n_setup = 2
        self.afe = self.workload.make_afe()
        self.server = ServerControl(args.workload, args.seed)
        keys = self.server.call("keys")["box_keys"]
        self.client = PrioClient(
            self.afe, N_SERVERS,
            server_box_keys=[Point(x, y) for x, y in keys] or None,
            rng=random.Random(f"client:{args.seed}"),
        )
        self.values_rng = random.Random(f"values:{args.seed}")
        self.mutate_rng = random.Random(f"mutate:{args.seed}")
        self.client_tracer = Tracer() if self.trace else None
        #: single-value prepare times, one list per probe
        self.single_ms: "list[list[float]]" = []
        self.report: dict = {"not_measured": []}
        self.executor = ""

    # -- client phase ---------------------------------------------------

    def _frame(self, submission) -> bytes:
        return TransportClient.frame_submission(
            submission, sealed=self.workload.encrypt
        )

    @contextlib.contextmanager
    def _client_trace(self):
        """Trace the client layers inside the block (traced runs only)."""
        tracer = self.client_tracer
        if tracer is None:
            yield
            return
        tracer.install(CLIENT_LAYERS)
        tracer.wrap_attribute(self.afe, "encode", "afe.encode")
        try:
            yield
        finally:
            tracer.uninstall()

    def prepare(self) -> None:
        """Prepare the warm-up batch and the pool, timing the pool's
        batches; corrupt, frame and add replays."""
        w = self.workload
        b = w.batch_size
        rng = self.values_rng
        warm_values = [w.make_value(rng) for _ in range(b)]
        self.warmup = [
            Item(self._frame(s), s.submission_id, Status.ACCEPTED, v)
            for s, v in zip(
                self.client.prepare_submissions(warm_values), warm_values
            )
        ]
        n_batches = self.pool_size // b
        submissions, values = [], []
        self.batch_seconds = 0.0
        for _ in range(n_batches):
            batch = [w.make_value(rng) for _ in range(b)]
            with self._client_trace():
                t0 = time.perf_counter()
                submissions += self.client.prepare_submissions(batch)
                self.batch_seconds += time.perf_counter() - t0
            values += batch
        self.n_batched = self.n_traced = n_batches * b
        self.n_prepared = len(submissions)
        self.upload_bytes = statistics.fmean(
            s.upload_bytes for s in submissions
        )
        expected = []
        for n, s in enumerate(submissions):
            # exactly one corrupted upload per block of corrupt_every
            if n % w.corrupt_every == 0:
                block = min(w.corrupt_every, len(submissions) - n)
                target = n + self.mutate_rng.randrange(block)
            if n == target:
                corrupt(self.client, s, self.mutate_rng, w.encrypt)
            expected.append(
                Status.REJECTED if n == target else Status.ACCEPTED
            )
        with self._client_trace():
            frames = [self._frame(s) for s in submissions]
        items = [
            Item(frame, s.submission_id, status,
                 v if status is Status.ACCEPTED else None)
            for frame, s, v, status in zip(
                frames, submissions, values, expected
            )
        ]
        self.items = add_replays(items, w.replay_every, 4 * b,
                                 self.mutate_rng)
        if self.args.mislabel is not None:
            item = self.items[self.args.mislabel % len(self.items)]
            item.expected = (
                Status.ACCEPTED if item.expected is Status.REJECTED
                else Status.REJECTED
            )

    def probe(self, n_single: int) -> None:
        """More client samples, taken between set-ups so that the client
        metrics sample the whole run; these uploads are not served."""
        w = self.workload
        probe_ms = []
        for _ in range(n_single):
            v = w.make_value(self.values_rng)
            t0 = time.perf_counter()
            self.client.prepare_submissions([v])
            probe_ms.append((time.perf_counter() - t0) * 1e3)
        if probe_ms:
            self.single_ms.append(probe_ms)
        for _ in range(w.probe_batches):
            batch = [w.make_value(self.values_rng)
                     for _ in range(w.batch_size)]
            t0 = time.perf_counter()
            self.client.prepare_submissions(batch)
            self.batch_seconds += time.perf_counter() - t0
            self.n_batched += w.batch_size

    # -- set-ups and passes ---------------------------------------------

    async def one_setup(self, serve: bool, traced: bool) -> dict:
        """Set up a fresh deployment; with ``serve``, serve the schedule
        and publish.  Set-up time ends when the warm-up batch is decided."""
        call = self.server.acall
        t0 = time.perf_counter()
        reply = await call("setup")
        self.executor = reply["executor"]
        conns = [
            await TransportClient.connect_tcp(reply["host"], reply["port"])
            for _ in range(2)
        ]
        try:
            warm = Sender(self.warmup)
            await warm.closed_loop(conns, range(len(self.warmup)),
                                   len(self.warmup))
            result = {"setup_s": time.perf_counter() - t0, "warm": warm}
            if serve:
                result.update(await self._serve(conns, traced))
        finally:
            for conn in conns:
                await conn.close()
        await call("teardown")
        return result

    async def _serve(self, conns, traced: bool) -> dict:
        call = self.server.acall
        if traced:
            await call("trace", on=True)
        before = await call("mark")
        sender = Sender(self.items)
        everything = range(len(self.items))
        if self.workload.rate is None:
            await sender.closed_loop(conns, everything,
                                     2 * self.workload.batch_size)
        else:
            await sender.open_loop(conns, everything, self.workload.rate)
        after = await call("mark")
        published = await call("publish", repeat=5 if traced else 1)
        spans = None
        if traced:
            await call("trace", on=False)
            OUT.mkdir(exist_ok=True)
            spans = await call("spans", path=str(
                OUT / f"{self.args.workload}.server.jsonl"
            ))
        return {"sender": sender, "published": published,
                "before": before, "after": after, "spans": spans}

    async def setups(self) -> "list[dict]":
        """Every set-up of the run; ``n_pass`` of them serve.  A traced
        run serves twice, untraced then traced, to measure overhead."""
        runs = []
        for n in range(self.n_setup):
            self.probe((n + 1) * self.n_single // self.n_setup
                       - (n * self.n_single // self.n_setup))
            # passes spread evenly among the set-ups, so that the probes
            # between them spread over the run's time
            runs.append(await self.one_setup(
                serve=n * self.n_pass % self.n_setup < self.n_pass,
                traced=self.trace and n == self.n_setup - 1,
            ))
        return runs

    # -- checks and metrics -----------------------------------------------

    def check(self, runs: "list[dict]") -> dict:
        """Compare each status with its expected decision, and each
        pass's decoded aggregate with the statistic of its accepted
        values."""
        counts = dict.fromkeys(
            ("attempted", "mismatched", "timeouts", "accepted", "rejected",
             "busy", "aggregate_mismatches"), 0)
        for one in runs:
            accepted_values = []
            pairs = [(self.warmup, one["warm"])]
            if "sender" in one:
                pairs.append((self.items, one["sender"]))
            for items, sender in pairs:
                for item, status in zip(items, sender.status):
                    counts["attempted"] += 1
                    if status is None:
                        counts["timeouts"] += 1
                    elif status is not item.expected:
                        counts["mismatched"] += 1
                    if status is Status.ACCEPTED:
                        counts["accepted"] += 1
                        if item.value is not None:
                            accepted_values.append(item.value)
                    elif status is Status.REJECTED:
                        counts["rejected"] += 1
                    elif status is Status.BUSY:
                        counts["busy"] += 1
            if "published" in one:
                sigma = self.afe.field.vec_sum(one["published"]["shares"])
                decoded = self.afe.decode(sigma, len(accepted_values))
                if decoded != self.workload.reference(accepted_values):
                    counts["aggregate_mismatches"] += 1
        counts["failed"] = counts["mismatched"] + counts["timeouts"]
        return counts

    def end_to_end(self, runs, checked) -> dict:
        # The host's speed changes every few seconds.  A percentile of
        # all of a run's samples pooled flips between the fast and the
        # slow state from run to run, so percentiles are taken per probe
        # and per pass and then averaged over the run.
        passes = [one for one in runs if "sender" in one]
        latency_p50, latency_p99, latencies_ms = [], [], []
        decided = serve_seconds = 0
        for one in passes:
            sender = one["sender"]
            done = [i for i, s in enumerate(sender.status) if s is not None]
            decided += len(done)
            serve_seconds += (
                max(sender.end[i] for i in done) - min(sender.start)
            )
            pass_ms = [(sender.end[i] - sender.start[i]) * 1e3 for i in done]
            latency_p50.append(statistics.median(pass_ms))
            latency_p99.append(percentile(pass_ms, 99))
            latencies_ms += pass_ms
        single_ms = [x for probe in self.single_ms for x in probe]
        setup = summary(one["setup_s"] for one in runs)
        self.report["samples"] = {
            "setup_s": setup,
            "client_prepare_ms": summary(single_ms),
            "client_prepare_ms_p90_pooled": percentile(single_ms, 90),
            "decision_latency_ms": summary(latencies_ms),
            "decision_latency_ms_p99_pooled": percentile(latencies_ms, 99),
        }
        return {
            "setup_s": (setup["median"], "s"),
            "client_prepare_ms_p50": (statistics.fmean(
                statistics.median(probe) for probe in self.single_ms
            ), "ms"),
            "client_prepare_ms_p90": (statistics.fmean(
                percentile(probe, 90) for probe in self.single_ms
            ), "ms"),
            "client_batch_subs_per_s": (
                self.n_batched / self.batch_seconds, "1/s"),
            "serve_subs_per_s": (decided / serve_seconds, "1/s"),
            "decision_latency_ms_p50": (statistics.fmean(latency_p50), "ms"),
            "decision_latency_ms_p99": (statistics.fmean(latency_p99), "ms"),
            "upload_bytes_per_sub": (self.upload_bytes, "bytes"),
            "server_peak_rss_mb": (
                passes[-1]["published"]["peak_rss_mb"], "MB"),
            "ok_ratio": (
                1.0 - checked["failed"] / checked["attempted"], "ratio"),
        }

    def per_layer(self, runs) -> dict:
        metrics: dict = {}
        not_measured = self.report["not_measured"]

        def layer(name, seconds, n, calls, unit="us", scale=1e6):
            if not calls:
                not_measured.append(name)
            metrics[f"{name}_{unit}"] = (
                seconds * scale / n if calls else 0.0, unit)

        tracer = self.client_tracer
        client_self = tracer.self_times()
        for name in dict.fromkeys(
            [name for name, _ in CLIENT_LAYERS] + ["afe.encode"]
        ):
            # framing covers every upload, preparing only the batches
            n = (self.n_prepared if name == "transport.framing.encode"
                 else self.n_traced)
            layer("protocol.client.self" if name == "protocol.client"
                  else name, client_self.get(name, 0.0), n,
                  tracer.calls(name))
        not_measured.extend(sorted(tracer.missing))

        plain, traced = runs[0], runs[1]
        spans = traced["spans"]

        def delta(key, one=traced):
            return one["after"][key] - one["before"][key]

        decided = delta("submissions")
        for name in dict.fromkeys(n for n, _ in SERVER_LAYERS):
            calls = spans["calls"][name]
            seconds = spans["self_s"].get(name, 0.0)
            if name == "protocol.server.publish":
                layer(name, seconds, calls, calls, unit="ms", scale=1e3)
            else:
                layer(name, seconds, decided, calls)
        not_measured.extend(spans["missing"])
        # CPU time, not wall time: in the open loop the server idles
        # between uploads, and idle time is no layer's self time.
        cpu = delta("cpu")
        top = spans["top_level_s"]
        rejected_snip = delta("rejected_snip")
        late_ms = [x * 1e3 for x in traced["sender"].late]
        if not late_ms:
            not_measured.append("loadgen.late_ms_p99")
        plain_cpu = delta("cpu", plain) / delta("submissions", plain)
        metrics.update({
            "transport.server.self_us": (
                max(0.0, cpu - top) * 1e6 / decided, "us"),
            "transport.server.batches": (delta("batches"), "count"),
            "transport.server.batch_fill_mean": (
                decided / max(1, delta("batches")), "subs"),
            "transport.server.max_pending": (
                traced["after"]["max_pending"], "count"),
            "transport.server.pauses": (delta("pauses"), "count"),
            "transport.server.shed": (delta("shed"), "count"),
            "protocol.server.rejected_receive": (
                delta("rejected") - rejected_snip, "count"),
            "protocol.server.rejected_snip": (rejected_snip, "count"),
            "protocol.server.replayed": (delta("replayed"), "count"),
            "protocol.server.accept_ratio": (
                delta("accepted") / max(1, decided), "ratio"),
            "protocol.server.broadcast_elements_per_sub": (
                delta("broadcast")
                / max(1, delta("accepted") + rejected_snip), "count"),
            "loadgen.late_ms_p99": (
                percentile(late_ms, 99) if late_ms else 0.0, "ms"),
            "trace.coverage": (top / cpu, "ratio"),
            "trace.overhead_ratio": ((cpu / decided) / plain_cpu, "ratio"),
        })
        return metrics

    def finish(self, runs: "list[dict]") -> int:
        checked = self.check(runs)
        if self.trace:
            metrics = self.per_layer(runs)
            self.client_tracer.write_jsonl(
                OUT / f"{self.args.workload}.client.jsonl", "client"
            )
        else:
            metrics = self.end_to_end(runs, checked)
        correct = (
            checked["failed"] == 0 and checked["aggregate_mismatches"] == 0
        )
        self.report.update({
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": int(self.trace),
            "host": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "backend": backend_name(),
                "executor": self.executor,
                "machine": platform.machine(),
            },
            "sizes": {
                "pool": self.n_prepared, "schedule": len(self.items),
                "warmup": len(self.warmup), "singles": self.n_single,
                "passes": self.n_pass, "setups": self.n_setup,
                "batch_size": self.workload.batch_size,
            },
            "decisions": checked,
            "failed_ratio": checked["failed"] / checked["attempted"],
        })
        result = {
            "correct": correct,
            "attempted": checked["attempted"],
            "failed": checked["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
        OUT.mkdir(exist_ok=True)
        name = f"{self.args.workload}.{'trace' if self.trace else 'e2e'}"
        with open(OUT / f"{name}.json", "w", encoding="utf-8") as out:
            json.dump({"report": self.report, "result": result}, out,
                      indent=1)
        print(json.dumps({"report": self.report}))
        print(json.dumps(result))
        return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--mislabel", type=int, default=None,
        help="test hook: flip the expected decision of this schedule "
        "index, which the correctness gate must catch",
    )
    args = parser.parse_args(argv)
    run = Run(args)
    try:
        run.prepare()
        runs = asyncio.run(asyncio.wait_for(run.setups(), RUN_DEADLINE_S))
        return run.finish(runs)
    finally:
        run.server.close()


if __name__ == "__main__":
    sys.exit(main())
