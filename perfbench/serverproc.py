"""The benchmark's server process: one PrioTransportServer over TCP.

Started by ``run.py`` as ``python perfbench/serverproc.py --workload W
--seed N``.  It holds two logical Prio servers with the inline
executor and takes commands as JSON lines on stdin, answering each
with one JSON line on stdout:

``keys``      build the deployment once and report the box public keys
``setup``     build keys and deployment, start the server, bind a port
``mark``      CPU time and counters, for a measured segment boundary
``trace``     install (``on``) or remove the server-side span wrappers
``publish``   publish every server's aggregate share
``spans``     self times of the traced segment; writes the span log
``teardown``  drain and stop the server, drop the deployment

The process exits when stdin closes.  It sees only the uploads that
arrive on its socket: values, corruptions and replays are chosen by
the load generator.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import random
import resource
import sys
import time

sys.dont_write_bytecode = True
HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.protocol.runner import PrioDeployment  # noqa: E402
from repro.transport import PrioTransportServer, TransportConfig  # noqa: E402

from spans import SERVER_LAYERS, Tracer  # noqa: E402
from workloads import N_SERVERS, WORKLOADS  # noqa: E402


def server_seed(seed: int) -> bytes:
    return random.Random(f"server:{seed}").randbytes(16)


class ServerProcess:
    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.afe = workload.make_afe()
        self.deployment = None
        self.server: "PrioTransportServer | None" = None
        self.tracer: "Tracer | None" = None

    def _build(self):
        # Keys come from the seed, so every set-up builds the same ones.
        return PrioDeployment.create(
            self.afe, N_SERVERS, seed=server_seed(self.seed),
            encrypt=self.workload.encrypt,
            rng=random.Random(f"keys:{self.seed}"),
        )

    async def keys(self, _):
        client = self._build().client
        keys = client.server_box_keys or []
        return {"box_keys": [[k.x, k.y] for k in keys]}

    async def setup(self, _):
        self.deployment = self._build()
        config = TransportConfig(
            batch_size=self.workload.batch_size, executor="inline"
        )
        self.server = PrioTransportServer(self.deployment.servers, config)
        await self.server.start()
        host, port = await self.server.serve_tcp("127.0.0.1", 0)
        return {"host": host, "port": port,
                "executor": self.server.stats.executor}

    async def teardown(self, _):
        await self.server.stop()
        self.server = self.deployment = None
        return {}

    async def mark(self, _):
        """CPU time and counters now; ``max_pending`` restarts here."""
        stats = self.server.stats
        servers = self.deployment.servers
        counters = {
            "cpu": time.process_time(),
            "submissions": stats.n_submissions,
            "accepted": stats.n_accepted,
            "rejected": stats.n_rejected,
            "batches": stats.n_batches,
            "pauses": stats.n_pauses,
            "shed": stats.n_shed,
            "max_pending": stats.max_pending,
            "rejected_snip": servers[0].n_rejected,
            "replayed": servers[0].n_replayed,
            "broadcast": sum(s.elements_broadcast for s in servers),
        }
        stats.max_pending = self.server.pending_submissions
        return counters

    def _next_batch(self, layer, args):
        # Batches are verified one at a time (inline executor) and the
        # transport receives for server 0 first, so server 0's receive
        # opens the next batch.
        if layer == "protocol.server.receive" and args[0].server_index == 0:
            self.tracer.batch += 1

    async def trace(self, command):
        if command["on"]:
            # CPU time, so that span time and the CPU time of the
            # whole traced pass can be subtracted from one another
            self.tracer = Tracer(clock=time.process_time)
            self.tracer.install(SERVER_LAYERS, self._next_batch)
        else:
            self.tracer.uninstall()
        return {}

    async def publish(self, command):
        # Every status has been answered, so every batch is accumulated.
        servers = self.deployment.servers
        shares = [s.publish() for s in servers]
        # Extra publishes are read-only; they give the traced run more
        # than one publish span to time.
        for _ in range(command.get("repeat", 1) - 1):
            for s in servers:
                s.publish()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"shares": shares, "peak_rss_mb": peak_kb / 1024.0}

    async def spans(self, command):
        tracer = self.tracer
        if command.get("path"):
            tracer.write_jsonl(command["path"], "server")
        return {
            "self_s": tracer.self_times(),
            "calls": {
                layer: tracer.calls(layer) for layer, _ in SERVER_LAYERS
            },
            "top_level_s": tracer.top_level_seconds(
                exclude="protocol.server.publish"
            ),
            "missing": sorted(tracer.missing),
        }


async def serve(process: ServerProcess) -> None:
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    reply({"ready": True})
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            command = json.loads(line)
            handler = getattr(process, command["op"])
            reply(await handler(command))
    finally:
        if process.server is not None:
            await process.server.stop()


def reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    asyncio.run(serve(ServerProcess(WORKLOADS[args.workload], args.seed)))


if __name__ == "__main__":
    main()
