"""In-memory span recording around the public functions of each layer.

The benchmark measures the program from outside: a :class:`Tracer`
replaces a layer's function with a wrapper that records one span per
call (name, start, end, parent span, batch id) and restores the
original when tracing stops.  Spans stay in memory while the run is
measured and are written out as JSON lines afterwards.

A target names ``module:attribute.path``.  Functions are patched where
their callers look them up: ``repro.protocol.client`` imports
``h_planes_batch`` by name, so the client's copy of that name is the
one wrapped.  A target that no longer resolves is reported as not
measured instead of failing the run, so a refactor that moves a
function shows up as a missing layer, not a crash.
"""

from __future__ import annotations

import importlib
import json
import time

#: (layer, target) pairs wrapped in the load-generator process, where
#: the client prepares uploads.  ``afe.encode`` is bound per AFE
#: instance by the caller (see :meth:`Tracer.wrap_attribute`).
CLIENT_LAYERS = (
    ("protocol.client", "repro.protocol.client:PrioClient.prepare_submissions"),
    ("circuit.trace", "repro.circuit.compiled:CompiledCircuit.evaluate_batch"),
    ("snip.prove_h", "repro.protocol.client:h_planes_batch"),
    ("snip.assemble", "repro.protocol.client:submission_planes"),
    ("sharing.share", "repro.protocol.client:share_vectors_client_batch"),
    ("field.encode_bytes", "repro.protocol.client:encode_bytes_batch"),
    ("protocol.wire.packets", "repro.protocol.client:packets_for_share_bodies"),
    ("crypto.seal", "repro.protocol.client:seal_packet"),
    ("transport.framing.encode",
     "repro.transport.client:TransportClient.frame_submission"),
)

#: (layer, target) pairs wrapped in the server process.
#: ``PrioServer._ingest_batch`` is private; it is wrapped because the
#: transport calls it directly, and its time would otherwise be
#: counted as transport self time.
SERVER_LAYERS = (
    ("protocol.server.receive",
     "repro.protocol.server:PrioServer.receive_wire_batch"),
    ("protocol.server.receive",
     "repro.protocol.server:PrioServer.receive_sealed_batch"),
    ("field.decode_bytes", "repro.protocol.server:decode_bytes_batch"),
    ("crypto.open", "repro.protocol.server:open_box"),
    ("protocol.server.ingest", "repro.protocol.server:PrioServer._ingest_batch"),
    ("field.expand_seed", "repro.protocol.server:expand_seed_batch"),
    ("protocol.server.round1",
     "repro.protocol.server:PrioServer.begin_verification_batch"),
    ("protocol.server.round2",
     "repro.protocol.server:PrioServer.finish_verification_batch"),
    ("protocol.server.decide", "repro.protocol.server:PrioServer.decide_batch"),
    ("protocol.server.accumulate",
     "repro.protocol.server:PrioServer.accumulate_batch"),
    ("protocol.server.publish", "repro.protocol.server:PrioServer.publish"),
)


def resolve(target: str):
    """``(owner, attribute)`` for ``module:a.b.c``, or ``None``."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attribute):
        return None
    return owner, attribute


class Tracer:
    """Records spans for the functions it wraps while installed."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: (name, start, end, parent index or -1, batch id)
        self.spans: "list[tuple]" = []
        #: layers whose target did not resolve
        self.missing: "set[str]" = set()
        #: batch id stamped on spans opened from now on
        self.batch = -1
        self._stack: "list[int]" = []
        self._patches: "list[tuple]" = []

    # -- patching ---------------------------------------------------------

    def install(self, layers, on_call=None) -> None:
        """Wrap every resolvable target of ``layers``.

        ``on_call(layer, args)`` runs before the span opens (the server
        uses it to advance the batch id).
        """
        for layer, target in layers:
            found = resolve(target)
            if found is None:
                self.missing.add(layer)
                continue
            self.wrap_attribute(*found, layer, on_call)

    def wrap_attribute(self, owner, attribute, layer, on_call=None) -> None:
        """Wrap ``owner.attribute`` (module, class or instance)."""
        own = vars(owner) if hasattr(owner, "__dict__") else {}
        raw = own.get(attribute)
        function = getattr(owner, attribute)
        wrapper = self._wrap(function, layer, on_call)
        if isinstance(raw, staticmethod):
            wrapper = staticmethod(wrapper)
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last patch first."""
        for owner, attribute, raw in reversed(self._patches):
            if raw is None:
                delattr(owner, attribute)  # was inherited or bound
            else:
                setattr(owner, attribute, raw)
        self._patches.clear()

    def _wrap(self, function, layer, on_call):
        spans = self.spans
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(layer, args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.batch)

        return traced

    # -- results ----------------------------------------------------------

    def self_times(self) -> "dict[str, float]":
        """Seconds of self time per layer: span minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: "dict[str, float]" = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def top_level_seconds(self, exclude: str = "") -> float:
        """Seconds covered by spans that have no parent span."""
        return sum(
            end - start
            for name, start, end, parent, _ in self.spans
            if parent < 0 and name != exclude
        )

    def calls(self, layer: str) -> int:
        return sum(1 for span in self.spans if span[0] == layer)

    def write_jsonl(self, path, process: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, batch in self.spans:
                out.write(json.dumps({
                    "process": process, "name": name, "start": start,
                    "end": end, "parent": parent, "batch": batch,
                }) + "\n")
