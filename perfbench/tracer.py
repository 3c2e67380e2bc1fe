"""Span tracing from the benchmark's side of each layer boundary.

The program has no tracing of its own, so the traced run wraps the
entry points of each layer (``World.step``, ``World.seal``,
``SegmentStore.load_segment``, ``ChunkRunner.run_chunk``,
``StreamEngine.ingest``, ``MevQueryService.handle`` ...) in timing
shims.  Spans nest: a
layer's *self* time is its span's duration minus the time of the
wrapped calls made inside it, so detection time spent waiting on a
spilled receipt lookup is charged to the lookup, not to detection.

Only the traced run installs the shims; the end-to-end run measures
the unmodified program.
"""

import time
from collections import defaultdict


class Tracer:
    """Per-layer call counts and self time."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        #: wall time covered by outermost spans
        self.covered_s = 0.0
        #: while set, shims call straight through (benchmark checks)
        self.paused = False
        self._stack = []
        self._patched = []

    def wrap(self, owner, attr, layer):
        """Replace ``owner.attr`` with a timing shim charging ``layer``."""
        original = getattr(owner, attr)
        stack = self._stack

        def shim(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed

        self._patched.append((owner, attr, original))
        setattr(owner, attr, shim)

    def unwrap(self):
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def per_call(self, layer, scale):
        """Mean self time per call of ``layer``, times ``scale``."""
        return self.self_s[layer] / max(self.calls[layer], 1) * scale


def install(tracer):
    """Wrap the entry point of every layer the workloads reach."""
    import repro.core.pipeline as pipeline
    import repro.serve.service as service
    import repro.sim.shard as shard
    import repro.stream.engine as engine
    from repro.chain.node import ArchiveNode
    from repro.chain.segments import SegmentStore
    from repro.engine.runner import ChunkRunner
    from repro.serve.store import ColumnStore
    from repro.sim.overlap import BackgroundWriter
    from repro.sim.world import World

    tracer.wrap(World, "step", "sim")
    tracer.wrap(World, "seal", "seal")
    # EpochRunner calls the restore through the shard module's name.
    tracer.wrap(shard, "restore_paper_scenario", "restore")
    tracer.wrap(SegmentStore, "write_segment", "spill")
    # Time the simulation thread spends blocked on the background
    # writer: a full queue on submit, draining it at the end of a run.
    for method in ("submit", "flush"):
        tracer.wrap(BackgroundWriter, method, "writer_wait")
    tracer.wrap(SegmentStore, "load_segment", "segment_load")
    # Every workload detects one block per chunk (the batch study runs
    # with chunk_size=1), so a detect call is one block.
    tracer.wrap(ChunkRunner, "run_chunk", "detect")
    tracer.wrap(ArchiveNode, "get_receipt", "receipt")
    for module in (pipeline, engine):
        tracer.wrap(module, "apply_joins", "joins")
        tracer.wrap(module, "finish_quality", "joins")
    tracer.wrap(engine.StreamEngine, "ingest", "stream")
    for method in ("ingest_block", "retract_block", "load_dataset",
                   "reconcile"):
        tracer.wrap(ColumnStore, method, "store_write")
    tracer.wrap(service.MevQueryService, "handle", "serve")
    tracer.wrap(service, "_render", "render")


def ratio(tracer, layer, per_layer):
    """Calls of ``layer`` per call of ``per_layer``."""
    return tracer.calls[layer] / max(tracer.calls[per_layer], 1)


def layer_metrics(tracer, wall_s):
    """The ``per_layer`` metrics of BENCHMARK.json, as (value, unit)."""
    return {
        "sim_step_us": (tracer.per_call("sim", 1e6), "us"),
        "seal_ms": (tracer.per_call("seal", 1e3), "ms"),
        "restore_ms": (tracer.per_call("restore", 1e3), "ms"),
        "spill_ms": (tracer.per_call("spill", 1e3), "ms"),
        "writer_wait_ms_per_segment": (
            tracer.self_s["writer_wait"]
            / max(tracer.calls["spill"], 1) * 1e3, "ms"),
        "segment_load_ms": (tracer.per_call("segment_load", 1e3), "ms"),
        "segment_loads_per_lookup": (
            ratio(tracer, "segment_load", "receipt"), "ratio"),
        "receipt_lookup_us": (tracer.per_call("receipt", 1e6), "us"),
        "detect_block_us": (tracer.per_call("detect", 1e6), "us"),
        "joins_ms": (tracer.per_call("joins", 1e3), "ms"),
        "stream_event_us": (tracer.per_call("stream", 1e6), "us"),
        "store_write_us": (tracer.per_call("store_write", 1e6), "us"),
        "serve_request_us": (tracer.per_call("serve", 1e6), "us"),
        "renders_per_request": (ratio(tracer, "render", "serve"),
                                "ratio"),
        "untraced_share": (max(0.0, 1.0 - tracer.covered_s / wall_s),
                           "ratio"),
    }
