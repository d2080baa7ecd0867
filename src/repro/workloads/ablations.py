"""Microbenchmarks of the Section 6 ablation and extension studies."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ops import Commit, Compute, JoinThread, MemBatch, PatternKind, SpawnThread
from repro.units import MIB


@dataclass(frozen=True)
class PersistBarriersConfig:
    independent_writes: int = 16
    barriers: int = 200


def persist_barriers_body(config: PersistBarriersConfig, out: dict):
    """Barriers of independent one-line pflushes; the result is their ns."""

    def body(ctx):
        region = ctx.pmalloc(16 * MIB)
        start = ctx.now_ns
        for _ in range(config.barriers):
            # Persist independent fields of one object, then barrier.
            for _ in range(config.independent_writes):
                yield from ctx.pflush(region, lines=1)
            yield Commit()
            yield Compute(200.0)
        out["result"] = ctx.now_ns - start

    return body


@dataclass(frozen=True)
class RwStreamsConfig:
    stream_bytes: int = 128 * MIB


def rw_streams_body(config: RwStreamsConfig, out: dict):
    """A read and a write stream over PM at once; the result maps
    ``read``/``write`` to each stream's bytes per ns."""
    stream_bytes = config.stream_bytes
    achieved: dict = {}

    def stream(ctx, region, store):
        start = ctx.now_ns
        yield MemBatch(
            region, stream_bytes // 8, PatternKind.SEQUENTIAL, stride_bytes=8,
            is_store=store, non_temporal=store, footprint_bytes=stream_bytes,
        )
        achieved["write" if store else "read"] = stream_bytes / (ctx.now_ns - start)

    def main(ctx):
        read_region = ctx.pmalloc(stream_bytes, label="r")
        write_region = ctx.pmalloc(stream_bytes, label="w")
        r = yield SpawnThread(stream, args=(read_region, False))
        w = yield SpawnThread(stream, args=(write_region, True))
        yield JoinThread(r)
        yield JoinThread(w)
        out["result"] = achieved

    return main


def background_load_body(config: None, out: dict):
    """Stream stores over 512 MiB forever (run it as a daemon thread)."""

    def streamer(ctx):
        region = ctx.malloc(512 * MIB)
        while True:
            yield MemBatch(
                region, region.size_bytes // 8, PatternKind.SEQUENTIAL,
                stride_bytes=8, is_store=True, non_temporal=True,
            )

    return streamer
