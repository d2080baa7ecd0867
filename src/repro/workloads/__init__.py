"""Benchmark workloads from the paper's evaluation (Section 4).

Microbenchmarks:

* :mod:`repro.workloads.memlat` — the pointer-chasing, MLP-configurable
  latency benchmark (Section 4.4);
* :mod:`repro.workloads.stream` — the STREAM *copy* kernel used for
  bandwidth-throttling validation (Figure 8);
* :mod:`repro.workloads.multithreaded` — N threads x K critical sections
  (Section 4.5);
* :mod:`repro.workloads.multilat` — two-array DRAM/NVM chase with
  configurable access patterns (Section 4.6);
* :mod:`repro.workloads.ablations` — the Section 6 ablation benchmarks.

Applications (Section 4.7):

* :mod:`repro.workloads.kvstore` — a B+-tree key-value store standing in
  for MassTree;
* :mod:`repro.workloads.pagerank` — power-iteration PageRank on a
  synthetic scale-free graph;
* :mod:`repro.workloads.graphs` — the shared graph substrate;
* :mod:`repro.workloads.graph500` — level-synchronous BFS (the Graph500
  kernel referenced in Section 7).
"""

from repro.workloads.memlat import MemLatConfig, MemLatResult, memlat_body
from repro.workloads.multilat import MultiLatConfig, MultiLatResult, multilat_body
from repro.workloads.multithreaded import (
    MultiThreadedConfig,
    MultiThreadedResult,
    multithreaded_main_body,
)
from repro.workloads.stream import StreamConfig, StreamResult, stream_main_body

__all__ = [
    "MemLatConfig",
    "MemLatResult",
    "MultiLatConfig",
    "MultiLatResult",
    "MultiThreadedConfig",
    "MultiThreadedResult",
    "StreamConfig",
    "StreamResult",
    "memlat_body",
    "multilat_body",
    "multithreaded_main_body",
    "stream_main_body",
]
