"""Benchmark workloads: the paper's measurement drivers.

* :mod:`repro.workloads.microbench` — dsa-perf-micros equivalent (§4).
* :mod:`repro.workloads.xmem` — X-Mem latency probe (Figs 12–13).
* :mod:`repro.workloads.vhost` — DPDK Vhost case study (§6.4, Fig 16).
* :mod:`repro.workloads.cachelib` — CacheLib/CacheBench (Appendix B).
* :mod:`repro.workloads.spdk` — SPDK NVMe/TCP target (Appendix C).
* :mod:`repro.workloads.libfabric` — libfabric/MPI/BERT (Appendix A).

The libfabric SAR sender, SPDK's initiator streams and vhost's
virtqueue threads run as chains of bare calendar entries (one object
per stream, one stage method per hop; docs/ARCHITECTURE.md, Layer 1),
pushing the same ``(when, seq)`` keys the generator processes they
replaced did.  The microbench and CacheLib drivers stay generator
processes: their resumes cost under 1% of ``run all --quick``'s wall
time (docs/PERFORMANCE.md §16).
"""

from repro.workloads.microbench import (
    MicrobenchConfig,
    MicrobenchResult,
    run_cbdma_microbench,
    run_dsa_microbench,
    run_software_microbench,
    sweep,
)
from repro.workloads.xmem import CoRunKind, XmemParams, run_fig13_sweep, run_xmem_scenario
from repro.workloads.vhost import VhostConfig, VhostResult, run_vhost
from repro.workloads.cachelib import CacheBenchConfig, CacheBenchResult, run_cachebench
from repro.workloads.spdk import DigestMode, SpdkConfig, SpdkResult, run_spdk_target
from repro.workloads.libfabric import (
    allreduce,
    bert_step,
    measure_transfer,
    pingpong_speedup,
    rma_speedup,
)

__all__ = [
    "MicrobenchConfig",
    "MicrobenchResult",
    "run_dsa_microbench",
    "run_software_microbench",
    "run_cbdma_microbench",
    "sweep",
    "CoRunKind",
    "XmemParams",
    "run_xmem_scenario",
    "run_fig13_sweep",
    "VhostConfig",
    "VhostResult",
    "run_vhost",
    "CacheBenchConfig",
    "CacheBenchResult",
    "run_cachebench",
    "DigestMode",
    "SpdkConfig",
    "SpdkResult",
    "run_spdk_target",
    "measure_transfer",
    "pingpong_speedup",
    "rma_speedup",
    "allreduce",
    "bert_step",
]
