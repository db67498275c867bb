"""repro — a simulator-based reproduction of the ASPLOS'24 paper
"A Quantitative Analysis and Guidelines of Data Streaming Accelerator
in Modern Intel Xeon Scalable Processors".

The package models the complete system the paper measures:

* :mod:`repro.sim` — discrete-event simulation kernel;
* :mod:`repro.mem` — LLC (with DDIO ways), DRAM/NUMA/CXL tiers, IOMMU;
* :mod:`repro.dsa` — the DSA device: descriptors, WQs, groups, engines,
  with every Table 1 operation executed functionally on real bytes;
* :mod:`repro.cbdma` — the previous-generation DMA baseline;
* :mod:`repro.cpu` — cores, offload instructions, software kernels;
* :mod:`repro.runtime` — driver, accel-config, DML, DTO software stack;
* :mod:`repro.workloads` — dsa-perf-micros, X-Mem, Vhost, CacheLib,
  SPDK, libfabric measurement drivers;
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import MicrobenchConfig, run_dsa_microbench

    result = run_dsa_microbench(MicrobenchConfig(transfer_size=65536))
    print(result.throughput, "GB/s")
"""

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, imported on first use
#: (:mod:`repro._lazy`): an entry point such as ``repro.fleet.harness``
#: compiles no experiment or workload module.  Nothing under
#: ``src/repro`` does ``from repro import ...``.
_LAZY = {
    "Platform": "repro.platform",
    "spr_platform": "repro.platform",
    "icx_platform": "repro.platform",
    "Opcode": "repro.dsa",
    "WorkDescriptor": "repro.dsa",
    "BatchDescriptor": "repro.dsa",
    "CompletionRecord": "repro.dsa",
    "StatusCode": "repro.dsa",
    "DeviceConfig": "repro.dsa",
    "WqMode": "repro.dsa",
    "DsaTimingParams": "repro.dsa",
    "DsaDevice": "repro.dsa",
    "IdxdDriver": "repro.runtime",
    "Dml": "repro.runtime",
    "DmlPath": "repro.runtime",
    "Dto": "repro.runtime",
    "MicrobenchConfig": "repro.workloads",
    "MicrobenchResult": "repro.workloads",
    "run_dsa_microbench": "repro.workloads",
    "run_software_microbench": "repro.workloads",
    "run_cbdma_microbench": "repro.workloads",
    "all_experiments": "repro.experiments",
    "run_experiment": "repro.experiments",
}

__version__ = "1.0.0"

__all__ = [*_LAZY, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
