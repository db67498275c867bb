"""Software ecosystem: driver, configuration tool, DML, DTO (paper §3.3, §5).

This package is the model equivalent of the DSA software stack:

* :mod:`repro.runtime.driver` — IDXD-like kernel driver (control path,
  portal mapping, PASID attachment).
* :mod:`repro.runtime.accel_config` — libaccel-config-like user API to
  describe and apply device configurations.
* :mod:`repro.runtime.submit` / :mod:`repro.runtime.wait` — data path:
  MOVDIR64B / ENQCMD submission and spin / UMWAIT / interrupt waiting.
* :mod:`repro.runtime.dml` — high-level data-mover API (sync/async
  jobs, batching, device load balancing).
* :mod:`repro.runtime.dto` — transparent offload of ``mem*`` calls with
  a minimum-size threshold and software fallback.
* :mod:`repro.runtime.recovery` — partial-completion recovery for
  BOF=0 descriptors: bounded retries, backoff, software degradation.

Every name here is re-exported lazily: a traffic run that needs only
the driver's portals compiles none of DML, DTO or the runtime ops.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, imported on first use.
_LAZY = {
    "IdxdDriver": "repro.runtime.driver",
    "Portal": "repro.runtime.driver",
    "AccelConfig": "repro.runtime.accel_config",
    "Dml": "repro.runtime.dml",
    "DmlJob": "repro.runtime.dml",
    "DmlPath": "repro.runtime.dml",
    "Dto": "repro.runtime.dto",
    "RecoveryResult": "repro.runtime.recovery",
    "RetryPolicy": "repro.runtime.recovery",
    "recover": "repro.runtime.recovery",
    "submit": "repro.runtime.submit",
    "prepare_descriptor": "repro.runtime.submit",
    "WaitMode": "repro.runtime.wait",
    "wait_for": "repro.runtime.wait",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
