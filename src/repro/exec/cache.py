"""Content-addressed, on-disk cache of experiment results.

Layout (default root ``.repro-cache/``, override with ``--cache-dir``
or ``REPRO_CACHE_DIR``)::

    .repro-cache/
        fig2-5b1f…e3.pkl     # one pickle per (experiment, key)
        fig5-90aa…71.pkl

The file name embeds the experiment id (human-readable) and the first
16 hex chars of the cache key.  The key is a SHA-256 over everything
that determines a result byte-for-byte:

* the experiment id,
* the ``quick`` flag,
* the run seed (``--seed`` / :data:`repro.sim.rng.DEFAULT_SEED`),
* the source fingerprint of the experiment module's static import
  closure (see :mod:`repro.exec.fingerprint`),
* a cache format version.

Simulations are deterministic functions of (code, flags, seed), so a
key hit can return the stored result without re-simulating; any edit to
an experiment or to a model it imports changes the fingerprint and
orphans the old entry.  Orphans are only reclaimed by ``python -m repro
cache clear`` — they are cheap and make switching branches back and
forth free.

Unreadable or stale-format entries are treated as misses and deleted.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import module_path

#: Bump to orphan every existing entry when the stored payload changes.
#: v2: ExperimentResult grew ``metrics_state`` (invertible registry
#: state for exact histogram merges); v1 pickles lack the field.
CACHE_FORMAT = 2

#: Default cache root, relative to the current working directory.
DEFAULT_ROOT = ".repro-cache"

#: Flag values that mean "the default run mode" and are dropped from
#: the variant salt, so default runs keep their historical (empty
#: variant) keys across releases that add new flags.
VARIANT_DEFAULTS = {
    "tier": "small",
    "traffic": "default",
    "fleet": "1x1",
    "placement": "round-robin",
}


def fingerprint(module_name: str) -> str:
    """Source fingerprint of ``module_name``; see :mod:`repro.exec.fingerprint`.

    Imported on first use, so a run that never keys the cache never
    compiles the fingerprinter.
    """
    from repro.exec.fingerprint import fingerprint as source_fingerprint

    return source_fingerprint(module_name)


def variant_string(**flags) -> str:
    """Canonical cache-``variant`` salt for run-mode flags.

    One builder instead of ad hoc concatenation at call sites:
    ``variant_string(tier="medium", fleet="2x4")`` →
    ``"fleet=2x4,tier=medium"``.  Properties that make distinct
    flag combinations collision-free:

    * keys are emitted in sorted order (call-site order is irrelevant);
    * ``None`` and default values (:data:`VARIANT_DEFAULTS`) are
      dropped, so a new flag at its default never orphans old entries;
    * the ``=`` / ``,`` separators are rejected inside keys and values,
      so two different mappings can never serialize identically.
    """
    parts: List[str] = []
    for key in sorted(flags):
        value = flags[key]
        if value is None:
            continue
        if isinstance(value, bool):
            value = int(value)
        text = str(value)
        if VARIANT_DEFAULTS.get(key) == text:
            continue
        if any(sep in key or sep in text for sep in ("=", ",")):
            raise ValueError(f"variant flag may not contain '=' or ',': {key}={text!r}")
        parts.append(f"{key}={text}")
    return ",".join(parts)


@dataclass
class CachedResult:
    """One deserialized cache entry."""

    result: ExperimentResult
    wall: float            # seconds the original simulation took
    created: float         # unix timestamp of the put()
    key: str


@dataclass
class CacheStats:
    """Aggregate numbers for ``python -m repro cache stats``."""

    root: Path
    entries: int = 0
    total_bytes: int = 0
    saved_wall_s: float = 0.0
    by_experiment: Dict[str, int] = field(default_factory=dict)
    unreadable: int = 0


class ResultCache:
    """Pickle-backed result store addressed by content key."""

    def __init__(self, root: Optional[os.PathLike] = None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_ROOT)
        self.root = Path(root)

    # -- keying ----------------------------------------------------------
    def key(self, exp_id: str, quick: bool, seed: int, variant: str = "") -> str:
        """Full content key for one (experiment, flags, seed, code) tuple.

        ``variant`` salts the key for run modes that change the stored
        payload without changing the code — for example a non-default
        ``--tier`` or ``--fleet``.  Callers build it with
        :func:`variant_string`; the empty default keeps existing keys.
        """
        source_fp = fingerprint(module_path(exp_id))
        material = f"v{CACHE_FORMAT}|{exp_id}|quick={int(bool(quick))}|seed={seed}|{source_fp}"
        if variant:
            material += f"|variant={variant}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, exp_id: str, key: str) -> Path:
        return self.root / f"{exp_id}-{key[:16]}.pkl"

    # -- read/write ------------------------------------------------------
    def get(
        self, exp_id: str, quick: bool, seed: int, variant: str = ""
    ) -> Optional[CachedResult]:
        """The stored result for this key, or None on a miss.

        An experiment whose source cannot be fingerprinted (e.g. a
        module registered dynamically in a test) is simply uncacheable:
        always a miss.
        """
        try:
            key = self.key(exp_id, quick, seed, variant)
        except Exception:
            return None
        path = self._path(exp_id, key)
        if not path.is_file():
            return None
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
            if payload["format"] != CACHE_FORMAT or payload["key"] != key:
                raise ValueError("stale cache entry")
            result = payload["result"]
            if not isinstance(result, ExperimentResult):
                raise TypeError("cache entry is not an ExperimentResult")
        except Exception:
            # Corrupt, truncated, or written by incompatible code: a miss.
            path.unlink(missing_ok=True)
            return None
        return CachedResult(
            result=result, wall=payload["wall"], created=payload["created"], key=key
        )

    def put(
        self,
        exp_id: str,
        quick: bool,
        seed: int,
        result: ExperimentResult,
        wall: float,
        variant: str = "",
    ) -> Path:
        """Store ``result``; returns the entry path."""
        key = self.key(exp_id, quick, seed, variant)
        path = self._path(exp_id, key)
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": CACHE_FORMAT,
            "key": key,
            "exp_id": exp_id,
            "quick": bool(quick),
            "seed": seed,
            "result": result,
            "wall": float(wall),
            "created": time.time(),
        }
        # Write-then-rename so a crashed writer never leaves a torn
        # entry under the final name.
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)
        return path

    # -- maintenance -----------------------------------------------------
    def entries(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.pkl"))

    def stats(self) -> CacheStats:
        stats = CacheStats(root=self.root)
        for path in self.entries():
            stats.entries += 1
            stats.total_bytes += path.stat().st_size
            try:
                with path.open("rb") as fh:
                    payload = pickle.load(fh)
                exp_id = payload["exp_id"]
                stats.saved_wall_s += float(payload["wall"])
            except Exception:
                stats.unreadable += 1
                exp_id = path.name.rsplit("-", 1)[0]
            stats.by_experiment[exp_id] = stats.by_experiment.get(exp_id, 0) + 1
        return stats

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed
