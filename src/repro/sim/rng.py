"""Deterministic random-number helpers.

Every stochastic element in the reproduction draws from a
:class:`numpy.random.Generator` created here, so a whole experiment is
reproducible from a single integer seed.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

#: Project-wide default seed: experiments pass this unless overridden.
DEFAULT_SEED = 0xD5A  # "DSA"

#: Session-wide override for ``make_rng(None)``; see :func:`install_seed`.
_installed_seed: Optional[int] = None


def install_seed(seed: Optional[int]) -> None:
    """Make ``seed`` the default for every ``make_rng(None)`` call site.

    The runner (``repro.exec``) installs the run's seed around every
    experiment, in process or in a worker, so a ``--jobs N`` run draws
    exactly the same streams as a serial one and ``--seed`` needs no
    threading through every experiment signature.  ``None`` restores
    :data:`DEFAULT_SEED`.
    """
    global _installed_seed
    if seed is not None and not isinstance(seed, int):
        raise TypeError(f"seed must be an int or None, got {type(seed).__name__}")
    _installed_seed = seed


def uninstall_seed() -> None:
    install_seed(None)


def installed_seed() -> int:
    """The seed ``make_rng(None)`` resolves to right now."""
    return DEFAULT_SEED if _installed_seed is None else _installed_seed


def make_rng(seed: Optional[Union[int, np.random.Generator]] = None) -> np.random.Generator:
    """Return a seeded generator.

    Accepts ``None`` (use the installed seed, normally
    :data:`DEFAULT_SEED`), an ``int`` seed, or an existing generator
    (returned unchanged, so call sites can thread one generator through
    a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(installed_seed() if seed is None else seed)


def derive(rng: np.random.Generator, stream: int) -> np.random.Generator:
    """Fork an independent child stream, stable for a given ``stream`` id."""
    if stream < 0:
        raise ValueError(f"stream id must be non-negative, got {stream}")
    return np.random.default_rng(rng.integers(0, 2**63) + stream)


#: Default refill size for :class:`BatchedStream`: large enough that the
#: numpy call overhead amortizes to noise, small enough that an abandoned
#: stream wastes only a few KiB of floats.
DEFAULT_BATCH = 4096


class BatchedStream:
    """Amortized-O(1) scalar draws backed by vectorized refills.

    Pulling interarrival gaps one ``rng.exponential()`` call at a time
    costs a full numpy dispatch per event; drawing them ``batch`` at a
    time and handing out scalars from the array brings the per-draw cost
    down to an index increment.

    Determinism is preserved exactly: numpy ``Generator`` distributions
    consume the underlying bit stream identically whether drawn as one
    ``size=n`` array or any concatenation of smaller arrays, so a
    batched stream yields the very same values as unbatched scalar draws
    from the same generator — regardless of batch size, and therefore
    identically under ``--jobs N`` workers and serial runs (pinned by
    ``tests/sim/test_rng.py``).

    ``draw(fn)`` refills by calling ``fn(rng, size)``; the two common
    distributions have dedicated helpers::

        stream = BatchedStream(derive(rng, 3))
        gap = stream.exponential(scale=250.0)   # one scalar
        arr = stream.exponential_array(1000, scale=250.0)  # bulk

    A stream caches per-distribution buffers keyed by the distribution's
    parameters, so interleaving differently-parameterized draws never
    mixes buffers (each key keeps its own cursor); note that *within*
    one generator, interleaving keys changes which bit-stream segment
    each key sees (as scalar interleaving also would).
    """

    __slots__ = ("rng", "batch", "_buffers")

    def __init__(self, rng: np.random.Generator, batch: int = DEFAULT_BATCH):
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.rng = rng
        self.batch = batch
        self._buffers: dict = {}

    def draw(self, key, fill) -> float:
        """One scalar from the buffer for ``key``, refilling via
        ``fill(rng, size) -> ndarray`` when it runs dry."""
        state = self._buffers.get(key)
        if state is None or state[1] >= len(state[0]):
            state = [fill(self.rng, self.batch), 0]
            self._buffers[key] = state
        value = state[0][state[1]]
        state[1] += 1
        return float(value)

    def exponential(self, scale: float) -> float:
        """One exponential variate with mean ``scale``."""
        return self.draw(
            ("exp", scale), lambda rng, n: rng.exponential(scale, size=n)
        )

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform variate on ``[low, high)``."""
        return self.draw(
            ("uni", low, high), lambda rng, n: rng.uniform(low, high, size=n)
        )

    def exponential_array(self, n: int, scale: float) -> np.ndarray:
        """``n`` exponential variates in one vectorized call.

        Bulk draws bypass the scalar buffers entirely (they are their
        own batch); mixing bulk and scalar draws on one stream is fine
        but the interleaving order defines the bit-stream split.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return self.rng.exponential(scale, size=n)
