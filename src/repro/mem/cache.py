"""Shared last-level cache with a DDIO way partition.

The LLC is modelled at *occupancy* granularity: per-agent byte counts
with proportional eviction, split into a main region (core allocations,
all ways) and an I/O region (DDIO writes, restricted to ``ddio_ways``).
This captures everything the paper's cache experiments need:

* streaming software copies blow up their cores' occupancy and evict
  co-runners (Fig 12b, the +43% X-Mem latency of Fig 13);
* DSA reads never allocate, and DSA writes are confined to the DDIO
  ways, so co-runners keep their footprint (Fig 12c);
* once the aggregate streaming-write pressure exceeds what the DDIO
  partition absorbs, writes leak to DRAM — the *leaky DMA* throughput
  collapse of Fig 10.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class SharedLLC:
    """Occupancy-level model of a way-partitioned shared LLC."""

    def __init__(
        self,
        size: int,
        ways: int = 15,
        ddio_ways: int = 2,
        read_latency: float = 40.0,
        write_latency: float = 35.0,
        ddio_drain_bandwidth: float = 65.0,
    ):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if not 0 < ddio_ways < ways:
            raise ValueError(f"need 0 < ddio_ways < ways, got {ddio_ways}/{ways}")
        self.size = size
        self.ways = ways
        self.ddio_ways = ddio_ways
        #: Bytes the DDIO partition can hold, and the rest of the LLC.
        self.io_capacity = size * ddio_ways / ways
        self.main_capacity = size - self.io_capacity
        self.read_latency = read_latency
        self.write_latency = write_latency
        #: Rate (GB/s) at which dirty DDIO lines drain to DRAM.
        self.ddio_drain_bandwidth = ddio_drain_bandwidth
        self._main: Dict[str, float] = {}
        self._io: Dict[str, float] = {}
        self._io_streams: Dict[str, Tuple[float, float]] = {}
        self._history: Optional[Dict[str, List[Tuple[float, float]]]] = None

    # -- capacities -------------------------------------------------------
    def occupancy(self, agent: str) -> float:
        return self._main.get(agent, 0.0) + self._io.get(agent, 0.0)

    @property
    def total_occupancy(self) -> float:
        return sum(self._main.values()) + sum(self._io.values())

    def hit_fraction(self, agent: str, working_set: float) -> float:
        """Fraction of an agent's working set currently resident."""
        if working_set <= 0:
            return 1.0
        return min(1.0, self.occupancy(agent) / working_set)

    # -- occupancy dynamics ------------------------------------------------
    def touch(
        self,
        agent: str,
        nbytes: float,
        max_occupancy: Optional[float] = None,
        io: bool = False,
        now: float = 0.0,
    ) -> float:
        """Bring up to ``nbytes`` of new lines in for ``agent``.

        ``max_occupancy`` caps the agent's footprint (its working-set
        size) — touching data already resident does not grow occupancy.
        Returns the number of bytes actually inserted.
        """
        if nbytes < 0:
            raise ValueError(f"negative touch size: {nbytes}")
        region = self._io if io else self._main
        capacity = self.io_capacity if io else self.main_capacity
        current = region.get(agent, 0.0)
        target = current + nbytes
        if max_occupancy is not None:
            target = min(target, max_occupancy)
        target = min(target, capacity)
        inserted = max(0.0, target - current)
        if inserted == 0.0:
            return 0.0
        # Make room: when the insert overflows the region, every
        # resident agent (this one included) shrinks by one factor.
        resident = sum(region.values())
        overflow = resident + inserted - capacity
        if overflow > 0:
            scale = max(0.0, (resident - overflow) / resident) if resident else 0.0
            # Only values change, so the dict can be walked in place.
            for victim in region:
                region[victim] *= scale
            if self._history is not None:
                for victim in region:
                    self._record(victim, now)
        region[agent] = region.get(agent, 0.0) + inserted
        if self._history is not None:
            self._record(agent, now)
        return inserted

    def shrink(self, agent: str, nbytes: float, io: bool = False, now: float = 0.0) -> None:
        """Drop up to ``nbytes`` of the agent's lines (dirty drain, free)."""
        region = self._io if io else self._main
        if agent in region:
            region[agent] = max(0.0, region[agent] - nbytes)
            self._record(agent, now)

    def set_level(self, agent: str, nbytes: float, io: bool = False, now: float = 0.0) -> None:
        """Directly set an agent's occupancy (for analytic callers,
        e.g. the X-Mem equilibrium model).

        If the region lacks room, other agents shrink proportionally —
        inserting into a full cache always displaces someone.
        """
        if nbytes < 0:
            raise ValueError(f"negative occupancy: {nbytes}")
        region = self._io if io else self._main
        capacity = self.io_capacity if io else self.main_capacity
        target = min(nbytes, capacity)
        others = sum(v for k, v in region.items() if k != agent)
        overflow = others + target - capacity
        if overflow > 0 and others > 0:
            scale = (others - overflow) / others
            for victim in list(region):
                if victim != agent:
                    region[victim] *= scale
                    self._record(victim, now)
        region[agent] = target
        self._record(agent, now)

    def clear(self, agent: str, now: float = 0.0) -> None:
        self._main.pop(agent, None)
        self._io.pop(agent, None)
        self._record(agent, now)

    # -- leaky-DMA pressure tracking ---------------------------------------
    def register_io_stream(self, agent: str, footprint: float, demand_rate: float = 0.0) -> None:
        """Declare a streaming DMA write: in-flight destination bytes and
        the agent's demanded write rate (GB/s)."""
        if footprint < 0:
            raise ValueError(f"negative footprint: {footprint}")
        if demand_rate < 0:
            raise ValueError(f"negative demand rate: {demand_rate}")
        self._io_streams[agent] = (footprint, demand_rate)

    def unregister_io_stream(self, agent: str) -> None:
        self._io_streams.pop(agent, None)

    @property
    def io_pressure(self) -> float:
        """Aggregate in-flight DMA destination footprint (bytes)."""
        return sum(fp for fp, _rate in self._io_streams.values())

    @property
    def io_write_demand(self) -> float:
        """Aggregate demanded DMA write rate (GB/s)."""
        return sum(rate for _fp, rate in self._io_streams.values())

    @property
    def leaky(self) -> bool:
        """True in the *leaky DMA* regime (Fig 10): the write footprint
        overflows the DDIO ways **and** dirty lines are produced faster
        than the LLC drains them, so writes spill to DRAM."""
        # One pass summing what io_pressure and io_write_demand sum,
        # in the same order.
        pressure = demand = 0
        for footprint, rate in self._io_streams.values():
            pressure += footprint
            demand += rate
        return pressure > self.io_capacity and demand > self.ddio_drain_bandwidth

    # -- occupancy timelines (Fig 12) ---------------------------------------
    def enable_history(self) -> None:
        self._history = {}

    def history(self, agent: str) -> List[Tuple[float, float]]:
        if self._history is None:
            raise RuntimeError("history not enabled; call enable_history() first")
        return list(self._history.get(agent, []))

    def _record(self, agent: str, now: float) -> None:
        if self._history is not None:
            self._history.setdefault(agent, []).append((now, self.occupancy(agent)))
