"""The composed memory system: nodes, links, LLC, IOMMU, topology.

:class:`MemorySystem` is the single object device models and CPU models
talk to.  It answers latency queries (with NUMA/UPI and CXL asymmetry
folded in), hands out fair-share bandwidth flows per node, and hosts
the shared LLC whose DDIO partition decides whether DMA writes are
absorbed on-chip or leak to DRAM.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.mem.cache import SharedLLC
from repro.mem.cxl import CxlMemoryParams
from repro.mem.dram import DramParams, DDR4_6CH, DDR5_8CH
from repro.mem.iommu import Iommu
from repro.mem.link import FairShareLink
from repro.mem.numa import NumaTopology, UpiParams
from repro.sim.engine import Environment, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import Counter


class TierKind(enum.Enum):
    DRAM = "dram"
    CXL = "cxl"
    PMEM = "pmem"


#: Fraction of a DRAM node's streaming bandwidth available to writes.
_WRITE_BW_FRACTION = 0.45

#: Extra write latency when a copy's source and destination share one
#: node — read/write turnaround on the same channels.  This is what
#: makes split-location buffers "slightly better" in Fig 6a (sync BS 1).
SAME_NODE_TURNAROUND_NS = 18.0

#: Serialization at one socket's translation agent per *other* remote
#: translation already in flight there.  Every device targeting a
#: socket shares that socket's IOMMU (paper §3.2: the DSA sits behind
#: the host IOMMU), so concurrent remote-socket descriptors queue.
ATS_SERIALIZE_NS = 12.0


class _Join:
    """Counts the legs of one multi-link flow; reports once, at the last.

    Each leg's link pushes a zero-delay bare entry calling the join
    when the leg drains.  The last one to pop succeeds the join's Event,
    or pushes a zero-delay bare entry calling its ``callback``: the
    entry an ``all_of`` over the legs pushed when it succeeded.
    """

    __slots__ = ("env", "pending", "event", "callback")

    def __init__(self, env, pending, event, callback):
        self.env = env
        self.pending = pending
        self.event = event
        self.callback = callback

    def __call__(self) -> None:
        self.pending -= 1
        if not self.pending:
            if self.callback is None:
                self.event.succeed()
            else:
                self.env.call_in(0.0, self.callback)


@dataclass
class MemoryNode:
    """One NUMA node: a memory tier on some socket."""

    node_id: int
    kind: TierKind
    socket: int
    read_latency: float
    write_latency: float
    read_link: FairShareLink
    write_link: FairShareLink
    #: Shared internal bus (CXL devices); None for DRAM nodes.
    internal_link: Optional[FairShareLink] = None
    #: Live byte counters (``mem.<tier><id>.rd/wr.bytes``), set on register.
    rd_bytes: Optional[object] = None
    wr_bytes: Optional[object] = None


class MemorySystem:
    """Sockets' memory tiers plus the shared LLC and IOMMU."""

    def __init__(
        self,
        env: Environment,
        llc: Optional[SharedLLC] = None,
        topology: Optional[NumaTopology] = None,
        iommu: Optional[Iommu] = None,
    ):
        self.env = env
        self.llc = llc or SharedLLC(size=105 * 1024 * 1024)
        self.topology = topology or NumaTopology()
        self.iommu = iommu or Iommu()
        self.iommu.attach_metrics(env.metrics, prefix="mem.iommu")
        self._nodes: Dict[int, MemoryNode] = {}
        self._upi_links: Dict[int, FairShareLink] = {}
        #: ``(node, from_socket, write)`` -> ``(byte counter, transfer)``,
        #: resolved on first use (see :meth:`_route`).
        self._routes: Dict[Tuple[int, int, bool], tuple] = {}
        #: Fleet platforms opt into the remote-translation cost model
        #: (see :meth:`ats_acquire`); off by default so single-socket
        #: and legacy multi-device setups keep their exact timings.
        self.model_ats_contention = False
        self._ats_inflight: Dict[int, int] = {}
        #: Home socket -> its ``remote_translations`` counter, made on
        #: the socket's first remote translation.
        self._ats_counters: Dict[int, "Counter"] = {}

    # -- construction -------------------------------------------------------
    def add_dram_node(self, node_id: int, socket: int, params: DramParams) -> MemoryNode:
        params.validate()
        node = MemoryNode(
            node_id=node_id,
            kind=TierKind.DRAM,
            socket=socket,
            read_latency=params.idle_read_latency,
            write_latency=params.idle_write_latency,
            read_link=FairShareLink(
                self.env,
                params.bandwidth,
                f"dram{node_id}.rd",
                per_flow_cap=params.stream_bandwidth,
            ),
            write_link=FairShareLink(
                self.env,
                params.bandwidth * _WRITE_BW_FRACTION,
                f"dram{node_id}.wr",
                per_flow_cap=params.stream_bandwidth,
            ),
        )
        self._register(node)
        return node

    def add_cxl_node(self, node_id: int, socket: int, params: CxlMemoryParams) -> MemoryNode:
        params.validate()
        node = MemoryNode(
            node_id=node_id,
            kind=TierKind.CXL,
            socket=socket,
            read_latency=params.read_latency,
            write_latency=params.write_latency,
            read_link=FairShareLink(self.env, params.read_bandwidth, f"cxl{node_id}.rd"),
            write_link=FairShareLink(self.env, params.write_bandwidth, f"cxl{node_id}.wr"),
            internal_link=FairShareLink(
                self.env, params.internal_bandwidth, f"cxl{node_id}.bus"
            ),
        )
        self._register(node)
        return node

    def add_pmem_node(self, node_id: int, socket: int, params) -> MemoryNode:
        """Persistent-memory bank (G4's third tier kind)."""
        from repro.mem.pmem import PmemParams

        if not isinstance(params, PmemParams):
            raise TypeError(f"expected PmemParams, got {type(params).__name__}")
        params.validate()
        node = MemoryNode(
            node_id=node_id,
            kind=TierKind.PMEM,
            socket=socket,
            read_latency=params.read_latency,
            write_latency=params.write_latency,
            read_link=FairShareLink(
                self.env,
                params.read_bandwidth,
                f"pmem{node_id}.rd",
                per_flow_cap=params.stream_bandwidth,
            ),
            write_link=FairShareLink(
                self.env,
                params.write_bandwidth,
                f"pmem{node_id}.wr",
                per_flow_cap=params.stream_bandwidth,
            ),
        )
        self._register(node)
        return node

    def _register(self, node: MemoryNode) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already exists")
        prefix = f"mem.{node.kind.value}{node.node_id}"
        node.rd_bytes = self.env.metrics.counter(f"{prefix}.rd.bytes")
        node.wr_bytes = self.env.metrics.counter(f"{prefix}.wr.bytes")
        self._nodes[node.node_id] = node
        self.topology.place_node(node.node_id, node.socket)
        if node.socket not in self._upi_links:
            self._upi_links[node.socket] = FairShareLink(
                self.env, self.topology.upi.bandwidth, f"upi.socket{node.socket}"
            )

    def node(self, node_id: int) -> MemoryNode:
        if node_id not in self._nodes:
            raise KeyError(f"unknown memory node {node_id}")
        return self._nodes[node_id]

    @property
    def nodes(self) -> Dict[int, MemoryNode]:
        return dict(self._nodes)

    # -- latency queries -----------------------------------------------------
    def read_latency(self, node_id: int, from_socket: int, in_llc: bool = False) -> float:
        """Unloaded read latency as seen from ``from_socket``."""
        if in_llc:
            return self.llc.read_latency
        node = self.node(node_id)
        hop, _remote = self.topology.crossing_cost(from_socket, node_id)
        return node.read_latency + hop

    def write_latency(
        self,
        node_id: int,
        from_socket: int,
        to_llc: bool = False,
        same_node_as_read: bool = False,
    ) -> float:
        """Unloaded write latency; ``to_llc`` models a DDIO-hinted write."""
        if to_llc:
            return self.llc.write_latency
        node = self.node(node_id)
        hop, _remote = self.topology.crossing_cost(from_socket, node_id)
        penalty = SAME_NODE_TURNAROUND_NS if same_node_as_read else 0.0
        return node.write_latency + hop + penalty

    # -- remote translation (shared per-socket IOMMU) --------------------------
    def ats_acquire(self, from_socket: int, home_sockets) -> float:
        """Begin remote translations; returns the extra latency (ns).

        A descriptor whose operand lives on another socket sends its
        address-translation request across UPI to the *home* socket's
        IOMMU: one round trip of hop latency plus queueing behind every
        remote translation already in flight at that agent
        (:data:`ATS_SERIALIZE_NS` each).  Callers must pair with
        :meth:`ats_release` once the translation window closes.  Only
        active when :attr:`model_ats_contention` is set (fleet
        platforms); returns 0.0 otherwise.
        """
        if not self.model_ats_contention:
            return 0.0
        extra = 0.0
        counters = self._ats_counters
        for home in home_sockets:
            pending = self._ats_inflight.get(home, 0)
            cost = 2.0 * self.topology.upi.hop_latency + ATS_SERIALIZE_NS * pending
            extra = max(extra, cost)
            self._ats_inflight[home] = pending + 1
            counter = counters.get(home)
            if counter is None:
                counter = counters[home] = self.env.metrics.counter(
                    f"mem.iommu.socket{home}.remote_translations"
                )
            counter.add()
        return extra

    def ats_release(self, home_sockets) -> None:
        """End remote translations begun by :meth:`ats_acquire`."""
        if not self.model_ats_contention:
            return
        for home in home_sockets:
            self._ats_inflight[home] = max(0, self._ats_inflight.get(home, 0) - 1)

    # -- bandwidth flows -------------------------------------------------------
    def read_flow(
        self,
        node_id: int,
        nbytes: float,
        from_socket: int,
        callback: Optional[Callable[[], None]] = None,
    ) -> Optional[Event]:
        """Stream ``nbytes`` out of a node (adds UPI flow when remote).

        Returns the completion event, or with ``callback`` reports the
        way :meth:`FairShareLink.transfer` does and returns None.
        """
        route = self._routes.get((node_id, from_socket, False))
        if route is None:
            route = self._route(node_id, from_socket, False)
        counter, transfer = route
        counter.value += nbytes
        return transfer(nbytes, 1.0, callback)

    def write_flow(
        self,
        node_id: int,
        nbytes: float,
        from_socket: int,
        callback: Optional[Callable[[], None]] = None,
    ) -> Optional[Event]:
        route = self._routes.get((node_id, from_socket, True))
        if route is None:
            route = self._route(node_id, from_socket, True)
        counter, transfer = route
        counter.value += nbytes
        return transfer(nbytes, 1.0, callback)

    def _route(self, node_id: int, from_socket: int, write: bool) -> tuple:
        """Resolve and cache ``(byte counter, transfer)`` for a flow route.

        The links a flow crosses — the node's link, a CXL device's
        internal bus, and the home socket's UPI link when remote — are
        fixed once the node is registered.  ``transfer`` is the one
        link's :meth:`FairShareLink.transfer`, or for several links a
        :class:`_Join` fan-out over all of them.
        """
        node = self.node(node_id)
        links = [node.write_link if write else node.read_link]
        if node.internal_link is not None:
            links.append(node.internal_link)
        if self.topology.is_remote(from_socket, node_id):
            links.append(self._upi_links[node.socket])
        if len(links) == 1:
            transfer = links[0].transfer
        else:
            transfer = functools.partial(self._fan_out, tuple(links))
        route = (node.wr_bytes if write else node.rd_bytes), transfer
        self._routes[(node_id, from_socket, write)] = route
        return route

    def _fan_out(
        self,
        links: Tuple[FairShareLink, ...],
        nbytes: float,
        weight: float,
        callback: Optional[Callable[[], None]],
    ) -> Optional[Event]:
        """One flow over several links: every leg moves all the bytes,
        and the flow is done when the slowest drains."""
        event = Event(self.env) if callback is None else None
        join = _Join(self.env, len(links), event, callback)
        for link in links:
            link.transfer(nbytes, weight, join)
        return event

    # -- presets ---------------------------------------------------------------
    @classmethod
    def spr(cls, env: Environment, with_cxl: bool = False, sockets: int = 2) -> "MemorySystem":
        """Sapphire Rapids: DDR5 x8 per socket, 105 MB LLC, optional CXL."""
        system = cls(
            env,
            llc=SharedLLC(size=105 * 1024 * 1024, ways=15, ddio_ways=2),
            topology=NumaTopology(sockets=sockets, upi=UpiParams()),
        )
        for socket in range(sockets):
            system.add_dram_node(socket, socket=socket, params=DDR5_8CH)
        if with_cxl:
            system.add_cxl_node(sockets, socket=0, params=CxlMemoryParams())
        return system

    @classmethod
    def icx(cls, env: Environment, sockets: int = 2) -> "MemorySystem":
        """Ice Lake: DDR4 x6 per socket, 57 MB LLC (Table 2 baseline)."""
        system = cls(
            env,
            llc=SharedLLC(size=57 * 1024 * 1024, ways=12, ddio_ways=2),
            topology=NumaTopology(sockets=sockets, upi=UpiParams(hop_latency=62.0)),
        )
        for socket in range(sockets):
            system.add_dram_node(socket, socket=socket, params=DDR4_6CH)
        return system
