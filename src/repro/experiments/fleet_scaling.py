"""Fleet scaling — multi-socket device fleets, placement, and failover.

Extends the paper's single-socket multi-instance result (Fig 10) to
the fleet question a deployment actually faces: how does aggregate
throughput scale across ``sockets × devices_per_socket`` topologies,
how much does placement policy matter once descriptors can cross the
UPI (and pay the remote-IOMMU translation round trip), and what does
losing a device mid-run cost?

Fleet guideline (G7-style): *scale out with NUMA-local placement —
remote-socket descriptors pay the UPI crossing and serialize at the
home socket's translation agent, so a local device is strictly
preferable when one is live; and provision for failover, because a
disabled device's queued descriptors can re-route with zero loss.*
"""

from __future__ import annotations

from repro.analysis.series import Series
from repro.analysis.tables import Table
from repro.experiments.base import ExperimentResult
from repro.fleet.harness import FleetConfig, run_fleet

KB = 1024


def _config(
    sockets: int,
    devices: int,
    placement: str,
    quick: bool,
    **overrides,
) -> FleetConfig:
    base = dict(
        transfer_size=64 * KB,
        queue_depth=4,
        iterations=8 if quick else 24,
        workers_per_socket=2,
    )
    base.update(overrides)
    return FleetConfig(
        sockets=sockets,
        devices_per_socket=devices,
        placement=placement,
        **base,
    )


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fleet-scaling",
        title="Fleet scaling across sockets, placement policies, failover",
        description=(
            "Aggregate 64 KB Memory Copy throughput over "
            "sockets x devices_per_socket topologies; NUMA-local vs "
            "topology-blind placement; zero-loss failover when a device "
            "is disabled mid-run."
        ),
    )

    # -- scaling curve: devices per socket at 1 and 2 sockets ---------------
    per_socket = [1, 2] if quick else [1, 2, 4]
    table = Table(
        "Fleet scaling — aggregate throughput (GB/s, numa-local)",
        ["Topology"] + [f"{d}/socket" for d in per_socket],
    )
    curves = {}
    for sockets in (1, 2):
        series = Series(label=f"{sockets}-socket")
        cells = [f"{sockets}-socket"]
        for devices in per_socket:
            run_result = run_fleet(_config(sockets, devices, "numa-local", quick))
            throughput = run_result.throughput
            series.add(sockets * devices, throughput)
            curves[(sockets, devices)] = throughput
            cells.append(f"{throughput:.2f}")
        result.add_series(series)
        table.add_row(*cells)
    result.tables.append(table)

    one_socket = [curves[(1, d)] for d in per_socket]
    two_socket = [curves[(2, d)] for d in per_socket]
    result.check(
        "throughput scales monotonically with devices per socket",
        "adding devices never hurts",
        " / ".join(f"{v:.0f}" for v in one_socket),
        all(b >= 0.95 * a for a, b in zip(one_socket, one_socket[1:]))
        and all(b >= 0.95 * a for a, b in zip(two_socket, two_socket[1:])),
    )
    result.check(
        "second socket adds throughput",
        "2-socket fleet beats 1-socket at equal devices/socket",
        f"{two_socket[0]:.0f} vs {one_socket[0]:.0f} GB/s",
        two_socket[0] > 1.3 * one_socket[0],
    )

    # -- placement policy: NUMA-local vs topology-blind round robin --------
    policy_table = Table(
        "Placement policy at 2x2 (GB/s)", ["Policy", "Throughput"]
    )
    policy_curve = Series(label="placement")
    throughputs = {}
    for index, placement in enumerate(("numa-local", "round-robin", "least-loaded")):
        run_result = run_fleet(_config(2, 2, placement, quick))
        throughputs[placement] = run_result.throughput
        policy_table.add_row(placement, f"{run_result.throughput:.2f}")
        policy_curve.add(index, run_result.throughput)
    result.add_series(policy_curve)
    result.tables.append(policy_table)
    result.check(
        "NUMA-local placement beats topology-blind round robin",
        "no UPI crossing, no remote-IOMMU serialization",
        f"{throughputs['numa-local']:.1f} vs {throughputs['round-robin']:.1f} GB/s",
        throughputs["numa-local"] >= throughputs["round-robin"],
    )

    # -- failover: disable dsa0 while its WQ is occupied -------------------
    failover = run_fleet(
        _config(
            2,
            2,
            "numa-local",
            quick,
            queue_depth=8,
            workers_per_socket=3,
            disable_device="dsa0",
            disable_at_ns=500.0,
        )
    )
    fail_table = Table(
        "Failover (disable dsa0 at 500 ns)",
        ["Offered", "Completed", "Rerouted", "To software", "Lost"],
    )
    fail_table.add_row(
        str(failover.offered),
        str(failover.completed),
        str(failover.rerouted),
        str(failover.to_software),
        str(failover.lost),
    )
    result.tables.append(fail_table)
    failover_curve = Series(label="failover")
    failover_curve.add(0, float(failover.rerouted))
    failover_curve.add(1, float(failover.lost))
    result.add_series(failover_curve)
    result.check(
        "device loss loses zero descriptors",
        "every descriptor completes on a survivor or software",
        f"{failover.completed}/{failover.offered} completed, "
        f"{failover.rerouted} rerouted, {failover.lost} lost",
        failover.lost == 0 and failover.rerouted > 0,
    )
    result.check(
        "failover accounting balances",
        "rerouted descriptors booked on the absorbing device",
        f"rerouted={failover.rerouted}",
        failover.metrics.get("fleet.dsa0.failover.rerouted", 0.0)
        == float(failover.rerouted),
    )
    return result
