"""Testbed network topologies (Figure 9) and path energy accounting.

Each testbed is a chain of network devices between the source and
destination hosts:

* **XSEDE** (Gordon@SDSC -> Stampede@TACC): edge switch, enterprise
  switch, edge router, Internet2 core (metro routers), edge router,
  enterprise switch, edge switch.
* **FutureGrid** (Hotel@UC -> Alamo@TACC): edge switch, metro router,
  Internet2 (metro routers), metro router, edge switch — metro-router
  heavy, which is why FutureGrid shows the largest network share in
  Figure 10.
* **DIDCLAB** (WS9 -> WS6): a single LAN edge switch.

Each topology is held as its ordered ``(node, device)`` chain, so the
transfer path, device inventory and per-hop accounting are read off
the chain in order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netenergy.devices import (
    EDGE_ROUTER,
    EDGE_SWITCH,
    ENTERPRISE_SWITCH,
    METRO_ROUTER,
    DeviceType,
)

__all__ = [
    "DEFAULT_MTU_BYTES",
    "NetworkTopology",
    "xsede_topology",
    "futuregrid_topology",
    "didclab_topology",
    "topology_for",
    "packet_count",
]

#: Standard Ethernet MTU; the paper's flows are bulk data, so full-size
#: frames dominate the packet count.
DEFAULT_MTU_BYTES = 1500


def packet_count(total_bytes: float, mtu_bytes: int = DEFAULT_MTU_BYTES) -> float:
    """Data packets needed to carry ``total_bytes`` at a given MTU."""
    if total_bytes < 0:
        raise ValueError("total_bytes must be >= 0")
    if mtu_bytes <= 0:
        raise ValueError("mtu_bytes must be > 0")
    return total_bytes / mtu_bytes


@dataclass
class NetworkTopology:
    """A named chain of network devices between two hosts."""

    name: str
    source: str
    destination: str
    #: ``(node name, device type)`` hops in source -> destination order
    devices: tuple[tuple[str, DeviceType], ...]

    def transfer_path(self) -> list[str]:
        """Node names along the source->destination path."""
        return [self.source, *(node for node, _ in self.devices),
                self.destination]

    def path_devices(self) -> list[DeviceType]:
        """Device types traversed by the transfer (hosts excluded)."""
        return [device for _, device in self.devices]

    def dynamic_transfer_energy(
        self, total_bytes: float, mtu_bytes: int = DEFAULT_MTU_BYTES
    ) -> float:
        """Load-dependent network joules to carry ``total_bytes`` end to
        end (Eq. 5 summed over every device on the path)."""
        packets = packet_count(total_bytes, mtu_bytes)
        return sum(device.dynamic_energy(packets) for device in self.path_devices())

    def per_device_energy(
        self, total_bytes: float, mtu_bytes: int = DEFAULT_MTU_BYTES
    ) -> list[tuple[str, float]]:
        """(device node name, joules) along the path, for reporting —
        ``total_bytes`` bytes of payload in ``mtu_bytes``-byte packets."""
        packets = packet_count(total_bytes, mtu_bytes)
        return [(node, device.dynamic_energy(packets))
                for node, device in self.devices]

    def describe(self) -> str:
        """The transfer path as 'name: hop -> hop -> ...'."""
        hops = " -> ".join(self.transfer_path())
        return f"{self.name}: {hops}"


def xsede_topology() -> NetworkTopology:
    """Figure 9(a): Gordon (SDSC) <-> Internet2 <-> Stampede (TACC)."""
    return NetworkTopology(
        "XSEDE",
        "gordon-sdsc",
        "stampede-tacc",
        (
            ("edge-switch-sdsc", EDGE_SWITCH),
            ("enterprise-switch-sdsc", ENTERPRISE_SWITCH),
            ("edge-router-sdsc", EDGE_ROUTER),
            ("internet2-metro-1", METRO_ROUTER),
            ("internet2-metro-2", METRO_ROUTER),
            ("edge-router-tacc", EDGE_ROUTER),
            ("enterprise-switch-tacc", ENTERPRISE_SWITCH),
            ("edge-switch-tacc", EDGE_SWITCH),
        ),
    )


def futuregrid_topology() -> NetworkTopology:
    """Figure 9(b): Hotel (UChicago) <-> Internet2 <-> Alamo (TACC).

    Metro-router heavy (metro routers at both campus egresses plus the
    Internet2 core), matching the paper's observation that FutureGrid
    has the largest network-side energy share.
    """
    return NetworkTopology(
        "FutureGrid",
        "hotel-uc",
        "alamo-tacc",
        (
            ("edge-switch-uc", EDGE_SWITCH),
            ("metro-router-uc", METRO_ROUTER),
            ("internet2-metro-1", METRO_ROUTER),
            ("internet2-metro-2", METRO_ROUTER),
            ("metro-router-tacc", METRO_ROUTER),
            ("edge-switch-tacc", EDGE_SWITCH),
        ),
    )


def didclab_topology() -> NetworkTopology:
    """Figure 9(c): WS9 <-> LAN edge switch <-> WS6."""
    return NetworkTopology(
        "DIDCLAB",
        "ws9",
        "ws6",
        (("lan-switch", EDGE_SWITCH),),
    )


def topology_for(testbed_name: str) -> NetworkTopology:
    """Topology lookup by testbed name (case-insensitive)."""
    key = testbed_name.strip().lower()
    factories = {
        "xsede": xsede_topology,
        "futuregrid": futuregrid_topology,
        "didclab": didclab_topology,
    }
    if key not in factories:
        raise KeyError(f"unknown testbed {testbed_name!r}; known: {sorted(factories)}")
    return factories[key]()
