"""Autonomous-system modelling.

Cloudflare's Firewall Access Rules can target AS numbers as well as
countries and IP addresses (§6).  This module assigns AS numbers to the
simulated address space: each country's residential space belongs to a
handful of national ISP ASes, each VPS provider and CDN edge to its own
AS, giving rule engines something real to match on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.netsim.ip import AddressAllocator, Netblock, RangeIndex
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class ASRecord:
    """One autonomous system."""

    asn: int
    name: str
    country: Optional[str] = None    # None for global networks
    kind: str = "isp"                # isp | hosting | cdn


class ASRegistry:
    """Maps netblocks (and therefore addresses) to AS numbers."""

    def __init__(self) -> None:
        self._records: Dict[int, ASRecord] = {}
        self._block_to_asn: RangeIndex[int] = RangeIndex()

    def register_as(self, record: ASRecord) -> None:
        """Add an AS; re-registration of the same ASN is rejected."""
        if record.asn in self._records:
            raise ValueError(f"AS{record.asn} already registered")
        self._records[record.asn] = record

    def assign_block(self, block: Netblock, asn: int) -> None:
        """Attach a netblock to an AS; overlapping blocks are rejected."""
        if asn not in self._records:
            raise KeyError(f"unknown AS{asn}")
        self._block_to_asn.add(block, asn)

    def lookup(self, address: str) -> Optional[ASRecord]:
        """The AS owning an address, if any."""
        asn = self._block_to_asn.find(address)
        return None if asn is None else self._records[asn]

    def get(self, asn: int) -> ASRecord:
        """AS record by number."""
        return self._records[asn]

    def ases(self, country: Optional[str] = None,
             kind: Optional[str] = None) -> List[ASRecord]:
        """All ASes, optionally filtered by country and kind."""
        out = []
        for record in self._records.values():
            if country is not None and record.country != country:
                continue
            if kind is not None and record.kind != kind:
                continue
            out.append(record)
        return sorted(out, key=lambda r: r.asn)

    @classmethod
    def build_for_world(cls, allocator: AddressAllocator,
                        seed: int = 0) -> "ASRegistry":
        """Derive an AS plan from an allocator's ownership map.

        Residential blocks of a country are split across 1–3 national
        ISP ASes; VPS/hosting/edge owners each get a single AS.
        """
        registry = cls()
        rng = derive_rng(seed, "asn-plan")
        next_asn = 64512  # private-use range, fitting for a simulation
        country_ases: Dict[str, List[int]] = {}
        for owner in sorted(allocator.owners()):
            blocks = allocator.blocks_of(owner)
            if owner.startswith("res:"):
                country = owner.split(":")[1]
                asns = country_ases.get(country)
                if asns is None:
                    n_isps = rng.randint(1, 3)
                    asns = []
                    for i in range(n_isps):
                        registry.register_as(ASRecord(
                            asn=next_asn,
                            name=f"{country}-ISP-{i + 1}",
                            country=country, kind="isp"))
                        asns.append(next_asn)
                        next_asn += 1
                    country_ases[country] = asns
                for block in blocks:
                    registry.assign_block(block, rng.choice(asns))
            else:
                kind = "cdn" if owner.startswith("edge:") else "hosting"
                registry.register_as(ASRecord(
                    asn=next_asn, name=owner.upper(), country=None,
                    kind=kind))
                for block in blocks:
                    registry.assign_block(block, next_asn)
                next_asn += 1
        return registry
