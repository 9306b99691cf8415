"""IPv4 address space carved into per-country and per-provider netblocks.

The simulation assigns each country a set of residential netblocks, each VPS
provider a datacenter netblock, and each cloud provider (notably Google
AppEngine) a set of serving netblocks discoverable through DNS — mirroring
the ``_cloud-netblocks.googleusercontent.com`` mechanism the paper used.
"""

from __future__ import annotations

import ipaddress
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Generic, Iterator, List, Optional, TypeVar

from repro.util.rng import derive_rng

#: Module-level parse caches shared by all (frozen) Netblock instances.
_NETWORK_CACHE: Dict[str, ipaddress.IPv4Network] = {}
_RANGE_CACHE: Dict[str, "tuple[int, int]"] = {}

V = TypeVar("V")


def _address_to_int(address: str) -> Optional[int]:
    """Parse a dotted-quad IPv4 address to an int (None when invalid)."""
    parts = address.split(".")
    if len(parts) != 4:
        return None
    value = 0
    for part in parts:
        if not part.isdigit():
            return None
        octet = int(part)
        if octet > 255:
            return None
        value = (value << 8) | octet
    return value


@dataclass(frozen=True)
class Netblock:
    """A CIDR netblock with an owner label (country code or provider)."""

    cidr: str
    owner: str

    @property
    def network(self) -> ipaddress.IPv4Network:
        """The parsed network object (cached after first use)."""
        cached = _NETWORK_CACHE.get(self.cidr)
        if cached is None:
            cached = ipaddress.IPv4Network(self.cidr)
            _NETWORK_CACHE[self.cidr] = cached
        return cached

    @property
    def int_range(self) -> "tuple[int, int]":
        """(first, last) address of the block as ints (cached)."""
        cached = _RANGE_CACHE.get(self.cidr)
        if cached is None:
            net = self.network
            first = int(net.network_address)
            cached = (first, first + net.num_addresses - 1)
            _RANGE_CACHE[self.cidr] = cached
        return cached

    def __contains__(self, address: str) -> bool:
        value = _address_to_int(address)
        if value is None:
            return False
        first, last = self.int_range
        return first <= value <= last

    def address_at(self, index: int) -> str:
        """Return the host address at ``index`` within the block."""
        net = self.network
        size = net.num_addresses
        if size <= 2:
            host_index = index % size
        else:
            host_index = 1 + (index % (size - 2))
        return str(net.network_address + host_index)


class RangeIndex(Generic[V]):
    """Disjoint netblocks mapped to values, searched by one bisect.

    Three parallel lists sorted by first address (``starts``, ``ends``
    and ``values``) form a range database: a lookup parses the address
    once, bisects ``starts`` and checks one ``end``.  Blocks are added
    at build time; a block overlapping one already added raises
    ``ValueError``, so at most one block ever contains an address and
    the answer does not depend on the order of ``add`` calls.
    """

    __slots__ = ("_starts", "_ends", "_values")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._values: List[V] = []

    def add(self, block: Netblock, value: V) -> None:
        """Map every address of ``block`` to ``value``."""
        first, last = block.int_range
        pos = bisect_right(self._starts, first)
        if ((pos and self._ends[pos - 1] >= first)
                or (pos < len(self._starts) and self._starts[pos] <= last)):
            raise ValueError(f"netblock {block.cidr} overlaps a registered block")
        self._starts.insert(pos, first)
        self._ends.insert(pos, last)
        self._values.insert(pos, value)

    def find(self, address: str) -> Optional[V]:
        """The value of the block containing ``address`` (None if none)."""
        value = _address_to_int(address)
        if value is None:
            return None
        pos = bisect_right(self._starts, value) - 1
        if pos >= 0 and value <= self._ends[pos]:
            return self._values[pos]
        return None


class AddressAllocator:
    """Deterministically allocates disjoint /16 netblocks to owners.

    Allocation walks the 10.0.0.0/8 through 126.0.0.0/8 unicast space in
    /16 steps; the order of ``allocate`` calls fully determines the layout,
    so a given world seed always yields the same address plan.
    """

    def __init__(self, seed: int = 0) -> None:
        self._next = 0
        self._blocks: Dict[str, List[Netblock]] = {}
        self._rng = derive_rng(seed, "ip-allocator")

    def allocate(self, owner: str, count: int = 1) -> List[Netblock]:
        """Allocate ``count`` fresh /16 blocks to ``owner``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        blocks = []
        for _ in range(count):
            first_octet = 10 + (self._next // 256) % 117
            second_octet = self._next % 256
            self._next += 1
            block = Netblock(cidr=f"{first_octet}.{second_octet}.0.0/16", owner=owner)
            blocks.append(block)
        self._blocks.setdefault(owner, []).extend(blocks)
        return blocks

    def blocks_of(self, owner: str) -> List[Netblock]:
        """All blocks allocated to ``owner`` so far."""
        return list(self._blocks.get(owner, ()))

    def owner_of(self, address: str) -> Optional[str]:
        """Return the owner of the block containing ``address``, if any."""
        for owner, blocks in self._blocks.items():
            for block in blocks:
                if address in block:
                    return owner
        return None

    def random_address(self, owner: str, rng=None) -> str:
        """A uniformly random host address within one of ``owner``'s blocks."""
        blocks = self._blocks.get(owner)
        if not blocks:
            raise KeyError(f"no netblocks allocated to {owner!r}")
        r = rng if rng is not None else self._rng
        block = r.choice(blocks)
        return block.address_at(r.randrange(1, 65534))

    def owners(self) -> Iterator[str]:
        """All owners with at least one allocation."""
        return iter(self._blocks)
