"""GeoIP lookup benchmark: sorted int-range index vs linear netblock scan.

Every probe geolocates its exit address (the CDN's geoblocking
decision, paper §4.2).  ``GeoIPDatabase`` used to walk every registered
netblock, re-parsing the dotted quad at each one; it now parses the
address once and bisects a sorted, disjoint int-range index.  This file
keeps a frozen copy of the linear walk and runs both over the same
addresses of the small world:

* 20 residential addresses per Luminati country, and
* each VPS address.

Both must return the same entries, and the index must be at least 10x
faster.  Reference and index passes alternate, best of three each.
Timings land in ``BENCH_lookup.json`` at the repo root.
"""

from __future__ import annotations

from bench_util import best_of, cpu_count, write_trajectory
from repro.util.rng import derive_rng
from repro.websim.world import World, WorldConfig

MIN_SPEEDUP = 10.0
REPEAT = 3
PER_COUNTRY = 20


def reference_true_lookup(entries, address):
    """``GeoIPDatabase._true_lookup`` as the first-match walk, unmemoized."""
    for block, entry in entries:
        if address in block:
            return entry
    return None


def _addresses(world):
    out = []
    for country in world.registry.luminati_codes():
        rng = derive_rng(3, "bench-lookup", country)
        out.extend(world.residential_address(country, rng)
                   for _ in range(PER_COUNTRY))
    out.extend(world.vps_address(country.code)
               for country in world.registry.vps_countries())
    return out


def test_lookup_speedup():
    world = World(WorldConfig.small())
    db = world.geoip
    entries = list(db._entries)
    addresses = _addresses(world)

    outputs = {}

    def reference():
        outputs["reference"] = [reference_true_lookup(entries, a)
                                for a in addresses]

    def index():
        outputs["index"] = [db._index.find(a) for a in addresses]

    times = {"reference": float("inf"), "index": float("inf")}
    for _ in range(REPEAT):
        times["reference"] = min(times["reference"], best_of(reference, 1))
        times["index"] = min(times["index"], best_of(index, 1))

    assert outputs["index"] == outputs["reference"]
    assert all(entry is not None for entry in outputs["index"])
    speedup = times["reference"] / times["index"]
    write_trajectory("lookup", "true_lookup", {
        "blocks": len(entries),
        "addresses": len(addresses),
        "reference_us_per_lookup": round(
            1e6 * times["reference"] / len(addresses), 3),
        "index_us_per_lookup": round(
            1e6 * times["index"] / len(addresses), 3),
        "speedup": round(speedup, 1),
        "cpus": cpu_count(),
    })
    assert speedup >= MIN_SPEEDUP, (
        f"GeoIP index only {speedup:.1f}x faster than the linear netblock "
        f"scan (need >= {MIN_SPEEDUP}x)")
