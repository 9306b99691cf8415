"""Tests for the geolocation database."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.asn import ASRecord, ASRegistry
from repro.netsim.geoip import LOOKUP_MEMO_CAPACITY, GeoEntry, GeoIPDatabase
from repro.netsim.ip import Netblock
from repro.util.rng import derive_rng
from repro.websim.world import World, WorldConfig

_MALFORMED = ("10.0.0", "300.1.1.1", "abc", "", "10.0.0.0.0", "1..2.3",
              "-1.0.0.0", "10.0.0.256", " 10.0.0.1")


def _db(error_rate=0.0, seed=0):
    db = GeoIPDatabase(seed=seed, error_rate=error_rate)
    db.register(Netblock(cidr="10.0.0.0/16", owner="res:US"), "US")
    db.register(Netblock(cidr="10.1.0.0/16", owner="res:IR"), "IR")
    db.register(Netblock(cidr="10.2.0.0/16", owner="res:UA:crimea"), "UA",
                region="crimea")
    return db


class TestLookup:
    def test_basic(self):
        entry = _db().lookup("10.0.5.5")
        assert entry.country == "US"
        assert entry.region is None

    def test_region(self):
        entry = _db().lookup("10.2.0.9")
        assert entry.country == "UA"
        assert entry.region == "crimea"

    def test_unregistered(self):
        assert _db().lookup("99.99.99.99") is None

    def test_true_country(self):
        assert _db().true_country("10.1.0.1") == "IR"
        assert _db().true_country("99.0.0.1") is None

    def test_countries(self):
        assert _db().countries() == ["US", "IR", "UA"]

    def test_error_rate_validation(self):
        with pytest.raises(ValueError):
            GeoIPDatabase(error_rate=1.5)


class TestErrorModel:
    def test_zero_error_never_mislocates(self):
        db = _db(error_rate=0.0)
        for i in range(50):
            address = f"10.1.0.{i + 1}"
            assert db.lookup(address).country == "IR"
            assert not db.is_mislocated(address)

    def test_errors_are_stable_per_address(self):
        db = _db(error_rate=0.3, seed=5)
        first = {f"10.0.1.{i}": db.lookup(f"10.0.1.{i}").country
                 for i in range(1, 40)}
        for address, country in first.items():
            assert db.lookup(address).country == country

    def test_error_rate_approximate(self):
        db = _db(error_rate=0.3, seed=2)
        wrong = sum(1 for i in range(1, 400)
                    if db.lookup(f"10.0.{i % 250}.{i % 200 + 1}").country != "US")
        # 30% +/- generous tolerance over ~400 addresses.
        assert 0.15 < wrong / 400 < 0.45

    def test_mislocated_reports_error(self):
        db = _db(error_rate=0.5, seed=3)
        flags = [db.is_mislocated(f"10.1.2.{i}") for i in range(1, 60)]
        assert any(flags) and not all(flags)

    def test_mislocation_consistent_with_lookup(self):
        db = _db(error_rate=0.4, seed=4)
        for i in range(1, 60):
            address = f"10.1.3.{i}"
            if db.is_mislocated(address):
                assert db.lookup(address).country != "IR"
            else:
                assert db.lookup(address).country == "IR"

    def test_unregistered_not_mislocated(self):
        assert not _db(error_rate=0.5).is_mislocated("99.0.0.1")


class TestCache:
    def test_register_invalidates_cache(self):
        db = _db()
        assert db.lookup("50.0.0.1") is None
        db.register(Netblock(cidr="50.0.0.0/16", owner="res:DE"), "DE")
        assert db.lookup("50.0.0.1").country == "DE"

    def test_fingerprint_changes_on_register(self):
        db = _db()
        before = db.fingerprint()
        db.register(Netblock(cidr="60.0.0.0/16", owner="x"), "FR")
        assert db.fingerprint() != before


# --------------------------------------------------------------------- #
# Frozen linear-scan reference: the first-match walk the index replaced.


def _linear_true_lookup(db, address):
    for block, entry in db._entries:
        if address in block:
            return entry
    return None


def _linear_lookup(db, address):
    true_entry = _linear_true_lookup(db, address)
    countries = db.countries()
    if (true_entry is not None and db.error_rate > 0.0
            and len(countries) > 1):
        rng = derive_rng(db._seed, "geoip-error", address)
        if rng.random() < db.error_rate:
            wrong = rng.choice([c for c in countries
                                if c != true_entry.country])
            return GeoEntry(country=wrong, region=None)
    return true_entry


def _dotted(value):
    return str(ipaddress.IPv4Address(value % (1 << 32)))


def _boundary_addresses(db):
    """Each block's first and last address, and one either side."""
    out = []
    for block, _ in db._entries:
        first, last = block.int_range
        out.extend(_dotted(v) for v in (first - 1, first, last, last + 1))
    return out


@pytest.fixture(scope="module", params=["tiny", "small"])
def world(request):
    return World(getattr(WorldConfig, request.param)())


@pytest.fixture(scope="module")
def world_db(world):
    return world.geoip


def _assert_matches_linear(db, address):
    assert db.lookup(address) == _linear_lookup(db, address)
    expected = _linear_true_lookup(db, address)
    assert db.true_country(address) == (expected.country if expected
                                        else None)


class TestIndexMatchesLinearScan:
    def test_every_block_boundary(self, world_db):
        addresses = _boundary_addresses(world_db)
        assert len(addresses) == 4 * len(world_db._entries)
        for address in addresses:
            _assert_matches_linear(world_db, address)

    def test_malformed_addresses(self, world_db):
        for address in _MALFORMED:
            assert world_db.lookup(address) is None
            assert world_db.true_country(address) is None
            _assert_matches_linear(world_db, address)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_address(self, world_db, data):
        address = data.draw(st.one_of(
            st.sampled_from(_boundary_addresses(world_db)),
            st.integers(0, (1 << 32) - 1).map(_dotted),
            st.sampled_from(_MALFORMED),
            st.text(alphabet="0123456789.a ", max_size=16),
        ))
        _assert_matches_linear(world_db, address)
        assert world_db.is_mislocated(address) == (
            world_db.lookup(address) != _linear_true_lookup(world_db,
                                                            address))

    def test_unregistered_space(self, world_db):
        for address in ("0.0.0.1", "9.255.255.255", "200.1.2.3",
                        "255.255.255.255"):
            assert world_db.lookup(address) is None
            _assert_matches_linear(world_db, address)

    def test_region_tagged_blocks(self, world_db):
        regional = [(block, entry) for block, entry in world_db._entries
                    if entry.region is not None]
        assert any(entry.region == "crimea" for _, entry in regional)
        for block, entry in regional:
            first, last = block.int_range
            for address in (_dotted(first), _dotted(last)):
                assert world_db.true_country(address) == entry.country
                if not world_db.is_mislocated(address):
                    assert world_db.lookup(address) == entry


class TestOverlap:
    @pytest.mark.parametrize("cidr", ["10.1.0.0/16", "10.1.4.0/24",
                                      "10.0.0.0/8", "10.2.255.0/24"])
    def test_overlapping_register_rejected(self, cidr):
        db = _db()
        with pytest.raises(ValueError):
            db.register(Netblock(cidr=cidr, owner="x"), "DE")
        # The rejected block left nothing behind.
        assert db.countries() == ["US", "IR", "UA"]
        assert len(db._entries) == 3
        assert db.lookup("10.1.4.1").country == "IR"

    def test_adjacent_blocks_accepted(self):
        db = _db()
        db.register(Netblock(cidr="9.255.0.0/16", owner="x"), "DE")
        db.register(Netblock(cidr="10.3.0.0/16", owner="y"), "FR")
        assert db.lookup("9.255.255.255").country == "DE"
        assert db.lookup("10.3.0.0").country == "FR"
        assert db.lookup("10.2.255.255").country == "UA"

    def test_registration_order_does_not_matter(self):
        blocks = [("10.2.0.0/16", "UA", "crimea"), ("10.0.0.0/16", "US", None),
                  ("10.1.0.0/16", "IR", None)]
        db = GeoIPDatabase()
        for cidr, country, region in blocks:
            db.register(Netblock(cidr=cidr, owner="x"), country, region=region)
        reference = _db()
        for address in ("10.0.0.0", "10.1.255.255", "10.2.0.9", "10.3.0.0"):
            assert db.lookup(address) == reference.lookup(address)


class TestBoundedMemo:
    def test_memo_stays_within_capacity(self):
        db = GeoIPDatabase(seed=4, error_rate=0.004)
        db.register(Netblock(cidr="10.0.0.0/16", owner="res:US"), "US")
        db.register(Netblock(cidr="10.1.0.0/16", owner="res:IR"), "IR")
        first = [db.lookup(_dotted(0x0A000000 + i))
                 for i in range(LOOKUP_MEMO_CAPACITY + 500)]
        assert len(db._lookup_cache) == LOOKUP_MEMO_CAPACITY
        # Evicted addresses recompute the same (error-modelled) answer.
        for i in range(0, LOOKUP_MEMO_CAPACITY + 500, 97):
            assert db.lookup(_dotted(0x0A000000 + i)) == first[i]
        assert len(db._lookup_cache) == LOOKUP_MEMO_CAPACITY
        assert any(entry.country != "US" for entry in first)


class _LinearASRegistry(ASRegistry):
    """``ASRegistry`` with the first-match walk the index replaced."""

    def __init__(self):
        super().__init__()
        self._pairs = []

    def assign_block(self, block, asn):
        super().assign_block(block, asn)
        self._pairs.append((block, asn))

    def lookup(self, address):
        for block, asn in self._pairs:
            if address in block:
                return self._records[asn]
        return None


class TestASRegistryIndex:
    def test_matches_linear_scan(self, world):
        seed = world.config.seed
        indexed = ASRegistry.build_for_world(world.allocator, seed=seed)
        linear = _LinearASRegistry.build_for_world(world.allocator, seed=seed)
        addresses = list(_MALFORMED) + ["0.0.0.1", "255.255.255.255"]
        for owner in world.allocator.owners():
            for block in world.allocator.blocks_of(owner):
                first, last = block.int_range
                addresses.extend(_dotted(v)
                                 for v in (first - 1, first, last, last + 1))
        for address in addresses:
            assert indexed.lookup(address) == linear.lookup(address)
        assert sum(indexed.lookup(a) is not None for a in addresses) > 100

    def test_overlapping_block_rejected(self):
        registry = ASRegistry()
        registry.register_as(ASRecord(asn=64512, name="A"))
        registry.assign_block(Netblock(cidr="10.0.0.0/16", owner="x"), 64512)
        with pytest.raises(ValueError):
            registry.assign_block(Netblock(cidr="10.0.128.0/17", owner="y"),
                                  64512)
