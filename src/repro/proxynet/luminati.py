"""Simulated Luminati residential proxy network.

Luminati (per Chung et al. and §2.2/§3.2 of the paper) routes customer
requests through a *superproxy* to residential *exit nodes* — machines of
Hola VPN users.  The measurement consequences the simulation reproduces:

* **Per-country exit pools.**  A client asks for a country; the superproxy
  picks an exit there.  North Korea (and a few microstates) have no exits.
* **Flaky paths.**  Residential connectivity is unreliable.  Each
  (domain, country) pair may be persistently flaky (bad peering, weak last
  mile), and every request has a small transient failure floor.  Rates are
  calibrated so that, with 3 samples per pair, 89–94% of domains yield at
  least one response per country — and Comoros lands near the paper's
  76.4% outlier.
* **Local interference.**  Some exits sit behind corporate or home
  firewalls that filter some domains locally; those exits return a local
  nginx 403 instead of the real page — a source of non-geoblocking block
  pages that the pipeline's 80% agreement threshold must absorb.
* **Luminati refusals.**  Luminati itself refuses to carry traffic to a
  small set of (popular) domains, signalled by an ``X-Luminati-Error``
  header; the Top-10K study saw 13 such domains, the Top-1M sample 3.
* **Geolocation metadata.**  Each probe reports the exit's IP and the
  geolocation Luminati believes, which the client uses for bookkeeping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.httpsim.messages import BodyPolicy, Headers, Request, Response
from repro.httpsim.url import URL, parse_url
from repro.httpsim.useragent import browser_headers
from repro.netsim.errors import (
    ConnectionTimeout,
    FetchError,
    LuminatiRefusal,
    NoExitAvailable,
    ProxyError,
)
from repro.proxynet.transport import DEFAULT_MAX_REDIRECTS, FetchResult, fetch_with_redirects
from repro.util.cache import MemoDict
from repro.util.counters import ShardedCounter
from repro.util.rng import derive_rng

#: Probability that a (domain, country) pair is persistently flaky, as a
#: function of the country's reliability score r: 0.02 + 1.1 * (1 - r).
_PAIR_FLAKY_BASE = 0.02
_PAIR_FLAKY_SLOPE = 1.1
#: Per-request failure probability on a flaky pair.
_FLAKY_FAIL = 0.9
#: Transient per-request failure floor on healthy pairs (scaled by country).
_HEALTHY_FAIL_SCALE = 1.0 / 3.0

#: Fraction of exits behind an interfering local firewall.
_FIREWALLED_EXIT_RATE = 0.03
#: Probability that a firewalled exit filters any particular domain.
_FIREWALL_DOMAIN_RATE = 0.05

#: Luminati refusal probability by rank bucket (Top-10K vs tail).
_REFUSAL_HEAD = 0.0018
_REFUSAL_TAIL = 0.0005

_LOCAL_FIREWALL_403 = (
    "<html>\r\n<head><title>403 Forbidden</title></head>\r\n"
    "<body bgcolor=\"white\">\r\n<center><h1>403 Forbidden</h1></center>\r\n"
    "<hr><center>nginx</center>\r\n</body>\r\n</html>\r\n"
)


@dataclass(frozen=True)
class ExitNode:
    """One residential exit machine."""

    country: str
    index: int
    ip: str
    firewalled: bool

    @property
    def node_id(self) -> str:
        """Stable identifier for rotation bookkeeping."""
        return f"{self.country}/{self.index}"


@dataclass
class ProbeResult:
    """One completed probe through Luminati.

    ``geo_country`` is the geolocation Luminati reported for the exit —
    the paper's analyses key measurements on this, *not* on ground truth.
    """

    url: str
    country: str                  # requested country
    response: Optional[Response]  # final response (None on failure)
    chain: List[Response] = field(default_factory=list)
    error: Optional[str] = None   # FetchError.kind on failure
    exit_ip: Optional[str] = None
    geo_country: Optional[str] = None
    interfered: bool = False      # served by a local firewall, not the site

    @property
    def ok(self) -> bool:
        """True when an HTTP response was obtained."""
        return self.response is not None

    @property
    def all_responses(self) -> List[Response]:
        """Every response in the redirect chain (final last)."""
        if self.response is None:
            return list(self.chain)
        return self.chain + [self.response]


class LuminatiClient:
    """The customer-facing API of the simulated proxy network."""

    def __init__(self, world, seed: Optional[int] = None,
                 exits_per_country: int = 400) -> None:
        self._world = world
        self._seed = world.config.seed if seed is None else seed
        self._exits_per_country = exits_per_country
        self._rng = derive_rng(self._seed, "luminati")
        self._exit_cache: MemoDict[str, List[ExitNode]] = MemoDict()
        self._request_count = ShardedCounter()
        # Absorption tokens already folded in (duplicate-batch guard).
        self._absorbed_tokens: Set[str] = set()
        # Hot-path memo tables: these predicates are deterministic
        # functions of (seed, domain[, country/exit]), so memoizing them
        # is semantics-preserving and avoids re-hashing on every probe.
        # parse_url is a pure function and probes revisit the same few
        # URLs per domain.  MemoDict marks the idempotent-write contract
        # that makes these safe to fill from scan workers.
        self._refusal_cache: MemoDict[str, bool] = MemoDict()
        self._flaky_cache: MemoDict[Tuple[str, str], bool] = MemoDict()
        self._fw_cache: MemoDict[Tuple[str, str], bool] = MemoDict()
        self._url_cache: MemoDict[str, URL] = MemoDict()

    # ------------------------------------------------------------------ #

    def countries(self) -> List[str]:
        """Countries with at least one residential exit."""
        return self._world.registry.luminati_codes()

    def exits(self, country: str) -> List[ExitNode]:
        """The exit pool for a country (built lazily, deterministic)."""
        pool = self._exit_cache.get(country)
        if pool is not None:
            return pool
        info = self._world.registry.get(country)
        if not info.luminati:
            raise NoExitAvailable(f"no Luminati exits in {country}")
        pool = []
        rng = derive_rng(self._seed, "exits", country)
        for index in range(self._exits_per_country):
            region = None
            if info.regions and rng.random() < 0.06:
                region = rng.choice(info.regions)
            ip = self._world.residential_address(country, rng, region=region)
            pool.append(ExitNode(
                country=country,
                index=index,
                ip=ip,
                firewalled=rng.random() < _FIREWALLED_EXIT_RATE,
            ))
        self._exit_cache[country] = pool
        return pool

    def pick_exit(self, country: str, rng: Optional[random.Random] = None) -> ExitNode:
        """Choose an exit node in a country."""
        pool = self.exits(country)
        r = rng if rng is not None else self._rng
        return r.choice(pool)

    def verify_connectivity(self, exit_node: ExitNode) -> Dict[str, str]:
        """Fetch the Luminati-controlled echo page through an exit.

        Returns the client IP and geolocation data the echo page reports —
        the connectivity pre-check Lumscan performs before real probes.
        """
        geo = self._world.geoip.lookup(exit_node.ip)
        return {
            "ip": exit_node.ip,
            "country": geo.country if geo else "ZZ",
            "region": (geo.region or "") if geo else "",
        }

    # ------------------------------------------------------------------ #

    def request(self, url: str, country: str,
                headers: Optional[Headers] = None,
                exit_node: Optional[ExitNode] = None,
                max_redirects: int = DEFAULT_MAX_REDIRECTS,
                epoch: int = 0,
                rng: Optional[random.Random] = None,
                body_policy: Optional[BodyPolicy] = None) -> ProbeResult:
        """Issue one probe from a residential exit in ``country``.

        ``rng``, when given, supplies every random draw the probe makes
        (path-failure rolls here, noise and render draws in the world), so
        the outcome is a pure function of the caller's rng state — the
        foundation of the scan engine's order-independent determinism.
        ``body_policy`` is forwarded to the world (see
        :meth:`repro.websim.world.World.fetch`).
        """
        self._request_count.increment()
        target = self._url_cache.get(url)
        if target is None:
            target = parse_url(url)
            self._url_cache[url] = target
        domain_name = self._registrable(target.host)

        if self._refused(domain_name):
            return ProbeResult(url=url, country=country, response=None,
                               error=LuminatiRefusal.kind)
        try:
            node = exit_node or self.pick_exit(country, rng=rng)
        except NoExitAvailable as exc:
            return ProbeResult(url=url, country=country, response=None,
                               error=exc.kind)

        geo = self._world.geoip.lookup(node.ip)
        geo_country = geo.country if geo else None

        if self._path_fails(domain_name, country, rng):
            return ProbeResult(url=url, country=country, response=None,
                               error=ConnectionTimeout.kind, exit_ip=node.ip,
                               geo_country=geo_country)

        if node.firewalled and self._locally_filtered(node, domain_name):
            response = Response(status=403, body=_LOCAL_FIREWALL_403, url=target)
            response.headers.add("Server", "nginx")
            return ProbeResult(url=url, country=country, response=response,
                               exit_ip=node.ip, geo_country=geo_country,
                               interfered=True)

        request = Request(url=target,
                          headers=(headers.copy() if headers else browser_headers()))
        try:
            result: FetchResult = fetch_with_redirects(
                self._world, request, node.ip,
                max_redirects=max_redirects, epoch=epoch, rng=rng,
                body_policy=body_policy)
        except FetchError as exc:
            return ProbeResult(url=url, country=country, response=None,
                               error=exc.kind, exit_ip=node.ip,
                               geo_country=geo_country)
        return ProbeResult(url=url, country=country, response=result.response,
                           chain=result.chain, exit_ip=node.ip,
                           geo_country=geo_country)

    @property
    def request_count(self) -> int:
        """Total probes issued through this client (workers included)."""
        return self._request_count.value

    @property
    def world(self):
        """The simulated world this client probes."""
        return self._world

    @property
    def seed(self) -> int:
        """The seed all client-side randomness derives from."""
        return self._seed

    @property
    def exits_per_country(self) -> int:
        """Size of each country's exit pool."""
        return self._exits_per_country

    def absorb_worker_counts(self, requests: int, fetches: int,
                             token: Optional[str] = None) -> None:
        """Fold in traffic stats reported by a worker process's replica.

        Process workers run their own client/world pair; their per-chunk
        deltas land here so ``request_count`` and ``world.fetch_count``
        stay accurate at any worker count.  A ``token`` marks the
        batch: absorbing a token that was already absorbed raises
        ``ValueError`` before any counter moves, so a retried or
        replayed chunk cannot double-count totals.
        """
        if token is not None:
            if token in self._absorbed_tokens:
                raise ValueError(
                    f"worker stats batch {token!r} was already absorbed")
            self._absorbed_tokens.add(token)
        self._request_count.add(requests)
        self._world.add_external_fetches(fetches)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _registrable(host: str) -> str:
        return host[4:] if host.startswith("www.") else host

    def _refused(self, domain_name: str) -> bool:
        cached = self._refusal_cache.get(domain_name)
        if cached is not None:
            return cached
        try:
            rank = self._world.population.get(domain_name).rank
        except KeyError:
            rank = 10 ** 9
        rate = _REFUSAL_HEAD if rank <= 10_000 else _REFUSAL_TAIL
        rng = derive_rng(self._seed, "lum-refusal", domain_name)
        refused = rng.random() < rate
        self._refusal_cache[domain_name] = refused
        return refused

    def _path_fails(self, domain_name: str, country: str,
                    rng: Optional[random.Random] = None) -> bool:
        info = self._world.registry.get(country)
        key = (domain_name, country)
        flaky = self._flaky_cache.get(key)
        if flaky is None:
            flaky_p = _PAIR_FLAKY_BASE + _PAIR_FLAKY_SLOPE * (1.0 - info.reliability)
            pair_rng = derive_rng(self._seed, "pair-flaky", domain_name, country)
            flaky = pair_rng.random() < flaky_p
            self._flaky_cache[key] = flaky
        draw = rng if rng is not None else self._rng
        if flaky:
            return draw.random() < _FLAKY_FAIL
        transient = (1.0 - info.reliability) * _HEALTHY_FAIL_SCALE
        return draw.random() < transient

    def _locally_filtered(self, node: ExitNode, domain_name: str) -> bool:
        key = (node.node_id, domain_name)
        cached = self._fw_cache.get(key)
        if cached is None:
            rng = derive_rng(self._seed, "fw", node.node_id, domain_name)
            cached = rng.random() < _FIREWALL_DOMAIN_RATE
            self._fw_cache[key] = cached
        return cached
