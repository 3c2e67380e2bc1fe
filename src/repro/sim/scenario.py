"""The calibrated "paper scenario": the real timeline, in miniature.

Assembles a :class:`~repro.sim.world.World` whose populations and event
schedule mirror the study window:

* Flashbots launches in February 2021; miners enroll biggest-first until
  ~99.9 % of hashpower is inside (Figure 4), while the miner *count*
  stays ≤55 (Figure 5);
* searchers adopt Flashbots through 2021, then partially leave after
  September 2021 for private pools or the public mempool (Figures 3, 7);
* the Berlin and London forks land mid-window (Figure 6's markers);
* the Taichi pool shuts down in October 2021, Eden keeps running, and two
  mining pools (modelled on Flexpool and F2Pool) extract sandwich MEV
  privately for their own accounts (Section 6.3);
* the measurement node's pending-transaction observation window covers
  the final months (Section 3.2), enabling the private-MEV inference.
"""

from __future__ import annotations

import random
from typing import List

from repro.agents.miner import MinerProfile, MinerSet, PayoutSchedule, \
    zipf_hashpowers
from repro.agents.searcher import (
    ArbitrageSearcher,
    ChannelPolicy,
    LiquidationSearcher,
    OtherBundleUser,
    SandwichSearcher,
    Searcher,
)
from repro.agents.trader import BorrowerPopulation, OracleKeeper, \
    TraderPopulation
from repro.chain.fork import ForkSchedule
from repro.chain.state import WorldState
from repro.chain.types import ether
from repro.dex.registry import (
    BALANCER,
    UNISWAP_V1,
    BANCOR,
    CURVE,
    SUSHISWAP,
    UNISWAP_V2,
    UNISWAP_V3,
    ExchangeRegistry,
)
from repro.dex.token import WETH
from repro.flashbots.relay import Relay
from repro.lending.flashloan import FlashLoanProvider
from repro.lending.oracle import PRICE_SCALE, PriceOracle
from repro.lending.pool import LendingPool
from repro.markers import fast_path
from repro.privatepools.pool import PrivatePool, PrivatePoolDirectory
from repro.sim.calendar import StudyCalendar
from repro.sim.config import ScenarioConfig
from repro.sim.prices import PriceUniverse
from repro.sim.world import EpochSeal, World

#: Initial token prices in wei of ETH per 10^18 raw units.
INITIAL_PRICES = {
    "DAI": PRICE_SCALE // 3_000,
    "USDC": PRICE_SCALE // 3_000,
    "LINK": PRICE_SCALE // 150,
    "UNI": PRICE_SCALE // 180,
    "WBTC": PRICE_SCALE * 14,
}

#: (venue, tokenA, tokenB, WETH-side depth in ETH) for every pool.
#: The Curve DAI/USDC pool is added separately (stableswap math).
POOL_PLAN = [
    (UNISWAP_V2, WETH, "DAI", 3_000),
    (UNISWAP_V2, WETH, "USDC", 2_500),
    (UNISWAP_V2, WETH, "LINK", 1_200),
    (UNISWAP_V2, WETH, "UNI", 900),
    (UNISWAP_V2, WETH, "WBTC", 1_500),
    (SUSHISWAP, WETH, "DAI", 2_000),
    (SUSHISWAP, WETH, "USDC", 1_500),
    (SUSHISWAP, WETH, "LINK", 700),
    (SUSHISWAP, WETH, "UNI", 500),
    (UNISWAP_V3, WETH, "DAI", 4_000),
    (UNISWAP_V3, WETH, "USDC", 3_500),
    (UNISWAP_V1, WETH, "DAI", 250),
    (UNISWAP_V1, WETH, "LINK", 120),
    (BANCOR, WETH, "LINK", 500),
    (BANCOR, WETH, "DAI", 600),
    (BALANCER, WETH, "WBTC", 800),
]


def _build_markets(config: ScenarioConfig, state: WorldState,
                   rng: random.Random):
    """Deploy pools with slightly de-synchronized initial prices."""
    registry = ExchangeRegistry()
    for venue, token_a, token_b, depth_eth in POOL_PLAN:
        pool = registry.create_pool(venue, token_a, token_b)
        token = token_b if token_a == WETH else token_a
        weth_reserve = ether(depth_eth)
        price = INITIAL_PRICES[token]
        # ±0.7 % venue-to-venue skew seeds the cross-venue gaps that real
        # retail flow keeps replenishing.
        skew = 1.0 + rng.uniform(-0.007, 0.007)
        token_reserve = int(weth_reserve * PRICE_SCALE // price * skew)
        if hasattr(pool, "weight_of"):
            # Weighted pools price at (B/w) ratios: rebalance the token
            # side so the initial spot price still matches the oracle.
            token_reserve = (token_reserve * pool.weight_of(token)
                             // pool.weight_of(WETH))
        pool.add_liquidity(state, **{WETH: weth_reserve,
                                     token: token_reserve})
    curve = registry.create_pool(CURVE, "DAI", "USDC")
    curve.add_liquidity(state, DAI=ether(5_000_000),
                        USDC=ether(5_000_000))
    return registry


def _build_miners(config: ScenarioConfig,
                  calendar: StudyCalendar) -> MinerSet:
    """Long-tailed hashpower with biggest-first Flashbots enrollment."""
    launch = calendar.first_block_of(config.flashbots_launch_month)
    bpm = calendar.blocks_per_month
    weights = zipf_hashpowers(config.num_miners,
                              config.hashpower_exponent)
    named = ["ethermine", "f2pool", "flexpool", "hiveon", "nanopool"]
    miners: List[MinerProfile] = []
    for rank, hashpower in enumerate(weights):
        name = named[rank] if rank < len(named) else f"miner-{rank}"
        # Enrollment schedule (months after launch), biggest first: the
        # top pools join within a month, the tail trickles in for a year.
        if rank < 2:
            delay = 0.2
        elif rank < 5:
            delay = 0.8
        elif rank < 15:
            delay = 2.0
        elif rank < 35:
            delay = 4.0
        elif rank < config.num_miners - 2:
            delay = 8.0
        else:
            delay = None  # the last two tiny miners never join
        join = None if delay is None else launch + int(delay * bpm)
        payout = None
        if name in ("ethermine", "f2pool"):
            payout = PayoutSchedule(
                interval_blocks=config.payout_interval_blocks,
                recipients=config.payout_recipients,
                amount_wei=ether(0.1))
        self_mev = name in ("f2pool", "flexpool")[
            :config.num_self_mev_miners]
        miners.append(MinerProfile(
            name=name, hashpower=hashpower,
            flashbots_join_block=join,
            private_pools=("eden",) if rank < 6 else (),
            self_mev=self_mev, payout_schedule=payout))
    return MinerSet(miners)


def _fund_searcher(state: WorldState, searcher: Searcher,
                   capital_eth: float) -> None:
    state.credit_eth(searcher.address, ether(capital_eth))
    state.mint_token(WETH, searcher.address, ether(capital_eth))
    for token, price in INITIAL_PRICES.items():
        amount = ether(capital_eth) * PRICE_SCALE // price
        state.mint_token(token, searcher.address, amount)


def _build_searchers(config: ScenarioConfig, calendar: StudyCalendar,
                     state: WorldState,
                     rng: random.Random) -> List[Searcher]:
    launch = calendar.first_block_of(config.flashbots_launch_month)
    exodus = calendar.first_block_of(config.exodus_month)
    bpm = calendar.blocks_per_month
    min_profit = ether(config.searcher_min_profit_eth)
    searchers: List[Searcher] = []

    def policy_for(index: int, population: int) -> ChannelPolicy:
        """The paper's lifecycle mix: stay-public, FB-forever, FB-then-
        private, FB-then-public, late-FB."""
        roll = index % 6
        stagger = launch + int((index % 4) * 0.75 * bpm)
        if roll == 0:
            return ChannelPolicy()  # never leaves the public mempool
        if roll == 1:
            return ChannelPolicy(flashbots_from=stagger)  # FB forever
        if roll == 2:  # tried FB, drifted to Eden after the exodus
            return ChannelPolicy(flashbots_from=stagger,
                                 flashbots_until=exodus,
                                 private_pool="eden",
                                 private_from=exodus + bpm)
        if roll == 3:  # loyal: joined early, stays on Flashbots
            return ChannelPolicy(flashbots_from=launch)
        if roll == 4:  # FB → Taichi; back to public when it shuts down
            return ChannelPolicy(
                flashbots_from=stagger, flashbots_until=exodus,
                private_pool="taichi", private_from=exodus,
                private_until=calendar.first_block_of(
                    config.taichi_shutdown_month))
        return ChannelPolicy(  # late adopter
            flashbots_from=launch + int(3.5 * bpm))

    attempt = config.searcher_attempt_rate
    for i in range(config.num_sandwich_searchers):
        # A slice of the searcher population quits MEV entirely after the
        # exodus (Figure 7a's decline in active searchers).
        until = exodus + int((i % 3) * bpm) if i % 4 == 1 else None
        searchers.append(SandwichSearcher(
            f"sand-{i}", policy_for(i, config.num_sandwich_searchers),
            active_from=1 + (i % 5) * 2 * bpm, active_until=until,
            faulty_rate=config.searcher_faulty_rate,
            min_profit_wei=min_profit, attempt_rate=attempt,
            tip_mean=config.sealed_bid_tip_mean))
    for i in range(config.num_arbitrage_searchers):
        until = exodus + int((i % 3) * bpm) if i % 4 == 2 else None
        searchers.append(ArbitrageSearcher(
            f"arb-{i}", policy_for(i + 1, config.num_arbitrage_searchers),
            active_from=1 + (i % 5) * 2 * bpm, active_until=until,
            faulty_rate=config.searcher_faulty_rate,
            uses_flash_loans=(i / max(1, config.num_arbitrage_searchers)
                              < config.flash_loan_user_fraction),
            min_profit_wei=2 * min_profit, attempt_rate=attempt,
            tip_mean=config.sealed_bid_tip_mean))
    for i in range(config.num_liquidation_searchers):
        searchers.append(LiquidationSearcher(
            f"liq-{i}", policy_for(i + 2,
                                   config.num_liquidation_searchers),
            active_from=1 + (i % 3) * 2 * bpm,
            faulty_rate=config.searcher_faulty_rate,
            uses_flash_loans=(i / max(1,
                                      config.num_liquidation_searchers)
                              < 2 * config.flash_loan_user_fraction),
            min_profit_wei=min_profit, attempt_rate=attempt,
            tip_mean=config.sealed_bid_tip_mean))
    for i in range(config.num_other_users):
        start = launch + int((i % 8) * 0.6 * bpm)
        # A third of the "other" users churn out after the exodus, which
        # is what pulls Figure 3 back under 50 % in 2022.
        until = None
        if i % 2 == 0:
            until = exodus + int((i % 5) * 0.8 * bpm)
        searchers.append(OtherBundleUser(
            f"other-{i}", ChannelPolicy(flashbots_from=start),
            active_from=1, active_until=until,
            activity=0.016))

    for searcher in searchers:
        # Flash-loan users are thinly capitalized by design: the loan is
        # their capital (the democratization story flash loans enable).
        capital = (config.flash_user_capital_eth
                   if searcher.uses_flash_loans
                   else config.searcher_capital_eth)
        _fund_searcher(state, searcher, capital)
    return searchers


def _build_self_mev_searchers(config: ScenarioConfig,
                              state: WorldState, miners: MinerSet,
                              ) -> dict:
    """Miners extracting sandwich MEV privately for their own account
    (Section 6.3): each gets a dedicated extraction persona that scans
    the mempool whenever its miner builds a block, so every one of its
    sandwiches is mined by exactly that miner."""
    personas = {}
    for miner in miners.miners:
        if not miner.self_mev:
            continue
        searcher = SandwichSearcher(
            f"self-{miner.name}",
            ChannelPolicy(private_pool=f"self:{miner.name}",
                          private_from=1),
            active_from=1, visibility=0.8, max_targets_per_block=2,
            pick_random_targets=True,
            min_profit_wei=ether(config.searcher_min_profit_eth))
        _fund_searcher(state, searcher, config.searcher_capital_eth)
        personas[miner.address] = searcher
    return personas


def scenario_frame(config: ScenarioConfig):
    """The deterministic scaffolding every world for ``config`` shares:
    ``(calendar, forks, flashbots_launch_block)``.  Derived from the
    config alone — no RNG draws — so restored epoch workers and the
    splice step agree with the serial run by construction."""
    calendar = StudyCalendar(config.blocks_per_month, config.months)
    forks = ForkSchedule(
        berlin_block=calendar.first_block_of(config.berlin_month),
        london_block=calendar.first_block_of(config.london_month))
    launch = calendar.first_block_of(config.flashbots_launch_month)
    return calendar, forks, launch


def restore_paper_scenario(config: ScenarioConfig,
                           seal: EpochSeal) -> World:
    """Rebuild a mid-window :class:`World` from an :class:`EpochSeal`.

    The carried-object graph is unpickled once and its components are
    passed through the :class:`World` constructor — so contract wiring
    (``_collect_contracts``) and the gas model attach to the *restored*
    state — then :meth:`World.restore_carry` adopts the remaining
    carried pieces (mempool, gossip/observer trace, fee state, ground
    truths) and positions the world at the seal's first block.  Running
    it reproduces the serial run's blocks from that boundary on,
    draw for draw.
    """
    carried = seal.carried()
    calendar, forks, launch = scenario_frame(config)
    world = World(
        config=config, calendar=calendar, forks=forks,
        state=carried["state"], registry=carried["registry"],
        oracle=carried["oracle"], universe=carried["universe"],
        lending_pools=carried["lending_pools"],
        flash_provider=carried["flash_provider"],
        miners=carried["miners"], relay=carried["relay"],
        private_pools=carried["private_pools"],
        traders=carried["traders"], borrowers=carried["borrowers"],
        keeper=carried["keeper"], searchers=carried["searchers"],
        flashbots_launch_block=launch,
        rng=random.Random(config.seed + 5),
        self_mev_searchers=carried["self_mev_searchers"])
    world.restore_carry(seal, carried)
    return world


@fast_path(toggle="fast_paths")
def build_paper_scenario(config: ScenarioConfig,
                         fast_paths: bool = True) -> World:
    """Assemble the full calibrated world for the study window.

    ``fast_paths=False`` builds the world on the naive reference paths
    (full mempool re-sorts, no scan memoization); its block-hash sequence
    is asserted identical to the optimized default by the bench gate.
    """
    rng = random.Random(config.seed)
    calendar, forks, launch = scenario_frame(config)
    state = WorldState()
    registry = _build_markets(config, state, rng)

    oracle = PriceOracle()
    universe = PriceUniverse(seed=config.seed)
    for token, price in INITIAL_PRICES.items():
        oracle.set_price(token, price)
        universe.add_token(token, price,
                           volatility=config.token_volatility)

    aave = LendingPool("AaveV2", oracle)
    compound = LendingPool("Compound", oracle)
    for pool in (aave, compound):
        pool.provision(state, "DAI", ether(50_000_000))
        pool.provision(state, "USDC", ether(50_000_000))
    flash = FlashLoanProvider("Aave")
    for token in (WETH, "DAI", "USDC"):
        flash.provision(state, token, ether(1_000_000))

    miners = _build_miners(config, calendar)

    directory = PrivatePoolDirectory()
    eden_members = [m.address for m in miners.miners[:6]]
    directory.add(PrivatePool("eden", eden_members))
    taichi_members = [m.address for m in miners.miners[2:8]]
    directory.add(PrivatePool(
        "taichi", taichi_members,
        shutdown_block=calendar.first_block_of(
            config.taichi_shutdown_month)))

    searchers = _build_searchers(config, calendar, state, rng)
    self_mev = _build_self_mev_searchers(config, state, miners)

    relay = Relay(max_bundles_per_searcher_per_block=5)
    for searcher in searchers:
        relay.register_searcher(searcher.address)
    for miner in miners.miners:
        if miner.flashbots_join_block is not None:
            relay.register_miner(miner.address)

    traders = TraderPopulation(random.Random(config.seed + 2),
                               accounts=config.num_traders)
    borrowers = BorrowerPopulation(random.Random(config.seed + 3),
                                   accounts=config.num_borrowers)
    keeper = OracleKeeper(
        random.Random(config.seed + 4), oracle, universe,
        update_interval_blocks=config.oracle_interval_blocks)

    return World(config=config, calendar=calendar, forks=forks,
                 state=state, registry=registry, oracle=oracle,
                 universe=universe, lending_pools=[aave, compound],
                 flash_provider=flash, miners=miners, relay=relay,
                 private_pools=directory, traders=traders,
                 borrowers=borrowers, keeper=keeper,
                 searchers=searchers,
                 flashbots_launch_block=launch,
                 rng=random.Random(config.seed + 5),
                 self_mev_searchers=self_mev,
                 fast_paths=fast_paths)
