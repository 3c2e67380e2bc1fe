"""Background market participants: retail traders, borrowers, keepers.

These agents generate the organic transaction flow MEV feeds on: swaps
with imperfect slippage protection (sandwich victims), naive arbitrage
attempts (copy-frontrun victims), collateralized loans drifting toward
liquidation, and the oracle updates that push them over (backrun
triggers).  They also produce plain transfers — the traffic that makes
public/private classification non-trivial.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.agents.fees import FeeModel
from repro.chain.intents import TokenTransferIntent
from repro.chain.transaction import Transaction
from repro.chain.types import Address, address_from_label, ether
from repro.dex.amm import ConstantProductPool, get_amount_out
from repro.dex.registry import ExchangeRegistry
from repro.dex.router import ArbitrageIntent, SwapIntent
from repro.dex.token import WETH
from repro.lending.oracle import OracleUpdateIntent, PriceOracle
from repro.lending.pool import BorrowIntent, LendingPool
from repro.sim.prices import PriceUniverse


class TraderPopulation:
    """Retail accounts producing swaps, transfers and naive arbitrage."""

    def __init__(self, rng: random.Random, accounts: int = 200,
                 mean_swap_eth: float = 3.0,
                 funding_eth: float = 10_000.0) -> None:
        if accounts <= 0:
            raise ValueError("need at least one trader account")
        self.rng = rng
        self.accounts: List[Address] = [
            address_from_label(f"trader:{i}") for i in range(accounts)]
        self.mean_swap_eth = mean_swap_eth
        self.funding_eth = funding_eth
        #: static pool prefilters keyed by (kind, registry identity,
        #: pool count) — pools are only ever added, so the count is a
        #: sufficient registry version; liquidity is re-checked per call.
        self._pool_lists: dict = {}

    def __getstate__(self):
        # The prefilter cache is keyed by id(registry) — a memory
        # address — so pickling it would make seal bytes depend on the
        # process that produced them.  Drop it; rebuilding is a pure
        # filter over registry.pools and draws no randomness.
        state = self.__dict__.copy()
        state["_pool_lists"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._pool_lists = {}

    def _static_pools(self, registry: ExchangeRegistry,
                      kind: str) -> list:
        key = (kind, id(registry), registry.pool_count)
        cached = self._pool_lists.get(key)
        if cached is None:
            if kind == "weth-cp":
                cached = [p for p in registry.pools
                          if isinstance(p, ConstantProductPool)
                          and p.has_token(WETH)]
            else:  # "non-weth"
                cached = [p for p in registry.pools
                          if not p.has_token(WETH)]
            self._pool_lists[key] = cached
        return cached

    def _pick_account(self, state) -> Address:
        account = self.rng.choice(self.accounts)
        if state.eth_balance(account) < ether(self.funding_eth / 10):
            state.credit_eth(account, ether(self.funding_eth))
        return account

    def _sample_slippage_bps(self) -> int:
        """Mixture of slippage tolerances: some users protect themselves
        tightly, many leave room — the paper's sandwich supply."""
        roll = self.rng.random()
        if roll < 0.30:
            return self.rng.randint(10, 50)       # 0.1–0.5 % (tight)
        if roll < 0.80:
            return self.rng.randint(50, 200)      # 0.5–2 %
        return self.rng.randint(200, 1_000)       # 2–10 % (loose)

    def make_swap(self, state, registry: ExchangeRegistry,
                  fees: FeeModel) -> Optional[Transaction]:
        """One retail swap with sampled size and slippage tolerance."""
        # One reserve read per pool: the same pair feeds the liquidity
        # filter, the depth weights, the size conversion and the quote.
        # Nothing between here and the quote touches pool balances
        # (minting funds the *account*), so the snapshot stays exact.
        pools = []
        depths = []
        reserve_pairs = []
        for p in self._static_pools(registry, "weth-cp"):
            reserve0, reserve1 = p.reserves(state)
            if reserve0 > 0 and reserve1 > 0:
                pools.append(p)
                depths.append(reserve0 if p.token0 == WETH
                              else reserve1)
                reserve_pairs.append((reserve0, reserve1))
        if not pools:
            return None
        # Retail volume concentrates where liquidity is (why Uniswap V1
        # was near-dead by the study window): weight by WETH depth.
        index = self.rng.choices(range(len(pools)), weights=depths,
                                 k=1)[0]
        pool = pools[index]
        reserve0, reserve1 = reserve_pairs[index]
        if pool.token0 == WETH:
            reserve_weth, reserve_token = reserve0, reserve1
        else:
            reserve_weth, reserve_token = reserve1, reserve0
        account = self._pick_account(state)
        size_eth = self.rng.lognormvariate(0, 1.0) * self.mean_swap_eth
        size_eth = min(size_eth, 120.0)
        token_in = WETH if self.rng.random() < 0.5 else pool.other(WETH)
        if token_in == WETH:
            amount_in = ether(size_eth)
            reserve_in, reserve_out = reserve_weth, reserve_token
        else:
            # Convert the ETH-denominated size at the pool's spot price.
            amount_in = ether(size_eth) * reserve_token // reserve_weth
            reserve_in, reserve_out = reserve_token, reserve_weth
        if amount_in <= 0:
            return None
        state.mint_token(token_in, account, amount_in)
        quote = get_amount_out(amount_in, reserve_in, reserve_out,
                               pool.fee_bps)
        if quote <= 0:
            return None
        slippage_bps = self._sample_slippage_bps()
        min_out = quote * (10_000 - slippage_bps) // 10_000
        return Transaction(
            sender=account, nonce=state.nonce(account), to=pool.address,
            gas_limit=150_000,
            intent=SwapIntent(pool.address, token_in, amount_in,
                              min_amount_out=min_out),
            meta={"role": "retail-swap", "slippage_bps": slippage_bps},
            **fees.user_fields(self.rng))

    def make_transfer(self, state, fees: FeeModel) -> Transaction:
        """Plain background transfer (ETH or token)."""
        account = self._pick_account(state)
        recipient = self.rng.choice(self.accounts)
        if self.rng.random() < 0.5:
            return Transaction(sender=account,
                               nonce=state.nonce(account), to=recipient,
                               value=ether(self.rng.uniform(0.01, 2.0)),
                               gas_limit=21_000,
                               meta={"role": "transfer"},
                               **fees.user_fields(self.rng))
        token = self.rng.choice(["DAI", "USDC", "LINK"])
        amount = ether(self.rng.uniform(1, 500))
        state.mint_token(token, account, amount)
        return Transaction(sender=account, nonce=state.nonce(account),
                           to=recipient, gas_limit=60_000,
                           intent=TokenTransferIntent(token, recipient,
                                                      amount),
                           meta={"role": "transfer"},
                           **fees.user_fields(self.rng))

    def make_stable_swap(self, state, registry: ExchangeRegistry,
                         fees: FeeModel) -> Optional[Transaction]:
        """A stablecoin rotation on a non-WETH pool (e.g. Curve's
        DAI/USDC): the flow that pushes stable pegs off parity and opens
        triangular arbitrage routes."""
        # Same single-read snapshot as make_swap: minting funds the
        # account, so the reserves read at filter time still back the
        # quote exactly.
        pools = []
        reserve_pairs = []
        for p in self._static_pools(registry, "non-weth"):
            reserve0, reserve1 = p.reserves(state)
            if reserve0 > 0 and reserve1 > 0:
                pools.append(p)
                reserve_pairs.append((reserve0, reserve1))
        if not pools:
            return None
        index = self.rng.randrange(len(pools))
        pool = pools[index]
        reserve0, reserve1 = reserve_pairs[index]
        account = self._pick_account(state)
        if self.rng.random() < 0.5:
            token_in = pool.token0
            reserve_in, reserve_out = reserve0, reserve1
        else:
            token_in = pool.token1
            reserve_in, reserve_out = reserve1, reserve0
        # Stable rotations are large relative to spot trades.
        amount = ether(self.rng.uniform(10_000, 400_000))
        state.mint_token(token_in, account, amount)
        quote = pool.amount_out(amount, reserve_in, reserve_out, token_in)
        if quote <= 0:
            return None
        return Transaction(
            sender=account, nonce=state.nonce(account), to=pool.address,
            gas_limit=200_000,
            intent=SwapIntent(pool.address, token_in, amount,
                              min_amount_out=quote * 99 // 100),
            meta={"role": "stable-swap"},
            **fees.user_fields(self.rng))

    def make_naive_arbitrage(self, state, registry: ExchangeRegistry,
                             fees: FeeModel) -> Optional[Transaction]:
        """An amateur's under-sized, modest-fee arbitrage attempt — the
        victim of Definition 2's copy-and-frontrun strategy."""
        tokens = sorted({p.other(WETH) for p in registry.pools
                         if p.has_token(WETH)})
        self.rng.shuffle(tokens)
        for token in tokens:
            gap = registry.best_price_gap(state, WETH, token)
            if gap is None:
                continue
            cheap, dear, ratio = gap
            if ratio < 1.01:
                continue
            account = self._pick_account(state)
            amount = ether(self.rng.uniform(1, 5))
            state.mint_token(WETH, account, amount)
            return Transaction(
                sender=account, nonce=state.nonce(account),
                to=dear.address, gas_limit=400_000,
                intent=ArbitrageIntent(
                    route=[dear.address, cheap.address], token_in=WETH,
                    amount_in=amount, min_profit=1),
                meta={"role": "amateur-arb"},
                **fees.user_fields(self.rng))
        return None


class BorrowerPopulation:
    """Accounts opening risky collateralized loans over time."""

    def __init__(self, rng: random.Random, accounts: int = 50,
                 target_health: float = 1.10) -> None:
        if accounts <= 0:
            raise ValueError("need at least one borrower account")
        if target_health <= 1.0:
            raise ValueError("loans must open healthy")
        self.rng = rng
        self.accounts = [address_from_label(f"borrower:{i}")
                         for i in range(accounts)]
        self.target_health = target_health

    #: Collateral choices: mostly volatile assets (whose price drops are
    #: what makes loans liquidatable), plus some WETH positions that turn
    #: unhealthy when the stable *debt* appreciates against ETH.
    COLLATERAL_TOKENS = ("LINK", "WBTC", "UNI", WETH)

    def make_borrow(self, state, pool: LendingPool, oracle: PriceOracle,
                    fees: FeeModel, debt_token: str = "DAI",
                    ) -> Optional[Transaction]:
        """Open a loan whose health sits just above 1 (fragile by
        construction, as crypto borrowers empirically are)."""
        account = self.rng.choice(self.accounts)
        if state.eth_balance(account) < ether(10):
            state.credit_eth(account, ether(1_000))
        # Restrict to tokens the world's oracle actually prices (custom
        # scenarios may deploy a smaller token universe).
        candidates = [t for t in self.COLLATERAL_TOKENS
                      if oracle.has_price(t)] or [WETH]
        collateral_token = self.rng.choice(candidates)
        collateral_value_target = ether(self.rng.uniform(5, 50))
        price = oracle.price(collateral_token)
        collateral = collateral_value_target * 10**18 // price
        if collateral <= 0:
            return None
        state.mint_token(collateral_token, account, collateral)
        health = self.target_health * self.rng.uniform(1.0, 1.25)
        collateral_value = oracle.value_in_eth(collateral_token,
                                               collateral)
        debt_value = int(collateral_value
                         * pool.liquidation_threshold_bps / 10_000
                         / health)
        debt_price = oracle.price(debt_token)
        debt_amount = debt_value * 10**18 // debt_price
        if debt_amount <= 0:
            return None
        return Transaction(
            sender=account, nonce=state.nonce(account), to=pool.address,
            gas_limit=300_000,
            intent=BorrowIntent(pool.address, collateral_token,
                                collateral, debt_token, debt_amount),
            meta={"role": "borrower"},
            **fees.user_fields(self.rng))


class OracleKeeper:
    """Posts price updates on a schedule, sampling the price universe.

    Each update is an ordinary public transaction — visible in the
    mempool, and therefore a proactive liquidator's backrun target.
    """

    def __init__(self, rng: random.Random, oracle: PriceOracle,
                 universe: PriceUniverse,
                 update_interval_blocks: int = 20) -> None:
        if update_interval_blocks <= 0:
            raise ValueError("interval must be positive")
        self.rng = rng
        self.oracle = oracle
        self.universe = universe
        self.update_interval_blocks = update_interval_blocks
        self.address = address_from_label("oracle-keeper")

    def make_updates(self, state, fees: FeeModel,
                     block_number: int) -> List[Transaction]:
        """Zero or more oracle-update transactions for this block."""
        if block_number % self.update_interval_blocks != 0:
            return []
        if state.eth_balance(self.address) < ether(1):
            state.credit_eth(self.address, ether(100))
        updates: List[Transaction] = []
        nonce = state.nonce(self.address)
        for token, price in self.universe.step_all().items():
            updates.append(Transaction(
                sender=self.address, nonce=nonce,
                to=self.oracle.address, gas_limit=80_000,
                intent=OracleUpdateIntent(self.oracle.address, token,
                                          price),
                meta={"role": "oracle-update"},
                **fees.user_fields(self.rng, urgency=1.2)))
            nonce += 1
        return updates
