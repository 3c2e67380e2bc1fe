#!/usr/bin/env python3
"""One liquidation race, two auction designs.

Part 1 (paper §2.2.2): an unhealthy loan liquidated at a fixed spread —
one atomic transaction, first-come-first-served, the MEV race.  These
are the only liquidations the paper's MEV dataset counts.

Part 2 (paper §8.2): the same MEV opportunities auctioned both ways —
an open priority-gas-auction (pre-Flashbots) versus a sealed-bid
Flashbots auction — showing where the surplus goes under each design.
"""

import random

from repro.agents.pga import PgaBidder, compare_mechanisms, \
    run_open_pga, run_sealed_bid
from repro.chain.block import BlockBuilder
from repro.chain.execution import ExecutionContext
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.chain.types import address_from_label, ether, gwei, to_eth
from repro.lending.oracle import PRICE_SCALE, PriceOracle
from repro.lending.pool import LendingPool, LiquidationIntent

MINER = address_from_label("mech-miner")
BORROWER = address_from_label("mech-borrower")
RACER = address_from_label("mech-racer")


def build_lending_world():
    state = WorldState()
    oracle = PriceOracle()
    oracle.set_price("DAI", PRICE_SCALE // 3_000)
    pool = LendingPool("AaveV2", oracle)
    pool.provision(state, "DAI", ether(1_000_000))
    state.mint_token("WETH", BORROWER, ether(10))
    state.credit_eth(RACER, ether(50))
    state.mint_token("DAI", RACER, ether(100_000))
    tx = Transaction(sender=BORROWER, nonce=0, to=pool.address)
    ctx = ExecutionContext(state, tx, block_number=1, coinbase=MINER,
                           contracts={pool.address: pool})
    loan = pool.open_loan(ctx, "WETH", ether(10), "DAI", ether(20_000))
    oracle.set_price("DAI", PRICE_SCALE // 2_000)  # crash
    return state, pool, loan


def mine(state, contracts, sender, intent, number):
    tx = Transaction(sender=sender, nonce=state.nonce(sender),
                     to=list(contracts)[0], gas_price=gwei(30),
                     gas_limit=600_000, intent=intent)
    builder = BlockBuilder(state, number=number, timestamp=13 * number,
                           coinbase=MINER, base_fee=0,
                           contracts=contracts)
    receipt = builder.apply_transaction(tx)
    builder.finalize()
    return receipt


def part1_fixed_spread():
    print("=" * 64)
    print("Part 1 — fixed-spread liquidation (one atomic transaction)")
    print("=" * 64)
    state, pool, loan = build_lending_world()
    contracts = {pool.address: pool}
    weth0 = state.token_balance("WETH", RACER)
    receipt = mine(state, contracts, RACER,
                   LiquidationIntent(pool.address, loan.loan_id,
                                     pool.max_repay(loan)), number=2)
    seized = state.token_balance("WETH", RACER) - weth0
    print(f"One block, one transaction: the first liquidator seizes "
          f"{to_eth(seized):.2f} WETH\n(status={receipt.status}). "
          f"Whoever orders first wins everything → a frontrunning race.")


def part2_auction_designs():
    print("\n" + "=" * 64)
    print("Part 2 — who keeps the MEV: open PGA vs sealed bid (§8.2)")
    print("=" * 64)
    rng = random.Random(11)
    bidders = [PgaBidder("fast-bot", ether(1.0)),
               PgaBidder("slow-bot", ether(0.7)),
               PgaBidder("hobbyist", ether(0.3))]
    pga = run_open_pga(bidders)
    sealed = run_sealed_bid(bidders, rng)
    print(f"One 1.0-ETH opportunity, three bidders:")
    print(f"  open PGA   : {pga.winner} wins after {pga.rounds} bids, "
          f"pays {to_eth(pga.fee_paid_wei):.3f} ETH, keeps "
          f"{to_eth(pga.winner_profit_wei):.3f}")
    print(f"  sealed bid : {sealed.winner} wins blind, pays "
          f"{to_eth(sealed.fee_paid_wei):.3f} ETH, keeps "
          f"{to_eth(sealed.winner_profit_wei):.3f}")
    result = compare_mechanisms(random.Random(3), opportunities=300)
    print(f"\nOver 300 sampled opportunities:")
    print(f"  miner's share of MEV — PGA: "
          f"{100 * result.pga_miner_share:.1f}%,  sealed: "
          f"{100 * result.sealed_miner_share:.1f}%")
    print("The sealed-bid design is what hands miners the surplus — "
          "Figure 8's inversion by construction.")


if __name__ == "__main__":
    part1_fixed_spread()
    part2_auction_designs()
