"""Golden pin of the rows + quality ledger under every fault profile.

Each case below measures one fixed world (12 blocks/month, seed 7)
through the shielded, fault-injected sources and reduces the result to
two sha256 digests: ``rows`` (the canonical detection rows) and
``ledger`` (the ``DataQualityReport``).  A run that raises is pinned by
its exception type and message instead (``raises``).  The digests live
in ``golden_ledger.json`` next to this file; a change to fault
injection, retry/breaker accounting, the join traffic or the chunk
runner's archive-op sequence moves ``ledger``, and a mismatch names
every changed case and which half of it moved.

Regenerate the fixture (only for an intended ledger change) with::

    PYTHONPATH=src python -m tests.reliability.test_ledger_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import RunConfig, follow_inspector, run_inspector
from repro.chain.block import Block
from repro.chain.events import FlashLoanEvent, SwapEvent
from repro.chain.receipt import Receipt
from repro.chain.transaction import Transaction
from repro.faults import FaultPlan
from repro.reliability import RetryPolicy, shield
from repro.sim import ScenarioConfig, build_paper_scenario

GOLDEN = Path(__file__).with_name("golden_ledger.json")

BATCH_PROFILES = ("none", "transient", "gaps", "outage", "chaos")
FOLLOW_PROFILES = ("chaos", "reorg", "gaps", "outage")
CHUNK_SIZES = (None, 10, 25)


def _digest(value):
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome(run):
    """The rows and ledger digests of ``run()``'s dataset, or its
    exception."""
    try:
        dataset = run()
    except Exception as error:  # noqa: BLE001 — the raise is pinned
        return {"raises": f"{type(error).__name__}: {error}"}
    return {"rows": _digest(dataset.to_rows()),
            "ledger": _digest(dataset.quality.to_dict())}


def _plan(result, profile, seed):
    if profile == "none":
        return None
    return FaultPlan.from_profile(profile, seed,
                                  result.node.earliest_block_number(),
                                  result.node.latest_block_number())


def _canon(value):
    """A stable, hashable rendering of one source answer."""
    if isinstance(value, Block):
        return ["block", value.number, value.hash]
    if isinstance(value, Transaction):
        return ["tx", value.hash]
    if isinstance(value, Receipt):
        return ["receipt", value.tx_hash, value.block_number,
                value.status, value.gas_used, len(value.logs)]
    if isinstance(value, (set, frozenset)):
        return sorted(_canon(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _surface_digest(result, profile, seed):
    """Every method of the three shielded sources (``rows``), then
    their caller stats (``ledger``)."""
    plan = _plan(result, profile, seed)
    node, observer, api = shield(result.node, result.observer,
                                 result.flashbots_api, plan=plan)
    first = result.node.earliest_block_number()
    last = result.node.latest_block_number()
    heights = list(range(first, last + 1, 7))
    hashes = [tx.hash for number in heights
              for tx in result.node.get_block(number).transactions[:2]]
    calls = [("archive.latest_block_number", node.latest_block_number),
             ("archive.earliest_block_number",
              node.earliest_block_number),
             ("mempool.downtime_ranges",
              lambda: observer.downtime_ranges),
             ("mempool.observed_hashes",
              lambda: observer.observed_hashes),
             ("mempool.len", lambda: len(observer)),
             ("mempool.observed_count", lambda: observer.observed_count),
             ("mempool.missed_count", lambda: observer.missed_count),
             ("mempool.gossiped_total", lambda: observer.gossiped_total),
             ("mempool.observed_coverage", observer.observed_coverage),
             ("flashbots.coverage_gaps", api.coverage_gaps),
             ("flashbots.all_blocks", api.all_blocks),
             ("flashbots.flashbots_tx_hashes", api.flashbots_tx_hashes),
             ("flashbots.block_count", api.block_count),
             ("flashbots.bundle_count", api.bundle_count)]
    for number in heights:
        hi = min(number + 4, last)
        calls += [
            (f"archive.get_block({number})",
             lambda n=number: node.get_block(n)),
            (f"archive.iter_blocks({number},{hi})",
             lambda n=number, h=hi: node.iter_blocks(n, h)),
            (f"archive.get_logs({number},{hi})",
             lambda n=number, h=hi: node.get_logs(SwapEvent, n, h)),
            (f"archive.get_logs.flash({number},{hi})",
             lambda n=number, h=hi: node.get_logs(FlashLoanEvent, n, h)),
            (f"archive.iter_receipts({number},{hi})",
             lambda n=number, h=hi: node.iter_receipts(n, h)),
            (f"mempool.in_window({number})",
             lambda n=number: observer.in_window(n)),
            (f"mempool.was_down({number})",
             lambda n=number: observer.was_down(n)),
            (f"flashbots.has_block_data({number})",
             lambda n=number: api.has_block_data(n)),
            (f"flashbots.blocks_until({number})",
             lambda n=number: api.blocks_until(n)),
            (f"flashbots.get_block({number})",
             lambda n=number: api.get_block(n)),
            (f"flashbots.is_flashbots_block({number})",
             lambda n=number: api.is_flashbots_block(n)),
        ]
    for tx_hash in hashes:
        calls += [
            (f"archive.get_transaction({tx_hash})",
             lambda h=tx_hash: node.get_transaction(h)),
            (f"archive.get_receipt({tx_hash})",
             lambda h=tx_hash: node.get_receipt(h)),
            (f"mempool.was_observed({tx_hash})",
             lambda h=tx_hash: observer.was_observed(h)),
            (f"mempool.first_seen({tx_hash})",
             lambda h=tx_hash: observer.first_seen(h)),
            (f"flashbots.is_flashbots_tx({tx_hash})",
             lambda h=tx_hash: api.is_flashbots_tx(h)),
            (f"flashbots.tx_label({tx_hash})",
             lambda h=tx_hash: api.tx_label(h)),
        ]
    answers = {}
    for name, call in calls:
        try:
            answers[name] = _canon(call())
        except Exception as error:  # noqa: BLE001 — the raise is pinned
            answers[name] = f"raises {type(error).__name__}: {error}"
    stats = {source.caller.source: [vars(source.caller.stats),
                                    source.caller.breaker_trips]
             for source in (node, observer, api)}
    return {"rows": _digest(answers), "ledger": _digest(stats)}


def _cases():
    """``(case id, runner)`` for every pinned case, in fixture order."""
    cases = []
    for profile in BATCH_PROFILES:
        for seed in (1, 2, 3):
            for size in CHUNK_SIZES:
                cases.append((
                    f"batch/{profile}/seed{seed}/chunk{size}",
                    lambda r, p=profile, s=seed, c=size: _outcome(
                        lambda: run_inspector(
                        r, fault_plan=_plan(r, p, s),
                        config=RunConfig(chunk_size=c)))))
            cases.append((
                f"batch-retry2/{profile}/seed{seed}/chunk25",
                lambda r, p=profile, s=seed: _outcome(
                    lambda: run_inspector(
                        r, fault_plan=_plan(r, p, s),
                        retry=RetryPolicy(max_attempts=2, seed=s),
                        config=RunConfig(chunk_size=25)))))
    for profile in FOLLOW_PROFILES:
        for seed in (1, 2):
            cases.append((
                f"follow/{profile}/seed{seed}",
                lambda r, p=profile, s=seed: _outcome(
                    lambda: follow_inspector(
                        r, fault_plan=_plan(r, p, s)))))
    cases.append(("surface/chaos/seed5",
                  lambda r: _surface_digest(r, "chaos", 5)))
    return cases


def _world():
    from repro.chain.transaction import reset_tx_counter
    reset_tx_counter()
    return build_paper_scenario(
        ScenarioConfig(blocks_per_month=12, seed=7)).run()


def compute_golden(result):
    return {case_id: run(result) for case_id, run in _cases()}


@pytest.fixture(scope="module")
def world():
    return _world()


def test_ledger_matches_golden(world):
    expected = json.loads(GOLDEN.read_text())
    actual = compute_golden(world)
    assert sorted(actual) == sorted(expected)
    changed = []
    for case_id, want in expected.items():
        got = actual[case_id]
        halves = sorted(half for half in set(want) | set(got)
                        if want.get(half) != got.get(half))
        if halves:
            changed.append(f"{case_id}: {'+'.join(halves)}")
    assert changed == [], \
        f"{len(changed)} pinned cases changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(compute_golden(_world()), indent=1, sort_keys=True)
        + "\n")
