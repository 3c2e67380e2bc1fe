"""``RunConfig``: one frozen execution contract, the only run surface."""

import dataclasses

import pytest

from repro import follow_inspector, quick_study, run_inspector
from repro.core.pipeline import MevInspector
from repro.core.profit import PriceService
from repro.engine import RunConfig
from repro.reliability import shield


class TestValidation:
    def test_frozen(self):
        config = RunConfig(chunk_size=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.chunk_size = 20

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            RunConfig(workers=0)

    def test_negative_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            RunConfig(chunk_size=-5)

    def test_confirm_depth_validated(self):
        assert RunConfig().confirm_depth == 3
        assert RunConfig(confirm_depth=0).confirm_depth == 0
        with pytest.raises(ValueError, match="confirm_depth"):
            RunConfig(confirm_depth=-1)


class TestEquivalence:
    def test_config_run_equals_loose_kwarg_run(self, sim_result,
                                               serial_baseline):
        config = RunConfig(chunk_size=25, workers=1)
        dataset = run_inspector(sim_result, config=config)
        assert dataset.fingerprint() == serial_baseline.fingerprint()


def _inspector_run(sim_result, **loose):
    node, observer, api = shield(sim_result.node, sim_result.observer,
                                 sim_result.flashbots_api)
    return MevInspector(node, PriceService(sim_result.oracle), api,
                        observer).run(**loose)


class TestNoLooseKwargs:
    """Run settings travel only inside a ``RunConfig``."""

    @pytest.mark.parametrize("loose", [{"chunk_size": 25},
                                       {"confirm_depth": 5}],
                             ids=["chunk_size", "confirm_depth"])
    @pytest.mark.parametrize("entry", [
        _inspector_run,
        run_inspector,
        follow_inspector,
        lambda sim_result, **loose: quick_study(
            blocks_per_month=12, **loose),
    ], ids=["MevInspector.run", "run_inspector", "follow_inspector",
            "quick_study"])
    def test_loose_setting_rejected(self, sim_result, entry, loose):
        with pytest.raises(TypeError, match=next(iter(loose))):
            entry(sim_result, **loose)
