"""R002 — determinism positives and negatives."""

from tests.lint.conftest import run_lint, rule_ids


class TestPositive:
    def test_module_level_random_call_flagged(self):
        findings = run_lint(
            """
            import random

            def roll() -> float:
                return random.random()
            """, module="repro.agents.dice", rules=["R002"])
        assert rule_ids(findings) == ["R002"]
        assert "random.Random" in findings[0].message

    def test_aliased_random_module_flagged(self):
        findings = run_lint(
            """
            import random as rnd

            def pick(items: list) -> object:
                return rnd.choice(items)
            """, module="repro.sim.noise", rules=["R002"])
        assert rule_ids(findings) == ["R002"]

    def test_from_random_import_flagged(self):
        findings = run_lint(
            """
            from random import randint
            """, module="repro.chain.jitter", rules=["R002"])
        assert rule_ids(findings) == ["R002"]

    def test_wall_clock_flagged(self):
        findings = run_lint(
            """
            import time

            def stamp() -> float:
                return time.time()
            """, module="repro.chain.clock", rules=["R002"])
        assert rule_ids(findings) == ["R002"]

    def test_os_urandom_flagged(self):
        findings = run_lint(
            """
            import os

            def salt() -> bytes:
                return os.urandom(8)
            """, module="repro.flashbots.salt", rules=["R002"])
        assert rule_ids(findings) == ["R002"]

    def test_os_getenv_flagged(self):
        findings = run_lint(
            """
            import os

            def seed() -> str:
                return os.getenv("SEED", "0")
            """, module="repro.sim.seed", rules=["R002"])
        assert rule_ids(findings) == ["R002"]

    def test_set_iteration_flagged(self):
        findings = run_lint(
            """
            def drain(pending: list) -> list:
                return [tx for tx in set(pending)]
            """, module="repro.chain.mempool2", rules=["R002"])
        assert rule_ids(findings) == ["R002"]
        assert "sorted" in findings[0].message

    def test_for_over_set_literal_flagged(self):
        findings = run_lint(
            """
            def visit() -> None:
                for venue in {"UniswapV2", "SushiSwap"}:
                    pass
            """, module="repro.sim.venues", rules=["R002"])
        assert rule_ids(findings) == ["R002"]


class TestAliasRegression:
    """The forms the rule used to miss (regression pins).

    Unseeded randomness reached through an alias — either a bound
    ``Random()`` instance or a module alias created by assignment —
    must flag exactly like the direct forms.
    """

    def test_unseeded_random_ctor_flagged(self):
        findings = run_lint(
            """
            import random

            def make() -> random.Random:
                return random.Random()
            """, module="repro.agents.rng1", rules=["R002"])
        assert rule_ids(findings) == ["R002"]
        assert "unseeded" in findings[0].message

    def test_unseeded_instance_alias_flagged(self):
        findings = run_lint(
            """
            import random

            def roll() -> float:
                r = random.Random()
                return r.random()
            """, module="repro.agents.rng2", rules=["R002"])
        # flagged at the construction: the alias draws OS entropy
        assert rule_ids(findings) == ["R002"]
        assert "OS entropy" in findings[0].message

    def test_from_import_random_fn_flagged(self):
        findings = run_lint(
            """
            from random import random

            def roll() -> float:
                return random()
            """, module="repro.agents.rng3", rules=["R002"])
        assert rule_ids(findings) == ["R002"]

    def test_unseeded_imported_random_class_flagged(self):
        findings = run_lint(
            """
            from random import Random

            def make() -> Random:
                return Random()
            """, module="repro.agents.rng4", rules=["R002"])
        assert rule_ids(findings) == ["R002"]
        assert "unseeded" in findings[0].message

    def test_module_alias_by_assignment_flagged(self):
        findings = run_lint(
            """
            import random

            r = random

            def roll() -> float:
                return r.random()
            """, module="repro.agents.rng5", rules=["R002"])
        assert rule_ids(findings) == ["R002"]
        assert "module-level" in findings[0].message

    def test_seeded_imported_random_class_ok(self):
        findings = run_lint(
            """
            from random import Random

            def make(seed: int) -> Random:
                return Random(seed)
            """, module="repro.agents.rng6", rules=["R002"])
        assert findings == []

    def test_unrelated_zero_arg_ctor_ok(self):
        findings = run_lint(
            """
            class Random:
                pass

            def make() -> object:
                return Random()
            """, module="repro.agents.rng7", rules=["R002"])
        # a local class that merely shares the name must not flag
        assert findings == []


class TestNegative:
    def test_seeded_random_construction_ok(self):
        findings = run_lint(
            """
            import random

            def make_rng(seed: int) -> random.Random:
                return random.Random(seed)
            """, module="repro.sim.worldx", rules=["R002"])
        assert findings == []

    def test_injected_rng_calls_ok(self):
        findings = run_lint(
            """
            import random

            def roll(rng: random.Random) -> float:
                return rng.random()
            """, module="repro.agents.dice2", rules=["R002"])
        assert findings == []

    def test_sorted_set_iteration_ok(self):
        findings = run_lint(
            """
            def drain(pending: list) -> list:
                return [tx for tx in sorted(set(pending))]
            """, module="repro.chain.mempool3", rules=["R002"])
        assert findings == []

    def test_set_membership_ok(self):
        findings = run_lint(
            """
            def seen(tx: str, used: set) -> bool:
                return tx in used
            """, module="repro.chain.track", rules=["R002"])
        assert findings == []
