"""Package-level API tests: exports, quick_study, version."""

import importlib
import re
import tomllib
from pathlib import Path

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.6.0"

    def test_version_single_sourced(self):
        """pyproject.toml derives its version from the package.

        The ``[project]`` table must declare ``version`` dynamic and
        point setuptools at ``repro.__version__`` — two hand-kept
        version strings is exactly the drift this pins out.
        """
        pyproject = Path(__file__).resolve().parent.parent \
            / "pyproject.toml"
        document = tomllib.loads(
            pyproject.read_text(encoding="utf-8"))
        assert "version" not in document["project"]
        assert document["project"]["dynamic"] == ["version"]
        dynamic = document["tool"]["setuptools"]["dynamic"]
        assert dynamic["version"] == {"attr": "repro.__version__"}

    def test_python_floor_is_tested_in_ci(self):
        """The oldest interpreter ``requires-python`` admits is one the
        CI ``tests`` job runs, so the floor is a tested claim."""
        root = Path(__file__).resolve().parent.parent
        pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
        floor = re.search(r'^requires-python = ">=(\d+\.\d+)"$',
                          pyproject, re.M).group(1)
        ci = (root / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8")
        # The tests job runs from its key to the next top-level job.
        job = re.search(r"^  tests:\n(.*?)(?=^  \S)", ci,
                        re.M | re.S).group(1)
        matrix = re.search(r"python-version: \[([^\]]*)\]", job).group(1)
        versions = [item.strip().strip('"') for item in matrix.split(",")]
        assert floor in versions, (floor, versions)

    def test_quick_study_end_to_end(self):
        study = repro.quick_study(blocks_per_month=6, seed=2)
        assert study.result.blockchain.height == 6 * 23
        rows = study.table1
        assert rows[-1].strategy == "Total"

    def test_spilled_rerun_leaves_a_clean_store(self, tmp_path):
        """A rerun into the same ``segment_dir`` re-simulates from
        genesis, so it must leave the store the first run left: one
        header line plus one manifest line per epoch, and the same
        segment bytes."""
        from repro.chain.segments import MANIFEST_NAME
        from repro.chain.transaction import reset_tx_counter

        def spill():
            reset_tx_counter()
            repro.quick_study(blocks_per_month=6, seed=2, blocks=30,
                              epoch_blocks=5, segment_dir=tmp_path)
            segments = {path.name: path.read_bytes()
                        for path in sorted(tmp_path.glob("*.pkl"))}
            return (tmp_path / MANIFEST_NAME).read_bytes(), segments

        first_manifest, first_segments = spill()
        second_manifest, second_segments = spill()
        assert len(first_manifest.splitlines()) == 1 + 30 // 5
        assert second_manifest == first_manifest
        assert len(first_segments) == 30 // 5
        assert second_segments == first_segments

    def test_run_inspector_reusable(self):
        study = repro.quick_study(blocks_per_month=6, seed=2)
        again = repro.run_inspector(study.result)
        assert again.totals() == study.dataset.totals()


@pytest.mark.parametrize("module_name", [
    "repro", "repro.chain", "repro.dex", "repro.lending",
    "repro.flashbots", "repro.privatepools", "repro.agents",
    "repro.sim", "repro.core", "repro.analysis", "repro.serve",
])
class TestPublicSurfaces:
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), (module_name, name)

    def test_all_sorted_unique(self, module_name):
        module = importlib.import_module(module_name)
        assert len(set(module.__all__)) == len(module.__all__)

    def test_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 20
