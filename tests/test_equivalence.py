"""Tests for ``tools/equivalence.py``, the statistical-equivalence check.

The decision rule runs on synthetic sides whose law is known; a smoke run
compares this checkout with itself under shifted seeds on a tiny grid, so
it needs no git history.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"
_spec = importlib.util.spec_from_file_location("equivalence", TOOL)
equivalence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equivalence)


def synthetic_side(seed, fpt_shift=0.0, p_sector=(0.0, 0.1, 0.3, 0.6), k=10):
    """``k`` seeds of a 3 x 4 grid: normal per-seed mean_fpt and sector
    counts of 100 trajectories a seed, pooled."""
    rng = np.random.default_rng(seed)
    return {"mean_fpt": rng.normal(20.0 + fpt_shift, 2.0, (k, 3, 4)),
            "counts": rng.multinomial(100 * k, p_sector, (3, 4))}


class TestBenjaminiHochberg:
    def test_textbook_example(self):
        p = [0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205]
        found = equivalence.benjamini_hochberg(p, 0.05)
        assert found.tolist() == [True, True] + [False] * 6

    def test_step_up_rejects_below_the_largest_passing_rank(self):
        # 0.045 <= 4 * 0.05 / 4, so all four go, 0.02 > 0.05 / 4 included.
        found = equivalence.benjamini_hochberg([0.045, 0.02, 0.04, 0.03], 0.05)
        assert found.all()

    def test_no_test_no_discovery(self):
        assert equivalence.benjamini_hochberg([], 0.05).size == 0
        assert not equivalence.benjamini_hochberg([0.2, 0.9], 0.05).any()


class TestDecisionRule:
    # Margins at these seeds: equal laws give a smallest p of 0.0050 of 24
    # tests against the first BH rank's 0.0021; the shifts give a largest
    # p of 0.0046 (mean_fpt) and 0.0067 (sectors) in the shifted tests.
    def test_equal_laws_give_no_discovery(self):
        tests = equivalence.decide(synthetic_side(1), synthetic_side(2))
        assert len(tests) == 24
        assert not any(t["discovery"] for t in tests)

    def test_shifted_fpt_law_is_discovered(self):
        tests = equivalence.decide(synthetic_side(1), synthetic_side(2, fpt_shift=4.0))
        assert all(t["discovery"] for t in tests if t["test"] == "mann-whitney")

    def test_shifted_sector_law_is_discovered(self):
        moved = synthetic_side(2, p_sector=(0.0, 0.15, 0.35, 0.5))
        tests = equivalence.decide(synthetic_side(1), moved)
        assert all(t["discovery"] for t in tests if t["test"] == "chi-square")

    def test_untestable_cells_are_skipped(self):
        # Two censored seeds leave too few mean_fpt values; one occupied
        # sector leaves nothing to compare; equal values carry no rank.
        base, head = synthetic_side(1, k=3), synthetic_side(2, k=3)
        base["mean_fpt"][0, 0, 0] = np.nan
        head["mean_fpt"][:, 0, 1] = base["mean_fpt"][:, 0, 1] = 7.0
        for side in (base, head):
            side["counts"][0, :2] = [0, 0, 0, 300]
        tests = {(tuple(cell), name) for cell, name, _ in equivalence.cell_tests(base, head)}
        assert ((0, 0), "mann-whitney") not in tests
        assert ((0, 1), "mann-whitney") not in tests
        assert ((0, 0), "chi-square") not in tests
        assert ((0, 1), "chi-square") not in tests
        assert len(tests) == 24 - 4


def test_seed_shift_of_this_checkout_passes(tmp_path, capsys):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"grid": {
        "a0_values": [0.3, 1.0], "zeta_values": [0.05, 0.1, 0.2], "n_traj": 30,
        "base_config": {"k_max": 40}}}))
    code = equivalence.main([
        "--base-tree", str(equivalence.REPO), "--base-config", str(config),
        "--head-config", str(config), "--seeds", "4",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    # By default the head takes the seeds after the base's.
    assert "seeds 100..103\n" in out and "seeds 104..107\n" in out
    assert "grid: 2 x 3 cells, K = 4 seeds a side\n" in out
    # How many cells hold two sectors, and so a chi-square test, depends on
    # the stream; these counts were re-recorded at 0.23.0.
    assert "mann-whitney discoveries: 0 of 6 tests\n" in out
    assert "chi-square discoveries: 0 of 1 tests\n" in out
    assert "BH discoveries at alpha 0.05: 0 of 7;" in out


def test_refuses_too_few_seeds(capsys):
    with pytest.raises(SystemExit) as exc:
        equivalence.main(["--base-tree", str(equivalence.REPO), "--seeds", "2"])
    assert exc.value.code == 2
    assert "--seeds must be at least 3" in capsys.readouterr().err
