"""Tests for the batch command-line interface.

Each test drives ``main`` in process with a JSON config in a temporary
directory, then inspects result files and the manifest.  Determinism
contracts (worker count, manifest round trips, seed overrides) are
asserted at the byte level.
"""

import concurrent.futures
import json
import os
import runpy
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import schurflow
import schurflow.cli as cli_mod
import schurflow.minimal as minimal_mod
from schurflow import FlowConfig, __version__, run_trajectory
from schurflow.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_cli(tmp_path, payload, *extra, out="out"):
    cfg = write_config(tmp_path, payload)
    out_dir = tmp_path / out
    code = main(["--config", str(cfg), "--out", str(out_dir), *extra])
    return code, out_dir


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def repeat(value, n):
    """``n`` copies of a JSON value as the inside of a JSON list."""
    return ", ".join([value] * n)


class TestSchurCommand:
    payload = {
        "schur": {
            "a": [[2.0, 0.0], [0.0, 2.0]],
            "b": [[1.0, 0.0], [0.0, 1.0]],
            "c": [[2.0, 0.0], [0.0, 2.0]],
        }
    }

    def test_csv_output(self, tmp_path):
        code, out_dir = run_cli(tmp_path, self.payload)
        assert code == 0
        assert (out_dir / "q_eff.csv").read_text() == "1.5,0\n0,1.5\n"
        manifest = read_manifest(out_dir)
        assert manifest["status"] == "ok"
        assert manifest["command"] == "schur"
        assert manifest["outputs"] == ["q_eff.csv"]
        assert manifest["summary"] == {"n_plus": 2, "n_minus": 0, "n_zero": 0}
        assert manifest["version"] == __version__
        assert manifest["format"] == "csv"
        assert manifest["workers"] == 1
        assert manifest["seed"] is None
        assert manifest["config"]["schur"]["a"] == [[2.0, 0.0], [0.0, 2.0]]

    # Exact q_eff.csv text of a coupled block with non-diagonal a, b and c,
    # recorded at 0.7.0.
    def test_coupled_blocks_match_golden_text(self, tmp_path):
        payload = {
            "schur": {
                "a": [[2.0, 0.3], [0.3, 1.0]],
                "b": [[0.5, 0.1], [0.2, 0.4]],
                "c": [[1.5, 0.2], [0.2, 1.0]],
            }
        }
        code, out_dir = run_cli(tmp_path, payload)
        assert code == 0
        assert (out_dir / "q_eff.csv").read_text() == (
            "1.8321917808219177,0.22054794520547943\n"
            "0.22054794520547943,0.83013698630136989\n"
        )

    # Exact q_eff.csv text of tiny, huge and negative-zero entries, recorded
    # at 0.8.0: %.17g writes exponent notation and keeps the sign of zero.
    def test_exponent_and_negative_zero_match_golden_text(self, tmp_path):
        payload = {
            "schur": {
                "a": [[1e-20, -0.0], [-0.0, 3e22]],
                "b": [[0.0, 0.0], [0.0, 0.0]],
                "c": [[1.0, 0.0], [0.0, 1.0]],
            }
        }
        code, out_dir = run_cli(tmp_path, payload)
        assert code == 0
        assert (out_dir / "q_eff.csv").read_text() == "9.9999999999999995e-21,-0\n-0,3e+22\n"

    def test_json_output(self, tmp_path):
        code, out_dir = run_cli(tmp_path, self.payload, "--format", "json")
        assert code == 0
        result = json.loads((out_dir / "result.json").read_text())
        np.testing.assert_allclose(result["q_eff"], 1.5 * np.eye(2))
        assert result["signature"] == {"n_plus": 2, "n_minus": 0, "n_zero": 0}

    def test_zero_coupling_round_trips_exactly(self, tmp_path):
        a = [[1.0 / 3.0, 0.0], [0.0, 2.0 / 7.0]]
        payload = {
            "schur": {"a": a, "b": [[0.0, 0.0], [0.0, 0.0]], "c": [[1.0, 0.0], [0.0, 1.0]]}
        }
        code, out_dir = run_cli(tmp_path, payload)
        assert code == 0
        rows = [
            [float(x) for x in line.split(",")]
            for line in (out_dir / "q_eff.csv").read_text().splitlines()
        ]
        assert rows == a


class TestFlowCommand:
    payload = {"flow": {"zeta": 0.1, "a0": 0.3, "k_max": 10, "seed": 5}}

    STEPS_HEADER = "step,n_plus,n_minus,n_zero,q,s_opnorm,separation_holds\n"
    # Exact record.jsonl and steps.csv text, recorded at 0.4.0: the default
    # config (no load, no anisotropy: the state only renormalizes), a
    # driven config (re-recorded at 0.13.0, whose samplers draw packed
    # anisotropies and sum packed loads, and at 0.25.0, which draws the
    # loads from row 0's generator) and a zero initial state that
    # collapses at step 1.
    GOLDEN = {
        "default": (
            {},
            '{"censored": true, "collapsed": false, "first_passage": null, '
            f'"n_minus": [{repeat("0", 101)}], "n_plus": [{repeat("4", 101)}], '
            f'"n_zero": [{repeat("0", 101)}], '
            f'"q": [1.0, {repeat("0.5773502691896258", 100)}], '
            f'"s_opnorm": [{repeat("0.0", 101)}], '
            f'"separation_holds": [{repeat("true", 101)}]}}\n',
            STEPS_HEADER + "0,4,0,0,1,0,1\n"
            + "".join(f"{k},4,0,0,0.57735026918962584,0,1\n" for k in range(1, 101)),
        ),
        "driven": (
            {"zeta": 0.15, "a0": 0.5, "k_max": 12, "seed": 7},
            '{"censored": true, "collapsed": false, "first_passage": null, '
            '"n_minus": [0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2], "n_plus": [4, '
            '3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2], "n_zero": [0, 0, 0, 0, 0, 0, '
            '0, 0, 0, 0, 0, 0, 0], "q": [1.0, 0.2941828673238816, '
            "0.14544891774528743, -0.11331957926387555, -0.1605101562130589, "
            "-0.34540795537457364, -0.32220602445366103, -0.30985208924534613, "
            "-0.3411749845041174, -0.3804154926522984, -0.42220754633316226, "
            '-0.44225910233655225, -0.4172274851849264], "s_opnorm": [0.0, '
            "0.6944224208237797, 0.782313390372923, 0.7457820489839528, "
            "0.6991778423988747, 0.613274029710448, 0.6352577211200616, "
            "0.6619047725982576, 0.6209962576411621, 0.5329461338260642, "
            "0.4953543328653517, 0.4906362528212098, 0.5361775213012523], "
            '"separation_holds": [true, false, false, false, false, false, '
            "false, false, false, false, false, false, false]}\n",
            STEPS_HEADER
            + "0,4,0,0,1,0,1\n"
            "1,3,1,0,0.2941828673238816,0.6944224208237797,0\n"
            "2,3,1,0,0.14544891774528743,0.78231339037292302,0\n"
            "3,3,1,0,-0.11331957926387555,0.74578204898395284,0\n"
            "4,2,2,0,-0.16051015621305889,0.6991778423988747,0\n"
            "5,2,2,0,-0.34540795537457364,0.61327402971044798,0\n"
            "6,2,2,0,-0.32220602445366103,0.63525772112006162,0\n"
            "7,2,2,0,-0.30985208924534613,0.66190477259825764,0\n"
            "8,2,2,0,-0.34117498450411737,0.62099625764116206,0\n"
            "9,2,2,0,-0.3804154926522984,0.53294613382606415,0\n"
            "10,2,2,0,-0.42220754633316226,0.49535433286535169,0\n"
            "11,2,2,0,-0.44225910233655225,0.49063625282120982,0\n"
            "12,2,2,0,-0.41722748518492642,0.53617752130125229,0\n",
        ),
        "collapsing": (
            {"q_init": [[0.0] * 3] * 3},
            '{"censored": true, "collapsed": true, "first_passage": null, '
            '"n_minus": [0], "n_plus": [1], "n_zero": [3], "q": [0.0], '
            '"s_opnorm": [0.0], "separation_holds": [false]}\n',
            STEPS_HEADER + "0,1,0,3,0,0,0\n",
        ),
    }

    @pytest.mark.parametrize("config", sorted(GOLDEN))
    def test_outputs_match_golden_text(self, tmp_path, config):
        payload, record_text, steps_text = self.GOLDEN[config]
        code, out_dir = run_cli(tmp_path, {"flow": payload})
        assert code == 0
        assert (out_dir / "record.jsonl").read_text() == record_text
        assert (out_dir / "steps.csv").read_text() == steps_text

    def test_csv_outputs(self, tmp_path):
        code, out_dir = run_cli(tmp_path, self.payload)
        assert code == 0
        manifest = read_manifest(out_dir)
        assert manifest["outputs"] == ["record.jsonl", "steps.csv"]
        assert manifest["summary"]["n_steps"] == 10
        assert manifest["config"]["flow"]["seed"] == 5
        lines = (out_dir / "steps.csv").read_text().splitlines()
        assert lines[0] == "step,n_plus,n_minus,n_zero,q,s_opnorm,separation_holds"
        assert len(lines) == 12
        record = json.loads((out_dir / "record.jsonl").read_text())
        assert len(record["q"]) == 11

    def test_stream_matches_library_call(self, tmp_path):
        code, out_dir = run_cli(tmp_path, self.payload)
        assert code == 0
        record = run_trajectory(
            FlowConfig(zeta=0.1, a0=0.3, k_max=10), [5, 0], [5, 0, 1]
        )
        written = json.loads((out_dir / "record.jsonl").read_text())
        assert written["q"] == [float(x) for x in record.q]
        assert written["n_minus"] == [int(x) for x in record.n_minus]
        manifest = read_manifest(out_dir)
        assert manifest["summary"]["first_passage"] == record.first_passage
        assert manifest["summary"]["censored"] == record.censored

    def test_json_format_writes_record_json(self, tmp_path):
        code, out_dir = run_cli(tmp_path, self.payload, "--format", "json")
        assert code == 0
        assert (out_dir / "record.json").exists()
        manifest = read_manifest(out_dir)
        assert manifest["outputs"] == ["record.jsonl", "record.json"]

    def test_reruns_are_byte_identical(self, tmp_path):
        _, out_a = run_cli(tmp_path, self.payload, out="a")
        _, out_b = run_cli(tmp_path, self.payload, out="b")
        assert (out_a / "record.jsonl").read_bytes() == (out_b / "record.jsonl").read_bytes()
        assert (out_a / "steps.csv").read_bytes() == (out_b / "steps.csv").read_bytes()

    def test_target_defaults_to_fully_inverted_sector(self, tmp_path):
        code, out_dir = run_cli(tmp_path, {"flow": {"d_tan": 2, "zeta": 0.2, "k_max": 5}})
        assert code == 0
        assert read_manifest(out_dir)["config"]["flow"]["target_n_minus"] == 2

    def test_seed_flag_overrides_payload(self, tmp_path):
        code, out_dir = run_cli(tmp_path, self.payload, "--seed", "9")
        assert code == 0
        record = run_trajectory(
            FlowConfig(zeta=0.1, a0=0.3, k_max=10), [9, 0], [9, 0, 1]
        )
        written = json.loads((out_dir / "record.jsonl").read_text())
        assert written["q"] == [float(x) for x in record.q]
        assert read_manifest(out_dir)["config"]["flow"]["seed"] == 9


class TestGridCommand:
    payload = {
        "grid": {
            "a0_values": [0.0, 0.5],
            "zeta_values": {"start": 0.0, "stop": 0.2, "num": 3},
            "n_traj": 4,
            "master_seed": 3,
            "base_config": {"k_max": 10},
        }
    }

    def test_csv_output(self, tmp_path):
        code, out_dir = run_cli(tmp_path, self.payload)
        assert code == 0
        lines = (out_dir / "grid.csv").read_text().splitlines()
        assert lines[0] == "a0,zeta,P0,P1,P2,P3,mean_fpt,censored_fraction"
        assert len(lines) == 7
        manifest = read_manifest(out_dir)
        assert manifest["summary"]["n_cells"] == 6
        assert manifest["summary"]["n_traj"] == 4
        assert manifest["config"]["grid"]["zeta_values"] == [0.0, 0.1, 0.2]

    def test_worker_count_is_byte_invariant(self, tmp_path):
        _, out_serial = run_cli(tmp_path, self.payload, "--workers", "1", out="serial")
        _, out_parallel = run_cli(tmp_path, self.payload, "--workers", "2", out="parallel")
        assert (out_serial / "grid.csv").read_bytes() == (
            out_parallel / "grid.csv"
        ).read_bytes()
        assert read_manifest(out_parallel)["workers"] == 2

    def test_split_rows_are_byte_invariant(self, tmp_path, monkeypatch):
        # Rows of 41 cells split into tasks of 12, 6 and 4 cells at 1, 2 and
        # 3 workers, each task drawing its row's loads.  Three workers run
        # on a machine of fewer CPUs too.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        grid = {"a0_values": [0.0, 0.5], "zeta_values": {"start": 0.0, "stop": 0.3, "num": 41},
                "n_traj": 4, "master_seed": 2, "base_config": {"k_max": 10}}
        texts = set()
        for workers in (1, 2, 3):
            _, out_dir = run_cli(tmp_path, {"grid": grid}, "--workers", str(workers),
                                 out=f"w{workers}")
            assert read_manifest(out_dir)["summary"]["workers"] == workers
            texts.add((out_dir / "grid.csv").read_bytes())
        assert len(texts) == 1

    @staticmethod
    def serial_pools(monkeypatch, cpus):
        """The sizes of the process pools that grid runs ask for from now
        on, on a machine of ``cpus`` CPUs.  A fake pool records its size and
        maps serially: no process starts."""
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pool_sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return pool_sizes

    def test_worker_pool_is_bounded_by_cell_count(self, tmp_path, monkeypatch):
        pool_sizes = self.serial_pools(monkeypatch, cpus=64)
        _, out_serial = run_cli(tmp_path, self.payload, out="serial")
        _, out_many = run_cli(tmp_path, self.payload, "--workers", "4096", out="many")
        assert pool_sizes == [6]
        assert read_manifest(out_serial)["summary"]["workers"] == 1
        assert read_manifest(out_many)["summary"]["workers"] == 6
        assert (out_serial / "grid.csv").read_bytes() == (out_many / "grid.csv").read_bytes()

    @pytest.mark.parametrize("cpus, workers", [(4, 4), (1, 1), (None, 1)])
    def test_worker_pool_is_bounded_by_cpu_count(self, tmp_path, monkeypatch, cpus, workers):
        # os.cpu_count() is None where the count is unknown: one worker.
        pool_sizes = self.serial_pools(monkeypatch, cpus)
        _, out_dir = run_cli(tmp_path, self.payload, "--workers", "4096")
        assert pool_sizes == ([workers] if workers > 1 else [])
        manifest = read_manifest(out_dir)
        assert (manifest["workers"], manifest["summary"]["workers"]) == (4096, workers)

    # Exact grid.csv text of two 2 x 2 grids, recorded at 0.3.0 and
    # re-recorded at 0.13.0, whose samplers draw packed anisotropies and sum
    # packed loads, at 0.23.0, which draws from one generator per cell, and
    # at 0.25.0, which draws each row's loads once for all its cells.
    # Every value is a ratio of small trajectory counts, so a refactor of the
    # evolution or the aggregation must reproduce it byte for byte.
    GOLDEN = {
        "lognormal": (
            {"a0_values": [0.3, 1.0], "zeta_values": [0.03, 0.08], "base_config": {}},
            "a0,zeta,P0,P1,P2,P3,mean_fpt,censored_fraction\n"
            "0.29999999999999999,0.029999999999999999,0,0,0.375,0.625,25.399999999999999,0.375\n"
            "0.29999999999999999,0.080000000000000002,0,0,0,1,13.625,0\n"
            "1,0.029999999999999999,0,0,0.625,0.375,25.333333333333332,0.625\n"
            "1,0.080000000000000002,0,0,0.125,0.875,14.375,0\n",
        ),
        "wishart": (
            {
                "a0_values": [0.2, 0.9],
                "zeta_values": [0.2, 0.5],
                "base_config": {
                    "schur_model": {"kind": "wishart"},
                    "norm_mode": "trace",
                    "disorder": "quenched",
                },
            },
            "a0,zeta,P0,P1,P2,P3,mean_fpt,censored_fraction\n"
            "0.20000000000000001,0.20000000000000001,0,0.5,0.5,0,nan,1\n"
            "0.20000000000000001,0.5,0,0.5,0.375,0.125,21,0.875\n"
            "0.90000000000000002,0.20000000000000001,0,0.5,0.5,0,nan,1\n"
            "0.90000000000000002,0.5,0,0.375,0.5,0.125,25,0.875\n",
        ),
    }

    @pytest.mark.parametrize("model", sorted(GOLDEN))
    def test_csv_matches_golden_text(self, tmp_path, model):
        grid, expected = self.GOLDEN[model]
        grid["base_config"] = {**grid["base_config"], "k_max": 30}
        payload = {"grid": {**grid, "n_traj": 8, "master_seed": 5}}
        code, out_dir = run_cli(tmp_path, payload)
        assert code == 0
        assert (out_dir / "grid.csv").read_text() == expected

    def test_json_output(self, tmp_path):
        code, out_dir = run_cli(tmp_path, self.payload, "--format", "json")
        assert code == 0
        grid = json.loads((out_dir / "grid.json").read_text())
        assert np.asarray(grid["p_sector"]).shape == (2, 3, 4)
        # Frozen cell (a0 = 0, zeta = 0): all mass in sector 0, fpt null.
        assert grid["p_sector"][0][0][0] == 1.0
        assert grid["mean_fpt"][0][0] is None


class TestMinimalScanCommand:
    payload = {
        "minimal-scan": {
            "chi_values": {"start": 0.0, "stop": 2.0, "num": 10},
            "g_values": {"start": 0.5, "stop": 2.0, "num": 8},
        }
    }

    def test_csv_output(self, tmp_path):
        code, out_dir = run_cli(tmp_path, self.payload)
        assert code == 0
        lines = (out_dir / "scan.csv").read_text().splitlines()
        assert lines[0] == "chi,g,b_eff"
        assert len(lines) == 81
        manifest = read_manifest(out_dir)
        assert manifest["summary"]["n_polylines"] >= 1
        assert manifest["summary"]["skipped_cells"] == 0

    # Exact scan.csv text of a 4 x 3 scan of the default template, recorded
    # at 0.7.0.
    def test_csv_matches_golden_text(self, tmp_path):
        payload = {
            "minimal-scan": {
                "chi_values": {"start": 0.0, "stop": 2.0, "num": 4},
                "g_values": [0.5, 1.0, 2.0],
            }
        }
        code, out_dir = run_cli(tmp_path, payload)
        assert code == 0
        assert (out_dir / "scan.csv").read_text() == (
            "chi,g,b_eff\n"
            "0,0.5,1\n"
            "0,1,1\n"
            "0,2,1\n"
            "0.66666666666666663,0.5,0.11111111111111116\n"
            "0.66666666666666663,1,0.55555555555555558\n"
            "0.66666666666666663,2,0.77777777777777779\n"
            "1.3333333333333333,0.5,-2.5555555555555554\n"
            "1.3333333333333333,1,-0.77777777777777768\n"
            "1.3333333333333333,2,0.11111111111111116\n"
            "2,0.5,-7\n"
            "2,1,-3\n"
            "2,2,-1\n"
        )

    # Exact scan.csv text of axes in exponent notation, recorded at 0.8.0.
    def test_exponent_axes_match_golden_text(self, tmp_path):
        payload = {"minimal-scan": {"chi_values": [0.0, 1e-20], "g_values": [0.5, 1e30]}}
        code, out_dir = run_cli(tmp_path, payload)
        assert code == 0
        assert (out_dir / "scan.csv").read_text() == (
            "chi,g,b_eff\n"
            "0,0.5,1\n"
            "0,1e+30,1\n"
            "9.9999999999999995e-21,0.5,1\n"
            "9.9999999999999995e-21,1e+30,1\n"
        )

    def test_json_output(self, tmp_path):
        code, out_dir = run_cli(tmp_path, self.payload, "--format", "json")
        assert code == 0
        scan = json.loads((out_dir / "scan.json").read_text())
        assert np.asarray(scan["b_eff"]).shape == (10, 8)
        assert scan["contour"]["level"] == 0.0
        assert len(scan["contour"]["polylines"]) >= 1


class TestReconstructCommand:
    payload = {
        "reconstruct": {
            "mu": [[1.0, 0.0], [0.0, 1.0]],
            "q_eff": [[1.0, 0.0], [0.0, 1.0]],
            "beta": 1.0,
            "n_steps": 2000,
        }
    }

    def test_csv_outputs(self, tmp_path):
        code, out_dir = run_cli(tmp_path, self.payload)
        assert code == 0
        manifest = read_manifest(out_dir)
        assert manifest["outputs"] == ["gamma.csv", "g_eff.csv"]
        assert manifest["summary"]["einstein_residual"] == 0.0
        gamma = np.loadtxt(out_dir / "gamma.csv", delimiter=",")
        np.testing.assert_allclose(gamma, np.eye(2), rtol=1e-10)

    # Exact gamma.csv text, recorded at 0.9.0 (Kronecker-form balance
    # solve), and g_eff.csv text, recorded at 0.14.0 (exact transition in
    # place of Euler steps, which changes every sample) and re-recorded at
    # 0.20.0 (contiguous covariance pass and a scan that folds each block's
    # entering state into its first kick, both moving g_eff by rounding
    # only, at most 1.8e-15 here): a 3 x 3 mobility
    # that does not commute with q_eff under the default diffusion mu /
    # beta, and a 2 x 2 run with its own d_mat.  The last two entries are
    # gamma as scipy's Lyapunov solver of 0.8.1 wrote it and g_eff as the
    # step-by-step exact loop of tests/test_reconstruction.py gives it; the
    # library's routes sum in another order and may move them by rounding
    # only.
    GOLDEN = {
        "non-commuting": (
            {
                "mu": [[1.0, 0.3, 0.1], [0.3, 0.8, 0.2], [0.1, 0.2, 1.2]],
                "q_eff": [[1.5, 0.4, 0.0], [0.4, 1.0, -0.3], [0.0, -0.3, 2.0]],
                "beta": 1.5,
                "seed": 3,
            },
            "0.5003274394237065,-0.20956123117223313,-0.031434184675834961\n"
            "-0.20956123117223313,0.78585461689587432,0.11787819253438112\n"
            "-0.031434184675834961,0.11787819253438112,0.35101506221349044\n",
            "2.2066797330933281,0.56321492581085009,0.0077648149610323692\n"
            "0.56321492581085009,1.473011658363703,-0.50811613704456915\n"
            "0.0077648149610323692,-0.50811613704456915,3.0184810644443325\n",
            [
                [0.50032743942370617, -0.20956123117223313, -0.031434184675835017],
                [-0.20956123117223313, 0.78585461689587488, 0.11787819253438121],
                [-0.031434184675835017, 0.11787819253438121, 0.35101506221349049],
            ],
            [
                [2.20667973309333, 0.5632149258108499, 0.007764814961031978],
                [0.5632149258108499, 1.473011658363703, -0.508116137044569],
                [0.007764814961031978, -0.508116137044569, 3.018481064444331],
            ],
        ),
        "custom-diffusion": (
            {
                "mu": [[0.8, 0.1], [0.1, 0.9]],
                "q_eff": [[1.0, 0.3], [0.3, 1.5]],
                "beta": 2.0,
                "d_mat": [[0.5, 0.1], [0.1, 0.4]],
                "seed": 7,
            },
            "0.63547744539829698,-0.070375076104068304\n"
            "-0.070375076104068304,0.30872375228877191\n",
            "1.6238442289962181,0.27499797910332235\n"
            "0.27499797910332235,3.3632240724610125\n",
            [
                [0.63547744539829731, -0.07037507610406829],
                [-0.07037507610406829, 0.30872375228877202],
            ],
            [
                [1.6238442289962203, 0.2749979791033218],
                [0.2749979791033218, 3.363224072461018],
            ],
        ),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_csv_matches_golden_text(self, tmp_path, case):
        options, gamma_text, g_eff_text, gamma_scipy, g_eff_loop = self.GOLDEN[case]
        payload = {"reconstruct": {**options, "n_steps": 2000}}
        code, out_dir = run_cli(tmp_path, payload)
        assert code == 0
        assert (out_dir / "gamma.csv").read_text() == gamma_text
        assert (out_dir / "g_eff.csv").read_text() == g_eff_text
        gamma = np.loadtxt(out_dir / "gamma.csv", delimiter=",")
        np.testing.assert_allclose(gamma, gamma_scipy, rtol=1e-12)
        g_eff = np.loadtxt(out_dir / "g_eff.csv", delimiter=",")
        np.testing.assert_allclose(g_eff, g_eff_loop, rtol=1e-12)

    def test_json_output(self, tmp_path):
        code, out_dir = run_cli(tmp_path, self.payload, "--format", "json")
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        np.testing.assert_allclose(report["curvature_target"], np.eye(2))
        assert report["beta"] == 1.0

    def test_result_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # Two fresh processes: one where OpenBLAS picks its own thread count,
        # one pinned to a single thread.  100k steps make the kick product
        # large enough for OpenBLAS to split it over threads.
        options = self.GOLDEN["non-commuting"][0]
        cfg = write_config(tmp_path, {"reconstruct": {**options, "n_steps": 100_000}})
        unset = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        unset["PYTHONPATH"] = str(Path(schurflow.__file__).parents[1])
        results = []
        for env in (unset, {**unset, "OPENBLAS_NUM_THREADS": "1"}):
            out_dir = tmp_path / f"run{len(results)}"
            subprocess.run(
                [sys.executable, "-m", "schurflow", "--config", str(cfg), "--out", str(out_dir)],
                env=env, check=True, timeout=120,
            )
            results.append([(out_dir / name).read_bytes() for name in ("gamma.csv", "g_eff.csv")])
        assert results[0] == results[1]


# One config per command, each setting a key away from its default.
ROUND_TRIP_PAYLOADS = {
    "schur": {
        "schur": {
            "a": [[2.0, 0.3], [0.3, 1.0]],
            "b": [[0.5], [0.2]],
            "c": [[1.5]],
        }
    },
    "flow": {
        "flow": {
            "zeta": 0.2, "a0": 0.4, "k_max": 12, "seed": 3, "disorder": "quenched",
            "q_init": [[1.0, 0.1, 0.0], [0.1, 2.0, 0.0], [0.0, 0.0, 1.0]],
        }
    },
    "grid": {
        "grid": {
            "a0_values": [0.0, 0.5],
            "zeta_values": {"start": 0.0, "stop": 0.2, "num": 3},
            "n_traj": 4,
            "master_seed": 3,
            "base_config": {"k_max": 10, "schur_model": {"kind": "wishart", "rank": 2}},
        }
    },
    "minimal-scan": {
        "minimal-scan": {
            "chi_values": {"start": 0.0, "stop": 2.0, "num": 6},
            "g_values": [0.5, 1.0, 2.0],
            "d_f": 3,
            "b0": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]],
        }
    },
    "reconstruct": {
        "reconstruct": {
            "mu": [[0.8, 0.1], [0.1, 0.9]],
            "q_eff": [[1.0, 0.3], [0.3, 1.5]],
            "beta": 2.0,
            "d_mat": [[0.5, 0.0], [0.0, 0.4]],
            "n_steps": 2000,
            "seed": 7,
        }
    },
}


class TestManifestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(ROUND_TRIP_PAYLOADS))
    def test_manifest_round_trip_reproduces_results(self, tmp_path, command, fmt):
        code, out_dir = run_cli(tmp_path, ROUND_TRIP_PAYLOADS[command], "--format", fmt)
        assert code == 0
        manifest = read_manifest(out_dir)
        cfg2 = tmp_path / "echoed.json"
        cfg2.write_text(json.dumps(manifest["config"]))
        out2 = tmp_path / "rerun"
        assert main(["--config", str(cfg2), "--out", str(out2), "--format", fmt]) == 0
        rerun = read_manifest(out2)
        assert rerun["config"] == manifest["config"]
        assert rerun["outputs"] == manifest["outputs"]
        for name in manifest["outputs"]:
            assert (out_dir / name).read_bytes() == (out2 / name).read_bytes()

    def test_defaults_are_echoed(self, tmp_path):
        code, out_dir = run_cli(tmp_path, ROUND_TRIP_PAYLOADS["reconstruct"])
        assert code == 0
        echo = read_manifest(out_dir)["config"]["reconstruct"]
        assert sorted(echo) == ["beta", "d_mat", "mu", "n_steps", "q_eff", "seed"]
        code, out_dir = run_cli(tmp_path, ROUND_TRIP_PAYLOADS["minimal-scan"], out="scan")
        assert code == 0
        echo = read_manifest(out_dir)["config"]["minimal-scan"]
        assert echo["d_s"] == 2


class TestModuleEntryPoints:
    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        # numpy is the only runtime dependency.  A None entry in sys.modules
        # makes any import of scipy fail, so a fresh interpreter with it set
        # shows that no command needs scipy and that none loads it.
        runs = []
        for command, payload in sorted(ROUND_TRIP_PAYLOADS.items()):
            cfg = write_config(tmp_path, payload, name=f"{command}.json")
            runs.append(["--config", str(cfg), "--out", str(tmp_path / command)])
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from schurflow.cli import main\n"
            f"print([main(argv) for argv in {runs!r}])\n"
            "print(sorted(n for n, m in sys.modules.items()\n"
            "             if n.split('.')[0] == 'scipy' and m is not None))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(schurflow.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-2:] == [str([0] * len(runs)), "[]"]

    def test_import_loads_no_process_pool(self):
        # Only a grid run on more than one worker starts a pool, and it
        # imports concurrent.futures, with multiprocessing, when it does.
        script = (
            "import sys\n"
            "import schurflow.cli\n"
            "print(sorted(n for n in sys.modules\n"
            "             if n.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(schurflow.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]"]

    @pytest.mark.parametrize("module", ["schurflow", "schurflow.cli"])
    def test_help_exits_zero(self, module, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", [module, "--help"])
        with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
            # Running an already imported module warns; that is expected here.
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module(module, run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: schurflow")


class TestErrorHandling:
    def assert_error_run(self, tmp_path, cfg_path, match, capsys):
        out_dir = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert match in err
        manifest = read_manifest(out_dir)
        assert manifest["status"] == "error"
        assert match in manifest["error"]
        assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        self.assert_error_run(tmp_path, cfg, "not valid JSON", capsys)

    def test_missing_file(self, tmp_path, capsys):
        self.assert_error_run(
            tmp_path, tmp_path / "absent.json", "cannot read config file", capsys
        )

    def test_unknown_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"fly": {}})
        self.assert_error_run(tmp_path, cfg, "unknown command", capsys)

    def test_two_top_level_keys(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schur": {}, "flow": {}})
        self.assert_error_run(tmp_path, cfg, "exactly one top-level command", capsys)

    def test_missing_required_matrix(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"schur": {"a": [[1.0]], "b": [[0.0]]}}
        )
        self.assert_error_run(tmp_path, cfg, "missing required key 'c'", capsys)

    def test_unknown_payload_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"flow": {"zeta": 0.1, "zap": 1}})
        self.assert_error_run(tmp_path, cfg, "unknown key(s) ['zap']", capsys)

    @pytest.mark.parametrize("key, value", [("burn_in", 1000), ("dt", 0.01)])
    def test_retired_reconstruct_keys_are_unknown(self, tmp_path, capsys, key, value):
        # The exact sampler has no burn-in and picks its own spacing; a
        # config written for 0.13.0 fails validation, not with a traceback.
        payload = {"mu": [[1.0]], "q_eff": [[1.0]], "beta": 1.0, key: value}
        with pytest.raises(schurflow.ConfigInvalid, match="unknown key"):
            cli_mod._kwargs(cli_mod._RECONSTRUCT, payload, "reconstruct")
        cfg = write_config(tmp_path, {"reconstruct": payload})
        self.assert_error_run(tmp_path, cfg, f"unknown key(s) ['{key}']", capsys)

    def test_invalid_flow_parameter(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"flow": {"zeta": -1.0}})
        self.assert_error_run(tmp_path, cfg, "zeta", capsys)

    def test_bad_schur_model_kind(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"flow": {"schur_model": {"kind": "gamma"}}}
        )
        self.assert_error_run(tmp_path, cfg, "unknown model kind", capsys)

    @pytest.mark.parametrize(
        "depth, match", [(800, "flow.q_init"), (100_000, "nests too deeply")]
    )
    def test_deeply_nested_config(self, tmp_path, capsys, depth, match):
        # 100,000 levels are past the JSON parser's nesting limit.  800 parse
        # and fail validation, but nest too deeply to serialize: the error
        # manifest leaves the config out.
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"flow": {"q_init": ' + "[" * depth + "]" * depth + "}}")
        self.assert_error_run(tmp_path, cfg, match, capsys)
        assert "config" not in read_manifest(tmp_path / "out")

    @pytest.mark.parametrize("key, match", [
        ("zeta", "flow.zeta: expected a number"),
        ("target_n_minus", "flow.target_n_minus: expected an integer"),
        ("norm_mode", "flow.norm_mode: expected one of"),
    ], ids=["zeta", "target_n_minus", "norm_mode"])
    def test_error_cuts_the_offending_value(self, tmp_path, capsys, key, match):
        # An 800-deep list is echoed as a short repr, not 1,600 brackets.
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"flow": {"%s": %s}}' % (key, "[" * 800 + "]" * 800))
        self.assert_error_run(tmp_path, cfg, match, capsys)
        assert len(read_manifest(tmp_path / "out")["error"]) < 200

    def test_invalid_workers_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"flow": {}})
        out_dir = tmp_path / "out"
        code = main(
            ["--config", str(cfg), "--out", str(out_dir), "--workers", "0"]
        )
        assert code == 1
        assert "--workers" in capsys.readouterr().err

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"flow": {}})
        out_dir = tmp_path / "out"
        code = main(["--config", str(cfg), "--out", str(out_dir), "--seed", "-1"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_non_pd_fast_block(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"schur": {"a": [[1.0]], "b": [[1.0]], "c": [[-1.0]]}},
        )
        self.assert_error_run(tmp_path, cfg, "fast", capsys)

    def test_negative_payload_seed_names_key_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"reconstruct": {"mu": [[1.0]], "q_eff": [[1.0]], "beta": 1.0, "seed": -1}},
        )
        self.assert_error_run(
            tmp_path, cfg, "reconstruct.seed: must be non-negative", capsys
        )

    def test_decreasing_scan_axis_fails_under_its_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"minimal-scan": {"chi_values": [1.0, 0.5]}})
        self.assert_error_run(
            tmp_path, cfg, "chi_values: values must be strictly increasing", capsys
        )

    @pytest.mark.parametrize(
        "axes, message",
        [
            ({"chi_values": [-1.0, 1.0]}, "chi must be finite and non-negative, got -1.0"),
            ({"g_values": [0.0, 1.0]}, "g must be finite and positive, got 0.0"),
        ],
        ids=["negative-chi", "zero-g"],
    )
    def test_scan_axis_out_of_the_spec_range(self, tmp_path, capsys, axes, message):
        cfg = write_config(tmp_path, {"minimal-scan": axes})
        self.assert_error_run(tmp_path, cfg, f"minimal-scan: {message}", capsys)

    STACK = [[[1.0, 0.0], [0.0, 1.0]]] * 3

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ({"a": STACK, "b": STACK, "c": STACK},
             "schur: a: expected a square matrix, got shape (3, 2, 2)"),
            ({"a": STACK[0], "b": STACK[0], "c": STACK},
             "schur: c: expected a square matrix, got shape (3, 2, 2)"),
            ({"a": STACK[0], "b": STACK, "c": STACK[0]},
             "schur: b: expected shape (2, 2), got (3, 2, 2)"),
        ],
        ids=["all", "c", "b"],
    )
    def test_schur_refuses_a_stack_of_forms(self, tmp_path, capsys, blocks, message):
        cfg = write_config(tmp_path, {"schur": blocks})
        self.assert_error_run(tmp_path, cfg, message, capsys)

    # Fast-block eigenvalues reach ~1e302 and the update norm overflows; the
    # run must fail rather than record a zero tensor.  Both commands draw the
    # loads of row 0 at seed 0 (step 3 since 0.25.0, step 4 before).
    OVERFLOWING = {
        "k_max": 5,
        "schur_model": {"kind": "lognormal_gaussian", "sigma_log": 300},
    }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "payload, where",
        [
            ({"flow": {"zeta": 0.1, **OVERFLOWING}}, "trajectory 0, step 3"),
            (
                {"grid": {"a0_values": [0.0], "zeta_values": [0.1], "n_traj": 2,
                          "base_config": OVERFLOWING}},
                "cell (a0=0.0, zeta=0.1): trajectory 0, step 3",
            ),
        ],
        ids=["flow", "grid"],
    )
    def test_non_finite_evolution(self, tmp_path, capsys, payload, where):
        cfg = write_config(tmp_path, payload)
        self.assert_error_run(tmp_path, cfg, where, capsys)
        assert "not finite" in read_manifest(tmp_path / "out")["error"]

    GRID_KEYS = ("grid: n_traj, base_config.k_max, base_config.d_tan, "
                 "base_config.schur_model ask for")

    @pytest.mark.parametrize(
        "payload, keys",
        [
            ({"grid": {"n_traj": 1e300}}, GRID_KEYS),
            ({"grid": {"base_config": {"schur_model": {
                "kind": "lognormal_gaussian", "d_fast": 10**4}}}}, GRID_KEYS),
            ({"grid": {"base_config": {"schur_model": {
                "kind": "wishart", "rank": 10**5}}}}, GRID_KEYS),
            ({"grid": {"a0_values": {"start": 0.0, "stop": 1.0, "num": 40_000},
                       "zeta_values": {"start": 0.0, "stop": 0.3, "num": 40_000}}},
             "grid: a0_values, zeta_values ask for 85450 MiB"),
            ({"flow": {"a0": 0.1, "k_max": 10**15}},
             "flow: k_max, d_tan, schur_model ask for"),
            ({"reconstruct": {"mu": [[1.0]], "q_eff": [[1.0]], "beta": 1.0,
                              "n_steps": 10**15}},
             "reconstruct: n_steps, burn_in ask for"),
        ],
        ids=["grid", "grid-lognormal", "grid-wishart", "grid-cells", "flow", "reconstruct"],
    )
    def test_oversized_run_is_refused_before_it_starts(
        self, tmp_path, capsys, monkeypatch, payload, keys
    ):
        def started(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli_mod, "run_grid", started)
        cfg = write_config(tmp_path, payload)
        self.assert_error_run(tmp_path, cfg, keys, capsys)
        assert "budget" in read_manifest(tmp_path / "out")["error"]

    def test_oversized_scan_is_refused_before_it_starts(self, tmp_path, capsys, monkeypatch):
        def started(q):
            raise AssertionError("the elimination started")

        monkeypatch.setattr(minimal_mod, "schur_complement", started)
        axis = {"start": 0.5, "stop": 2.0, "num": 3000}
        cfg = write_config(tmp_path, {"minimal-scan": {"chi_values": axis, "g_values": axis}})
        self.assert_error_run(
            tmp_path, cfg,
            "minimal-scan: chi_values, g_values ask for 2060 MiB of arrays, "
            "over the 1024 MiB budget",
            capsys,
        )

    @pytest.mark.parametrize(
        "command, key",
        [("minimal-scan", "chi_values"), ("grid", "a0_values")],
    )
    def test_oversized_axis_is_refused_before_allocation(
        self, tmp_path, capsys, monkeypatch, command, key
    ):
        # num = 2**40 asks numpy for 8 TiB; the budget refuses it first.
        def allocated(*args, **kwargs):
            raise AssertionError("the axis was allocated")

        monkeypatch.setattr(np, "linspace", allocated)
        axis = {"start": 0.0, "stop": 2.0, "num": 2**40}
        refusal = (f"{command}.{key}: num ask for 8388608 MiB of arrays, "
                   "over the 1024 MiB budget")
        with pytest.raises(schurflow.ConfigInvalid, match=f"^{refusal}$"):
            cli_mod._array(axis, f"{command}.{key}")
        cfg = write_config(tmp_path, {command: {key: axis}})
        self.assert_error_run(tmp_path, cfg, refusal, capsys)

    @pytest.mark.parametrize("g_values", [None, [0.5, 1.0, 2.0]], ids=["default", "list"])
    def test_oversized_scan_is_refused_before_either_axis_is_built(
        self, tmp_path, capsys, monkeypatch, g_values
    ):
        # Each axis fits the budget alone; the scan of both does not.
        def allocated(*args, **kwargs):
            raise AssertionError("an axis was allocated")

        monkeypatch.setattr(np, "linspace", allocated)
        monkeypatch.setattr(np, "asarray", allocated)
        payload = {"chi_values": {"start": 0, "stop": 2, "num": 4_000_000}}
        if g_values is not None:
            payload["g_values"] = g_values
        mib = -(-4_000_000 * len(g_values or range(50)) * 30 * 8 >> 20)  # rounded up
        cfg = write_config(tmp_path, {"minimal-scan": payload})
        self.assert_error_run(
            tmp_path, cfg,
            f"minimal-scan: chi_values, g_values ask for {mib} MiB of arrays, "
            "over the 1024 MiB budget",
            capsys,
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "payload",
        [
            {"flow": {"zeta": -1.0}},
            {"flow": {"zeta": 0.1, **OVERFLOWING}},
        ],
        ids=["config", "runtime"],
    )
    def test_error_manifest_says_what_failed(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        argv = ["--config", str(cfg), "--out", str(out_dir), "--seed", "4",
                "--workers", "2", "--format", "json"]
        assert main(argv) == 1
        manifest = read_manifest(out_dir)
        assert manifest["status"] == "error"
        assert manifest["command"] == "flow"
        assert manifest["config"] == payload
        assert (manifest["seed"], manifest["workers"], manifest["format"]) == (4, 2, "json")

    def test_error_manifest_omits_what_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        out_dir = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out_dir)]) == 1
        manifest = read_manifest(out_dir)
        assert "config" not in manifest and "command" not in manifest
        assert (manifest["seed"], manifest["workers"], manifest["format"]) == (None, 1, "csv")

    @pytest.mark.parametrize(
        "payload",
        [
            {"reconstruct": {"mu": [[1.0]], "q_eff": [[1.0]], "beta": 1.0}},
            {"flow": {"a0": 0.1}},
            {"grid": {}},
        ],
        ids=["reconstruct", "flow", "grid"],
    )
    def test_out_of_memory_request_exits_one(
        self, tmp_path, capsys, monkeypatch, payload
    ):
        # The command's library call raises MemoryError, as an allocation
        # that fails would; nothing is allocated.
        def out_of_memory(*args, **kwargs):
            raise MemoryError("cannot allocate")

        command = next(iter(payload))
        target = {"flow": "run_trajectory", "grid": "run_grid"}.get(command, command)
        monkeypatch.setattr(cli_mod, target, out_of_memory)
        cfg = write_config(tmp_path, payload)
        self.assert_error_run(tmp_path, cfg, "cannot allocate", capsys)
        assert read_manifest(tmp_path / "out")["command"] == command

    def test_balance_residual_exits_one(self, tmp_path, capsys, monkeypatch):
        # A balance solve that returns a perturbed gamma makes the
        # fluctuation-balance residual miss its tolerance.
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
        payload = {"reconstruct": {
            "mu": [[0.8, 0.0], [0.0, 0.8]],
            "q_eff": [[1.0, 0.3], [0.3, 1.5]],
            "beta": 2.0,
        }}
        cfg = write_config(tmp_path, payload)
        self.assert_error_run(tmp_path, cfg, "fluctuation-balance residual", capsys)
        manifest = read_manifest(tmp_path / "out")
        assert manifest["command"] == "reconstruct"
        assert "tolerance" in manifest["error"]


def _junk():
    """Values of the wrong type or range for most keys, all small."""
    return st.one_of(
        st.none(),
        st.booleans(),
        st.text(max_size=3),
        st.integers(-3, 5),
        st.sampled_from([float("nan"), float("inf"), -1.5, 2.5]),
        st.lists(st.integers(-2, 2), max_size=3),
        st.fixed_dictionaries({"start": st.integers(-1, 1), "num": st.integers(-1, 4)}),
    )


_MATRICES = st.sampled_from(
    [
        [[1.0]],
        [[2.0, 0.5], [0.5, 1.0]],
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, -1.0]],
        [[1.0, 2.0]],
    ]
)
_AXES = st.one_of(
    st.lists(st.floats(0.05, 1.0), max_size=4, unique=True).map(sorted),
    st.fixed_dictionaries(
        {"start": st.just(0.05), "stop": st.floats(0.1, 1.0), "num": st.integers(-1, 4)}
    ),
)
_SMALL_FLOATS = st.floats(0.05, 2.0)
_FLOW_KEYS = {
    "zeta": _SMALL_FLOATS,
    "a0": _SMALL_FLOATS,
    "d_tan": st.integers(2, 3),
    "q_n": _SMALL_FLOATS,
    "beta_decay": _SMALL_FLOATS,
    "norm_mode": st.sampled_from(["frobenius", "trace"]),
    "schur_model": st.sampled_from(
        [{"kind": "wishart", "rank": 2}, {"kind": "lognormal_gaussian", "d_fast": 1}]
    ),
    "disorder": st.sampled_from(["annealed", "quenched"]),
    "target_n_minus": st.integers(0, 3),
    "q_init": _MATRICES,
}
# Per command: the keys always present (those bounding the run's size and
# the required ones) and the optional rest.
_FUZZ_KEYS = {
    "schur": ({"a": _MATRICES, "b": _MATRICES, "c": _MATRICES}, {}),
    "flow": (
        {"k_max": st.integers(1, 5)},
        {**_FLOW_KEYS, "seed": st.integers(0, 5)},
    ),
    "grid": (
        {
            "a0_values": _AXES,
            "zeta_values": _AXES,
            "n_traj": st.integers(1, 3),
            "base_config": st.fixed_dictionaries(
                {"k_max": st.integers(1, 5)},
                optional={k: _FLOW_KEYS[k] for k in ("d_tan", "schur_model", "disorder")},
            ),
        },
        {"master_seed": st.integers(0, 5)},
    ),
    "minimal-scan": (
        {"chi_values": _AXES, "g_values": _AXES},
        {"d_s": st.integers(1, 3), "d_f": st.integers(1, 3), "b0": _MATRICES},
    ),
    "reconstruct": (
        {
            "mu": _MATRICES,
            "q_eff": _MATRICES,
            "beta": _SMALL_FLOATS,
            "n_steps": st.integers(1, 2000),
        },
        {
            "d_mat": _MATRICES,
            "seed": st.integers(0, 5),
        },
    ),
}


@st.composite
def _fuzz_configs(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_KEYS)))
    always, optional = _FUZZ_KEYS[command]
    strategies = {**always, **optional}
    keys = list(always)
    if optional:
        keys += draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
    payload = {key: draw(strategies[key]) for key in keys}
    # At most one mistyped value (a mistyped size key fails validation, so
    # the run stays small) and at most one unknown key.
    mistyped = draw(st.none() | st.sampled_from(keys))
    if mistyped is not None:
        payload[mistyped] = draw(_junk())
    if draw(st.integers(0, 3)) == 0:
        payload["zap"] = draw(_junk())
    return {command: payload}


class TestConfigFuzz:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(
        max_examples=150,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(config=_fuzz_configs(), fmt=st.sampled_from(["csv", "json"]))
    def test_any_config_exits_cleanly(self, config, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = write_config(tmp, config)
            out_dir = tmp / "out"
            code = main(["--config", str(cfg), "--out", str(out_dir), "--format", fmt])
            manifest = read_manifest(out_dir)
            assert (code, manifest["status"]) in ((0, "ok"), (1, "error"))
