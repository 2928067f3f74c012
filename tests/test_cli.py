import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spinpulse import analysis, cli
from spinpulse.cli import main
from spinpulse.simulator import echo_train

from oracles import periodic_line


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_with_config(capsys, tmp_path, text, *argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    return run(capsys, *argv, "--config", str(cfg))


PROGRAM = "bb1 theta=1pi\nrepeat 2 {\n delay 1e-6\n acquire\n}\n"


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.sp"
    path.write_text(PROGRAM, encoding="utf-8")
    return str(path)


class TestParseCommand:
    def test_canonical_output(self, capsys, program_file):
        code, out, _ = run(capsys, "parse", program_file)
        assert code == 0
        assert out.startswith("pulse theta=1.0pi phase=0.0pi\n")
        assert "repeat 2 {" in out and "  delay 1e-06" in out

    def test_ast_output(self, capsys, program_file):
        code, out, _ = run(capsys, "parse", program_file, "--json")
        assert code == 0
        ast = json.loads(out)
        assert ast["elements"][0]["type"] == "pulse"
        assert ast["elements"][4]["type"] == "repeat"
        assert ast["elements"][4]["count"] == 2

    def test_syntax_error_exit_2_with_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.sp"
        bad.write_text("pulse theta=1 phase=0\n", encoding="utf-8")
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 2
        assert "line 1, col 13" in err

    def test_overflowing_delay_exit_2_with_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.sp"
        bad.write_text("delay 1e999\n", encoding="utf-8")
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 2
        assert err.startswith("parse error: line 1, col 7")

    def test_missing_file_exit_3(self, capsys):
        code, _, err = run(capsys, "parse", "/no/such/file.sp")
        assert code == 3

    def test_byte_order_mark_ignored(self, capsys, tmp_path, program_file):
        marked = tmp_path / "marked.sp"
        marked.write_text("\ufeff" + PROGRAM, encoding="utf-8")
        code, out, err = run(capsys, "parse", str(marked))
        assert (code, err) == (0, "")
        assert out == run(capsys, "parse", program_file)[1]


class TestFidelityCommand:
    def test_simple_pulse(self, capsys):
        code, out, _ = run(capsys, "fidelity", "--theta", "1pi", "--epsilon", "0.1")
        assert code == 0
        f = float(out.split()[0].split("=")[1])
        assert f == pytest.approx(math.cos(0.05 * math.pi), abs=1e-9)

    def test_bb1(self, capsys):
        code, out, _ = run(capsys, "fidelity", "--theta", "1pi", "--epsilon", "0.1", "--bb1")
        infid = float(out.split()[1].split("=")[1])
        assert infid == pytest.approx(4.6224e-6, rel=1e-3)

    def test_bb1_with_offsets(self, capsys):
        code, out, _ = run(
            capsys,
            "fidelity",
            "--theta", "1pi",
            "--epsilon", "0.1",
            "--bb1",
            "--dphi1", "0.007pi",
            "--dphi2", "0.001pi",
        )
        f = float(out.split()[0].split("=")[1])
        assert f == pytest.approx(0.9999, abs=1e-4)

    def test_bb1_coinciding_channels_exit_2(self, capsys):
        # at theta = 4pi both correction phases are pi: one channel, two offsets
        code, out, err = run(
            capsys, "fidelity", "--theta", "4pi", "--bb1", "--dphi1", "0.01rad", "--dphi2", "0.02rad"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: phase channels 3.141592653589793 and 3.141592653589793 rad "
            "must lie more than 2 * PHASE_MATCH_TOL apart\n"
        )
        code, out, _ = run(capsys, "fidelity", "--theta", "4pi", "--bb1")
        assert (code, out) == (0, "F=1.00000000000e+00 1-F=0.00000000000e+00\n")

    def test_bb1_overflowing_angle_exit_2(self, capsys):
        # the engine's one overflow message, as on every other entry
        code, out, err = run(capsys, "fidelity", "--theta", "1pi", "--epsilon", "1e308", "--bb1")
        assert (code, out) == (2, "")
        assert err == "error: a pulse's rotation angle theta * (1 + epsilon) must be finite\n"

    def test_bb1_offset_of_a_quarter_turn_exit_2(self, capsys):
        code, _, err = run(capsys, "fidelity", "--theta", "1pi", "--bb1", "--dphi1", "0.5pi")
        assert code == 2
        assert err == "error: phase offsets must satisfy |dphi| < pi/2\n"

    def test_offsets_without_bb1_rejected(self, capsys):
        code, _, err = run(
            capsys, "fidelity", "--theta", "1pi", "--dphi1", "0.01pi"
        )
        assert code == 2

    def test_bad_angle_literal_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "fidelity", "--theta", "1")
        assert exc.value.code == 2


class TestScanCommand:
    def test_csv_and_slope(self, capsys):
        code, out, err = run(capsys, "scan", "--theta", "1pi")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "epsilon,infidelity"
        assert len(lines) == 10
        assert "slope" in err

    def test_json_carries_slope(self, capsys):
        code, out, _ = run(capsys, "scan", "--theta", "1pi", "--json", "--quiet")
        doc = json.loads(out)
        assert 5.7 <= doc["meta"]["config"]["slope"] <= 6.3
        assert len(doc["data"]) == 9

    def test_simple_slope(self, capsys):
        code, out, _ = run(capsys, "scan", "--theta", "1pi", "--simple", "--json", "--quiet")
        doc = json.loads(out)
        assert 1.9 <= doc["meta"]["config"]["slope"] <= 2.1

    def test_degenerate_reported(self, capsys):
        code, out, err = run(capsys, "scan", "--theta", "0pi", "--json")
        assert code == 0
        assert json.loads(out)["meta"]["config"]["slope"] is None
        assert "degenerate" in err


    def test_point_count_above_bound_exits_2(self, capsys):
        code, out, err = run(capsys, "scan", "--theta", "1pi", "--points", "10000000")
        assert code == 2
        assert out == ""
        assert "n_points" in err


class TestVerifyEq5Command:
    def test_table(self, capsys):
        code, out, err = run(capsys, "verify-eq5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "term,reference,fitted,rel_deviation"
        assert len(lines) == 4
        worst = max(float(ln.split(",")[3]) for ln in lines[1:])
        assert worst <= 0.02
        rounding = analysis.verify_eq5_coefficients().rounding
        assert f"carry up to {rounding:.1e} of rounding" in err


class TestRabiCommand:
    def test_csv_header_and_units(self, capsys):
        code, out, _ = run(
            capsys, "rabi", "--sigma", "0.05", "--max", "2pi", "--step", "0.5pi", "--quiet"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta_rad,signal"
        assert lines[1].startswith("0.0,")

    def test_json_provenance(self, capsys):
        code, out, _ = run(
            capsys,
            "rabi", "--sigma", "0.05", "--max", "1pi", "--step", "0.5pi",
            "--bb1", "--json", "--quiet",
        )
        doc = json.loads(out)
        assert doc["meta"]["config"]["provenance"]["program"] == "bb1_rabi"
        assert doc["meta"]["version"]

    def test_overflowing_quadrature_exits_2(self, capsys):
        code, out, err = run(
            capsys, "rabi", "--sigma", "0.05", "--max", "2pi", "--step", "1pi", "--nodes", "400"
        )
        assert code == 2
        assert out == ""
        assert "400 nodes" in err

    def test_node_count_above_bound_exits_2(self, capsys):
        code, out, err = run(
            capsys, "rabi", "--sigma", "0.05", "--max", "2pi", "--step", "1pi", "--nodes", "100000"
        )
        assert code == 2
        assert out == ""
        assert "node count" in err

    def test_sample_count_above_bound_exits_2(self, capsys):
        # 4e8 samples: refused before any quadrature or propagation
        code, out, err = run(
            capsys, "rabi", "--sigma", "0.05", "--max", "40pi", "--step", "1e-7pi"
        )
        assert code == 2
        assert out == ""
        assert "100000 samples" in err

    def test_bb1_block_count_above_bound_exits_2(self, capsys):
        # 1e4 samples, but the last needs 1e9 pi blocks: refused at once
        start = time.perf_counter()
        code, out, err = run(
            capsys, "rabi", "--sigma", "0.05", "--max", "1e9pi", "--step", "1e5pi", "--bb1"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "BB1 pi blocks" in err

    def test_overflowing_angle_exits_2_without_warnings(self, capsys):
        code, out, err = run(
            capsys, "rabi", "--sigma", "0.05", "--max", "1.5e308rad", "--step", "1e304rad"
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: a pulse's rotation angle theta * (1 + epsilon) must be finite"
        ]

    def test_bb1_trace_at_block_bound_is_fast(self, capsys):
        # 11 samples reaching 2^23 pi blocks: the block power is raised by
        # squaring, where one product per block took minutes
        start = time.perf_counter()
        code, out, err = run(
            capsys, "rabi", "--sigma", "0.05", "--max", "8388608pi", "--step", "838860.8pi",
            "--bb1",
        )
        assert time.perf_counter() - start < 10.0
        assert code == 0, err
        assert len(out.splitlines()) == 12

    def test_missing_required_option_exits_2(self, capsys):
        code, out, err = run(capsys, "rabi", "--max", "1pi", "--step", "0.5pi")
        assert code == 2
        assert out == ""
        assert "missing required option(s): --sigma" in err

    def test_sampling_options_are_unrecognised(self, capsys):
        # a sampled ensemble is a Discrete of its draws, built in the library
        for option in (("--mc-samples", "500"), ("--mc-samples", "100000000"), ("--seed", "1")):
            with pytest.raises(SystemExit) as exc:
                run(capsys, "rabi", "--sigma", "0.05", "--max", "2pi", "--step", "1pi", *option)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unrecognized arguments: {' '.join(option)}" in captured.err

    def test_corrected_long_trace_keeps_contrast(self, capsys):
        code, out, _ = run(
            capsys,
            "rabi", "--sigma", "0.05", "--max", "40pi", "--step", "0.25pi",
            "--bb1", "--quiet",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        final_period = [abs(float(y)) for x, y in rows if float(x) >= 39 * math.pi]
        assert max(final_period) >= 0.98


class TestEchoCommand:
    def test_cp_decays_faster_than_cpmg(self, capsys, tmp_path):
        paths = {}
        for mode in ("cp", "cpmg"):
            out_path = tmp_path / f"{mode}.csv"
            code, _, _ = run(
                capsys,
                "echo", "--mode", mode, "--n", "32", "--epsilon", "0.1",
                "--out", str(out_path), "--quiet",
            )
            assert code == 0
            paths[mode] = out_path
        final = {}
        for mode, path in paths.items():
            last = path.read_text().strip().split("\n")[-1]
            final[mode] = float(last.split(",")[1])
        assert final["cp"] < final["cpmg"]

    @pytest.mark.parametrize("tau", ["0", "-1"])
    def test_non_positive_tau_exits_2(self, capsys, tau):
        code, out, err = run(
            capsys, "echo", "--mode", "cp", "--n", "4", "--tau", tau, "--nodes", "100"
        )
        assert code == 2
        assert out == ""
        assert "tau must be positive" in err

    def test_overflowing_delay_phase_exits_2_without_warnings(self, capsys):
        code, out, err = run(
            capsys, "echo", "--mode", "cp", "--n", "4", "--span", "1e307", "--nodes", "3",
            "--tau", "100",
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: a delay's phase delta * tau must be finite"]

    def test_overflowing_echo_time_exits_2(self, capsys):
        code, out, err = run(capsys, "echo", "--mode", "cp", "--n", "4", "--tau", "1e308")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: the last echo time 2 * tau * n_refocus must be finite"]

    def test_default_nodes_exact_up_to_128_cycles(self, capsys):
        # at n = 128 the default line (129 midpoints of the half period, 65
        # of them run) must give the train of the former fixed 257-node
        # full-period line and of a 515-node (4n + 3) one
        code, out, _ = run(capsys, "echo", "--mode", "cp", "--n", "128", "--epsilon", "0.1")
        assert code == 0
        train = [float(row.split(",")[1]) for row in out.strip().split("\n")[1:]]
        assert len(train) == 128
        for nodes, tol in ((257, 1e-13), (515, 1e-12)):
            line = echo_train("cp", 128, 0.1, periodic_line(1.0, nodes), tau=1.0)
            assert max(abs(a - b) for a, b in zip(train, line.values)) < tol

    def test_default_line_is_echo_trains_own(self, capsys):
        # past 128 cycles, where a fixed 257-node line stopped being exact
        code, out, _ = run(capsys, "echo", "--mode", "cp", "--n", "200", "--epsilon", "0.1")
        assert code == 0
        rows = [tuple(map(float, row.split(","))) for row in out.strip().split("\n")[1:]]
        assert rows == list(echo_train("cp", 200, 0.1).samples)
        code, out, _ = run(capsys, "echo", "--mode", "cp", "--n", "200", "--epsilon", "0.1", "--json")
        assert code == 0
        assert json.loads(out)["meta"]["config"]["provenance"]["ensemble"]["nodes"] == 201

    def test_nodes_apply_only_to_span(self, capsys):
        argv = ("echo", "--mode", "cpmg", "--n", "16", "--epsilon", "0.1")
        code, default, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--nodes", "3")
        assert code == 0
        assert out == default
        code, out, _ = run(capsys, *argv, "--span", "2", "--nodes", "3")
        assert code == 0
        assert out != default

    def test_train_above_snapshot_bound_exits_2(self, capsys):
        code, out, err = run(capsys, "echo", "--mode", "cp", "--n", "10000000")
        assert code == 2
        assert out == ""
        assert "n_refocus must be an integer in [1, 100000]" in err
        for argv in (("--n", "4096"), ("--n", "2896", "--bb1")):
            code, out, err = run(capsys, "echo", "--mode", "cp", *argv)
            assert code == 2
            assert out == ""
            assert "member-echoes" in err

    def test_sampling_options_are_unrecognised(self, capsys):
        for option in (("--mc-samples", "500"), ("--mc-samples", "100000000"), ("--seed", "1")):
            with pytest.raises(SystemExit) as exc:
                run(capsys, "echo", "--mode", "cp", "--n", "4", *option)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unrecognized arguments: {' '.join(option)}" in captured.err

    def test_estimate_error_round_trip(self, capsys, tmp_path):
        for mode in ("cp", "cpmg"):
            code, _, _ = run(
                capsys,
                "echo", "--mode", mode, "--n", "16", "--epsilon", "0.1",
                "--out", str(tmp_path / f"{mode}.csv"), "--quiet",
            )
            assert code == 0
        code, out, _ = run(
            capsys,
            "estimate-error",
            "--cp", str(tmp_path / "cp.csv"),
            "--cpmg", str(tmp_path / "cpmg.csv"),
        )
        assert code == 0
        eps_hat = float(out.split()[0].split("=")[1])
        assert eps_hat == pytest.approx(0.1, rel=0.1)

    def test_estimate_error_ignores_byte_order_mark(self, capsys, tmp_path):
        for mode in ("cp", "cpmg"):
            code, _, _ = run(
                capsys,
                "echo", "--mode", mode, "--n", "8", "--epsilon", "0.1",
                "--out", str(tmp_path / f"{mode}.csv"), "--quiet",
            )
            assert code == 0
        marked = tmp_path / "marked.csv"
        text = (tmp_path / "cp.csv").read_text(encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert cli._read_signal_csv(str(marked)).axis_label == "echo_time"
        fits = [
            run(capsys, "estimate-error", "--cp", str(cp), "--cpmg", str(tmp_path / "cpmg.csv"))
            for cp in (tmp_path / "cp.csv", marked)
        ]
        assert fits[0][0] == 0
        assert fits[1] == fits[0]

    def test_estimate_error_names_an_undecodable_file(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "echo", "--mode", "cp", "--n", "8", "--out", str(tmp_path / "cp.csv"), "--quiet"
        )
        assert code == 0
        bad = tmp_path / "cpmg.csv"
        bad.write_bytes(b"echo_time_s,echo_amplitude\n2.0,\xff\n")
        code, out, err = run(
            capsys, "estimate-error", "--cp", str(tmp_path / "cp.csv"), "--cpmg", str(bad)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")

    def test_estimate_error_rejects_nan_sample(self, capsys, tmp_path):
        for mode in ("cp", "cpmg"):
            code, _, _ = run(
                capsys,
                "echo", "--mode", mode, "--n", "8", "--epsilon", "0.1",
                "--out", str(tmp_path / f"{mode}.csv"), "--quiet",
            )
            assert code == 0
        lines = (tmp_path / "cp.csv").read_text().split("\n")
        lines[3] = lines[3].split(",")[0] + ",nan"
        (tmp_path / "cp.csv").write_text("\n".join(lines))
        code, out, err = run(
            capsys,
            "estimate-error",
            "--cp", str(tmp_path / "cp.csv"),
            "--cpmg", str(tmp_path / "cpmg.csv"),
        )
        assert code == 2
        assert out == ""
        assert "finite" in err


    @pytest.mark.parametrize(
        "text,message",
        [
            ("echo_time_s,echo_amplitude\n", "expected a CSV header plus data rows"),
            ("a,b,c\n1.0,2.0,3.0\n", "expected two CSV columns, got 3"),
            ("echo_time_s,echo_amplitude\n2.0,0.5\n4.0\n", "malformed CSV row '4.0'"),
            (
                "echo_time_s,echo_amplitude\n1,abc\n",
                "bad.csv: malformed CSV row '1,abc': could not convert string to float: 'abc'",
            ),
        ],
    )
    def test_estimate_error_rejects_malformed_csv(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "estimate-error", "--cp", str(bad), "--cpmg", str(bad))
        assert code == 2
        assert out == ""
        assert message in err

    def test_estimate_error_on_mismatched_ensemble_exits_2(self, capsys, tmp_path):
        for mode in ("cp", "cpmg"):
            code, _, _ = run(
                capsys,
                "echo", "--mode", mode, "--n", "16", "--epsilon", "0.1",
                "--span", "2", "--nodes", "65",
                "--out", str(tmp_path / f"{mode}.csv"), "--quiet",
            )
            assert code == 0
        code, out, err = run(
            capsys,
            "estimate-error",
            "--cp", str(tmp_path / "cp.csv"),
            "--cpmg", str(tmp_path / "cpmg.csv"),
        )
        assert code == 2
        assert out == ""
        assert "ensemble mismatch" in err

    def test_estimate_error_negative_eps_max_exits_2(self, capsys, tmp_path):
        for mode in ("cp", "cpmg"):
            code, _, _ = run(
                capsys,
                "echo", "--mode", mode, "--n", "8", "--epsilon", "0.1",
                "--out", str(tmp_path / f"{mode}.csv"), "--quiet",
            )
            assert code == 0
        code, out, err = run(
            capsys,
            "estimate-error",
            "--cp", str(tmp_path / "cp.csv"),
            "--cpmg", str(tmp_path / "cpmg.csv"),
            "--eps-max=-0.3",
        )
        assert code == 2
        assert out == ""
        assert "eps_max must lie in (0, 1)" in err

    def test_estimate_error_flat_model_exits_2(self, capsys, tmp_path, monkeypatch):
        def flat(eps, n, tau, delta, weights, bounded=False):
            ones = np.ones((eps.size, n // 2))
            return (ones, ones) if bounded else ones

        monkeypatch.setattr(analysis, "_model_ratio", flat)
        for mode in ("cp", "cpmg"):
            code, _, _ = run(
                capsys,
                "echo", "--mode", mode, "--n", "8", "--epsilon", "0.1",
                "--out", str(tmp_path / f"{mode}.csv"), "--quiet",
            )
            assert code == 0
        code, out, err = run(
            capsys,
            "estimate-error",
            "--cp", str(tmp_path / "cp.csv"),
            "--cpmg", str(tmp_path / "cpmg.csv"),
        )
        assert code == 2
        assert out == ""
        assert "the fit's Jacobian vanishes" in err

    def test_estimate_error_steps_that_do_not_converge_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(analysis, "FIT_MAX_STEPS", 1)
        for mode in ("cp", "cpmg"):
            code, _, _ = run(
                capsys,
                "echo", "--mode", mode, "--n", "16", "--epsilon", "0.123", "--tau", "0.7",
                "--out", str(tmp_path / f"{mode}.csv"), "--quiet",
            )
            assert code == 0
        code, out, err = run(
            capsys,
            "estimate-error",
            "--cp", str(tmp_path / "cp.csv"),
            "--cpmg", str(tmp_path / "cpmg.csv"),
        )
        assert code == 2
        assert out == ""
        assert "did not converge within 1 Gauss-Newton steps" in err

    @pytest.mark.parametrize(
        "rows,tau,message",
        [
            (4096, 1.0, "exceeds 8388608 member-echoes"),
            (100_001, 1.0, "n_refocus must be an integer in [1, 100000]"),
            (16, 0.0, "strictly increasing"),  # all times 0: the Signal refuses it
        ],
    )
    def test_estimate_error_bounds_checked_before_any_train(
        self, capsys, tmp_path, monkeypatch, rows, tau, message
    ):
        # a pair no echo_train could simulate is refused before the fit's grid
        def no_train(*args, **kwargs):
            raise AssertionError("simulated a train")

        for name in ("_echo_amplitudes", "echo_train"):
            monkeypatch.setattr(analysis, name, no_train)
        text = "echo_time_s,echo_amplitude\n" + "".join(
            f"{2.0 * tau * k!r},0.5\n" for k in range(1, rows + 1)
        )
        path = tmp_path / "train.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "estimate-error", "--cp", str(path), "--cpmg", str(path))
        assert code == 2
        assert out == ""
        assert message in err


class TestEseemCommand:
    def test_pi_mode(self, capsys):
        code, out, _ = run(capsys, "eseem-ratio", "--mode", "pi", "--theta-eps", "0.1rad")
        assert code == 0
        assert float(out.split("=")[1]) == pytest.approx(0.02, abs=1e-12)

    def test_magic_mode_at_zero_is_domain_error(self, capsys):
        code, _, err = run(capsys, "eseem-ratio", "--mode", "magic", "--theta-eps", "0rad")
        assert code == 2
        assert "diverges" in err


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        # utf-8-sig writes a byte-order mark, which the reader drops
        for encoding in ("utf-8", "utf-8-sig"):
            cfg.write_text("theta=1pi\nepsilon=0.2\n# comment\n", encoding=encoding)
            code, out, _ = run(capsys, "fidelity", "--config", str(cfg))
            assert code == 0
            f_cfg = float(out.split()[0].split("=")[1])
            assert f_cfg == pytest.approx(math.cos(0.1 * math.pi), abs=1e-9)

            code, out, _ = run(capsys, "fidelity", "--config", str(cfg), "--epsilon", "0.1")
            f_cli = float(out.split()[0].split("=")[1])
            assert f_cli == pytest.approx(math.cos(0.05 * math.pi), abs=1e-9)

    @pytest.mark.parametrize(
        "text,bb1",
        [("true", True), ("TRUE", True), ("1", True), ("yes", True), ("On", True),
         ("false", False), ("False", False), ("0", False), ("no", False), ("OFF", False)],
    )
    def test_switch_values(self, capsys, tmp_path, text, bb1):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"theta=1pi\nepsilon=0.1\nbb1={text}\n", encoding="utf-8")
        code, out, _ = run(capsys, "fidelity", "--config", str(cfg))
        assert code == 0
        infid = float(out.split()[1].split("=")[1])
        expected = 4.6224e-6 if bb1 else 1.0 - math.cos(0.05 * math.pi)
        assert infid == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("text", ["ture", "", "2", "y"])
    def test_bad_switch_value_rejected(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"theta=1pi\nepsilon=0.1\nbb1={text}\n", encoding="utf-8")
        code, out, err = run(capsys, "fidelity", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "'bb1'" in err and repr(text) in err

    @pytest.mark.parametrize(
        "text,message",
        [("theta 1pi\n", "run.cfg:1: expected key=value"),
         ("epsilon=0.1\ntheta=1\n", "config key 'theta': angle unit required")],
    )
    def test_malformed_line_rejected(self, capsys, tmp_path, text, message):
        code, out, err = run_with_config(capsys, tmp_path, text, "fidelity")
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "command,text,message",
        [("fidelity", "theta=1pi\nepsilon=abc\n",
          "config key 'epsilon': could not convert string to float: 'abc'"),
         ("scan", "theta=1pi\npoints=4.5\n",
          "config key 'points': invalid literal for int() with base 10: '4.5'")],
    )
    def test_unconvertible_value_names_its_key(self, capsys, tmp_path, command, text, message):
        code, out, err = run_with_config(capsys, tmp_path, text, command)
        assert code == 2
        assert out == ""
        assert message in err

    def test_untyped_value_taken_as_text(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=cp\n", encoding="utf-8")
        code, out, _ = run(capsys, "echo", "--n", "4", "--epsilon", "0.1", "--config", str(cfg))
        assert code == 0
        assert out == run(capsys, "echo", "--mode", "cp", "--n", "4", "--epsilon", "0.1")[1]

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        rabi = ("rabi", "--sigma", "0.05", "--max", "2pi", "--step", "1pi")
        echo = ("echo", "--mode", "cp", "--n", "4")
        # a sampled ensemble is a Discrete of its draws, built in the library
        cases = [(key, ("fidelity", "--theta", "1pi")) for key in ("frobnicate", "help", "config")]
        cases += [(key, argv) for key in ("mc-samples", "seed") for argv in (rabi, echo)]
        for key, argv in cases:
            cfg.write_text(f"{key}=500\n", encoding="utf-8")
            code, out, err = run(capsys, *argv, "--config", str(cfg))
            assert code == 2
            assert out == ""
            assert f"unknown config key {key!r}" in err

    def test_hash_inside_a_value_is_kept(self, capsys, tmp_path, monkeypatch):
        # "#" starts a comment only at the start of a line or after whitespace
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("#header\ntheta=1pi  # target\nout=run#2.csv\n", encoding="utf-8")
        code, out, _ = run(capsys, "fidelity", "--config", str(cfg), "--quiet")
        assert code == 0
        assert out == ""
        assert (tmp_path / "run#2.csv").read_text(encoding="utf-8").startswith("F=1.0")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "argv,text,message",
        [
            (("echo", "--n", "4", "--epsilon", "0.1"), "mode=CP\n",
             "config key 'mode': invalid choice 'CP' (choose from 'cp', 'cpmg')"),
            (("eseem-ratio", "--theta-eps", "0.1rad"), "mode=Pi\n",
             "config key 'mode': invalid choice 'Pi' (choose from 'pi', 'magic')"),
        ],
        ids=["echo", "eseem-ratio"],
    )
    def test_value_outside_choices_rejected(self, capsys, tmp_path, argv, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv,text,message",
        [
            (("fidelity",), "theta=1pi\n# the second value\ntheta=2pi\n",
             "run.cfg:3: key 'theta' given twice"),
            (("estimate-error", "--cp", "a.csv", "--cpmg", "b.csv"), "eps_max=0.2\neps-max=0.25\n",
             "run.cfg:2: key 'eps-max' given twice"),
        ],
    )
    def test_key_given_twice_rejected(self, capsys, tmp_path, argv, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "command,text,key,leaked",
        [
            ("fidelity", "theta=1pi\nepsilon=0.2\n", "epsilon", 0.2),
            ("fidelity", "theta=1pi\nepsilon=0.1\nbb1=yes\n", "bb1", True),
            ("scan", "theta=1pi\nsimple=yes\n", "bb1", False),
        ],
        ids=["value", "switch", "store-false"],
    )
    def test_config_does_not_reach_the_next_call(self, capsys, tmp_path, command, text, key, leaked):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, command, "--config", str(cfg), "--json", "--quiet")
        assert code == 0
        assert json.loads(out)["meta"]["config"][key] == leaked
        code, out, _ = run(capsys, command, "--theta", "1pi", "--json", "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["config"][key] != leaked
        if command == "fidelity":
            assert doc["meta"]["config"]["epsilon"] == 0.0
            assert doc["data"] == [{"fidelity": 1.0, "infidelity": 0.0}]

    def test_parser_built_once_per_process(self, capsys, tmp_path, monkeypatch):
        calls = []
        build = cli.build_parser

        def counted():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon=0.1\n", encoding="utf-8")
        for argv in (
            ("fidelity", "--theta", "1pi"),
            ("fidelity", "--theta", "1pi", "--config", str(cfg)),
            ("eseem-ratio", "--mode", "pi", "--theta-eps", "0.1rad"),
        ):
            assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1
        assert cli._parser() is cli._parser()


class TestOutputFormat:
    def test_csv_uses_lf_only(self, capsys, tmp_path):
        out = tmp_path / "echo.csv"
        assert main(
            ["echo", "--mode", "cp", "--n", "4", "--epsilon", "0.1",
             "--out", str(out), "--quiet"]
        ) == 0
        capsys.readouterr()
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rabi", "--sigma", "0.05", "--max", "4pi", "--step", "0.25pi", "--bb1"],
            ["rabi", "--sigma", "0.05", "--max", "2pi", "--step", "0.5pi", "--json"],
            ["echo", "--mode", "cpmg", "--n", "8", "--epsilon", "0.1", "--json"],
            ["scan", "--theta", "1pi", "--json"],
            ["verify-eq5"],
            ["fidelity", "--theta", "1pi", "--epsilon", "0.1", "--bb1", "--json"],
            ["eseem-ratio", "--mode", "magic", "--theta-eps", "0.1rad", "--json"],
        ],
    )
    def test_repeat_runs_byte_identical(self, capsys, tmp_path, argv):
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert main(argv + ["--out", str(a), "--quiet"]) == 0
        assert main(argv + ["--out", str(b), "--quiet"]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestConfigRecord:
    """``meta.config`` is the command's options, in declaration order,
    under their unit-bearing names, plus at most one computed extra."""

    def config(self, capsys, *argv):
        code, out, _ = run(capsys, *argv, "--json", "--quiet")
        assert code == 0
        return json.loads(out)["meta"]["config"]

    def test_fidelity_keys(self, capsys):
        config = self.config(capsys, "fidelity", "--theta", "1pi", "--epsilon", "0.1")
        assert list(config) == ["theta_rad", "epsilon", "bb1", "dphi1_rad", "dphi2_rad"]

    def test_scan_keys(self, capsys):
        config = self.config(capsys, "scan", "--theta", "1pi")
        assert list(config) == ["theta_rad", "lo", "hi", "points", "bb1", "slope"]

    def test_verify_eq5_keys(self, capsys):
        config = self.config(capsys, "verify-eq5")
        assert list(config) == ["epsilon", "step_rad", "max_rel_deviation", "rounding"]

    def test_rabi_keys(self, capsys):
        config = self.config(capsys, "rabi", "--sigma", "0.05", "--max", "1pi", "--step", "0.5pi")
        assert list(config) == [
            "sigma", "mean", "max_rad", "step_rad", "bb1", "nodes", "provenance",
        ]

    def test_echo_keys(self, capsys):
        config = self.config(capsys, "echo", "--mode", "cp", "--n", "2", "--nodes", "9")
        assert list(config) == [
            "mode", "n", "epsilon", "bb1", "tau_s", "t2_s", "span_rad_per_s", "nodes",
            "provenance",
        ]

    def test_estimate_error_keys(self, capsys, tmp_path):
        for mode in ("cp", "cpmg"):
            code, _, _ = run(
                capsys, "echo", "--mode", mode, "--n", "8", "--epsilon", "0.1",
                "--out", str(tmp_path / f"{mode}.csv"), "--quiet",
            )
            assert code == 0
        config = self.config(
            capsys, "estimate-error",
            "--cp", str(tmp_path / "cp.csv"), "--cpmg", str(tmp_path / "cpmg.csv"),
        )
        assert list(config) == ["cp", "cpmg", "eps_max"]

    def test_eseem_ratio_keys_and_row(self, capsys):
        code, out, _ = run(
            capsys, "eseem-ratio", "--mode", "pi", "--theta-eps", "0.1rad", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc["meta"]["config"]) == ["mode", "theta_eps_rad"]
        assert list(doc["data"][0]) == ["mode", "theta_eps_rad", "ratio", "magic_angle_rad"]

    def test_simple_from_config_records_bb1_false(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta=1pi\nsimple=yes\n", encoding="utf-8")
        config = self.config(capsys, "scan", "--config", str(cfg))
        assert config["bb1"] is False
        assert 1.9 <= config["slope"] <= 2.1

    def test_config_keeps_declaration_order(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dphi2=0.001pi\nbb1=yes\nepsilon=0.1\ntheta=1pi\n", encoding="utf-8")
        config = self.config(capsys, "fidelity", "--config", str(cfg))
        assert list(config) == ["theta_rad", "epsilon", "bb1", "dphi1_rad", "dphi2_rad"]
        assert config["dphi2_rad"] == pytest.approx(0.001 * math.pi)


def test_readme_example_prints_its_comment(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Example: reproduce", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    commands = [line.split()[1:] for line in lines if line.startswith("spinpulse ")]
    (comment,) = [line[2:] for line in lines if line.startswith("# ")]
    assert len(commands) == 3
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code == 0
    assert out == comment + "\n"


def test_readme_names_every_long_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    _, registry = cli.build_parser()
    missing = [
        f"{name} {option}"
        for name, subparser in registry.items()
        for action in subparser._actions
        if not isinstance(action, argparse._HelpAction)  # argparse's own --help
        for option in action.option_strings
        if option.startswith("--") and not re.search(re.escape(option) + r"(?![\w-])", section)
    ]
    assert missing == []


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "spinpulse.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


class TestEntryPoint:
    """``python -m spinpulse.cli`` runs ``sys.exit(main())``."""

    def test_success_matches_in_process_main(self, capsys):
        argv = ("fidelity", "--theta", "1pi", "--epsilon", "0.1", "--bb1")
        proc = run_module(*argv)
        assert proc.returncode == 0
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert proc.stdout == out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("fidelity", "--theta", "1pi", "--epsilon", "1e308", "--bb1"), "finite"),
            (("echo", "--mode", "cp", "--n", "4", "--tau", "1e-310"), "overflow"),
            (("fidelity", "--theta", "1pi", "--epsilon", "1e308"), "rotation angle"),
            (("eseem-ratio", "--mode", "pi", "--theta-eps", "1e308rad"), "not finite"),
            (("eseem-ratio", "--mode", "magic", "--theta-eps", "1e-320rad"), "not finite"),
        ],
        ids=["fidelity", "echo", "fidelity-simple", "eseem-pi", "eseem-magic"],
    )
    def test_overflow_exits_2_without_warnings(self, argv, message):
        proc = run_module(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert message in proc.stderr
        assert "Warning" not in proc.stderr

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon=0.2\ntheta=1pi\n", encoding="utf-8")
        argv = ("fidelity", "--config", str(cfg), "--epsilon", "0.1", "--json")
        proc = run_module(*argv)
        assert proc.returncode == 0
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert proc.stdout == out
        assert json.loads(out)["meta"]["config"]["epsilon"] == 0.1

    def test_domain_error_exits_2(self):
        proc = run_module("eseem-ratio", "--mode", "magic", "--theta-eps", "0rad")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "diverges" in proc.stderr
