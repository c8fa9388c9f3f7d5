import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedproj.cli
import fedproj.harness
from fedproj.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def write_cfg(path, **values):
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return path


class TestVerifyPrecheck:
    """Misuse and SKIPPED are decided from the config alone: no round runs."""

    @pytest.mark.parametrize("item, values, code", [
        ("t1.1", dict(algorithm="projfl_ef", compressor="topk", k_fraction=0.5), 1),
        ("lemmaA1", dict(algorithm="projfl"), 1),
        ("t1.1", dict(eta=1.1), 1),                                  # cap is 1.0
        ("t1.1", dict(objective="logistic", dim=4, clients=2, samples_per_client=5), 4),
        ("t2.1", dict(algorithm="projfl_ef", compressor="randk", k_fraction=0.5), 4),
    ])
    def test_exit_without_running(self, tmp_path, item, values, code):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=3, **values)
        assert main(["verify", str(cfg), "--item", item,
                     "--out", str(tmp_path), "--jobs", "1"]) == code
        assert not (tmp_path / "c" / "metrics.csv").exists()
        report = tmp_path / "c" / f"report_{item.replace('.', '_')}.json"
        if code == 4:
            assert json.loads(report.read_text())["status"] == "SKIPPED"
        else:
            assert not report.exists()

    def test_pass_writes_metrics(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", eta=0.5, rounds=3)
        assert main(["verify", str(cfg), "--item", "t1.1",
                     "--out", str(tmp_path), "--jobs", "1"]) == 0
        assert (tmp_path / "c" / "metrics.csv").exists()


class TestObjectiveBuild:
    @pytest.mark.parametrize("command, values, message", [
        (["run"], dict(clients=3), "axis_pair centers require exactly 2 clients"),
        (["verify", "--item", "t1.1"], dict(clients=3),
         "axis_pair centers require exactly 2 clients"),
        (["run"], dict(dim=0), "d must be >= 1"),
        (["run"], dict(objective="logistic", dim=0), "d must be >= 1"),
        (["run"], dict(objective="tiny_mlp", d_in=0), "d_in must be >= 1"),
        (["run"], dict(centers="random", clients=3, center_scale="inf"), "must be finite"),
        (["run"], dict(separation="nan"), "must be finite"),
        (["verify", "--item", "t1.1"], dict(centers="random", clients=3, center_scale="inf"),
         "must be finite"),
    ])
    def test_bad_objective_is_one_line_exit_1(self, tmp_path, capsys, command, values,
                                              message):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=2, **values)
        argv = [command[0], str(cfg), *command[1:], "--out", str(tmp_path), "--jobs", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "c" / "metrics.csv").exists()

    @pytest.mark.parametrize("command", [["run"], ["verify", "--item", "t1.3"]])
    def test_built_once_per_command(self, tmp_path, monkeypatch, command):
        calls = []
        build = fedproj.harness.build_objective

        def counting(ocfg):
            calls.append(ocfg)
            return build(ocfg)

        monkeypatch.setattr(fedproj.cli, "build_objective", counting)
        monkeypatch.setattr(fedproj.harness, "build_objective", counting)
        cfg = write_cfg(tmp_path / "c.cfg", name="c", objective="logistic", dim=4,
                        clients=2, samples_per_client=5, eta=0.05, rounds=3, seeds="0:2")
        argv = [command[0], str(cfg), *command[1:], "--out", str(tmp_path), "--jobs", "1"]
        assert main(argv) == 0
        assert len(calls) == 1

    def test_quadratic_verify_loads_no_scipy(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", dim=8, clients=3, centers="random",
                        algorithm="projfl", compressor="randk", k_fraction=0.5, eta=0.1,
                        rounds=3, seeds="0:2")
        code = ("import sys\n"
                "from fedproj.cli import main\n"
                f"code = main(['verify', {str(cfg)!r}, '--item', 't1.1', "
                f"'--out', {str(tmp_path)!r}, '--jobs', '1'])\n"
                "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
        assert out.splitlines()[-1] == "0 []"


class TestDefinedExits:
    def test_nonfinite_iterate_is_divergence(self, tmp_path, capsys):
        # the norm guard alone never fires at an infinite threshold
        cfg = write_cfg(tmp_path / "c.cfg", name="c", objective="logistic", dim=6, clients=3,
                        samples_per_client=10, algorithm="ef21", eta=1e200,
                        divergence_threshold="inf", rounds=10, seeds="0:2")
        assert main(["run", str(cfg), "--out", str(tmp_path), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("divergence: seeds [0, 1]") and err.count("\n") == 1
        summary = json.loads((tmp_path / "c" / "summary.json").read_text())
        assert [s["diverged_at"] for s in summary["per_seed"]] == [2, 2]

    @pytest.mark.parametrize("command", [["run"], ["verify", "--item", "t1.1"]])
    def test_missing_config_is_one_line_exit_1(self, tmp_path, capsys, command):
        missing = tmp_path / "absent.cfg"
        argv = [command[0], str(missing), *command[1:], "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(missing) in err


class TestConfigErrors:
    """Each config error names ``path:line``, is one line, and exits 1."""

    @pytest.mark.parametrize("line, message", [
        ("rounds 3", "expected 'key = value'"),
        ("round = 3", "unknown key 'round'"),
        ("eta = 0.2", "duplicate key 'eta'"),
        ("rounds = three", "bad value for rounds"),
        ("output_rule = last", "unknown key 'output_rule'"),
    ])
    @pytest.mark.parametrize("command", [["run"], ["verify", "--item", "t1.1"]])
    def test_error_names_path_and_line(self, tmp_path, capsys, command, line, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"name = c\n# a comment\neta = 0.1\n\n{line}\n")
        argv = [command[0], str(cfg), *command[1:], "--out", str(tmp_path), "--jobs", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:5: {message}") and err.count("\n") == 1
        assert not (tmp_path / "c").exists()


class TestReproduction:
    CFG = dict(name="c", dim=6, clients=3, centers="random", algorithm="projfl_ef",
               compressor="topk", k_fraction=0.5, eta=0.05, sigma=0.2, rounds=6,
               seeds="0:2")

    def test_rerun_of_effective_config_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", **self.CFG)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", str(cfg), "--out", str(first), "--jobs", "1"]) == 0
        effective = first / "c" / "effective_config.cfg"
        assert main(["run", str(effective), "--out", str(second), "--jobs", "1"]) == 0
        for name in ("metrics.csv", "effective_config.cfg"):
            assert (second / "c" / name).read_bytes() == (first / "c" / name).read_bytes()

    def test_verify_reuse_rewrites_the_same_report(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", **self.CFG)
        argv = ["verify", str(cfg), "--item", "lemmaA1", "--jobs", "1"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        report = (tmp_path / "a" / "c" / "report_lemmaA1.json").read_bytes()
        metrics = tmp_path / "a" / "c" / "metrics.csv"
        assert main(argv + ["--out", str(tmp_path / "b"), "--reuse", str(metrics)]) == 0
        assert (tmp_path / "b" / "c" / "report_lemmaA1.json").read_bytes() == report
        assert not (tmp_path / "b" / "c" / "metrics.csv").exists()
