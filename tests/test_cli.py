import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedproj.cli
import fedproj.harness
from fedproj.cli import main
from fedproj.compressors import CompressorSpec, compress, decode
from fedproj.harness import build_objective, eta_cap, loosest_eta_cap
from fedproj.vectors import StreamPurpose, stream_keys

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

    LOGI = dict(objective="logistic", dim=4, clients=2, samples_per_client=5)
    MLP = dict(objective="tiny_mlp", clients=2, d_in=3, hidden=2, samples_per_client=5)
    EF = dict(algorithm="projfl_ef")

    @pytest.mark.parametrize("item, values, reason", [
        ("t1.1", dict(compressor="topk", k_fraction=0.5),
         "compressor has no unbiasedness certificate (biased kind)"),
        ("t1.1", LOGI, "item 1 needs a recorded distance-to-optimum metric"),
        ("t1.1", dict(LOGI, ridge=0.0), "item 1 needs strong convexity (mu > 0)"),
        ("t1.2", MLP, "no certified L for this objective"),
        ("t1.3", dict(compressor="topk", k_fraction=0.5),
         "compressor has no unbiasedness certificate (biased kind)"),
        ("t2.1", dict(EF, compressor="randk", k_fraction=0.5),
         "compressor has no contraction certificate as applied (needs topk or identity)"),
        ("t2.1", dict(EF, **LOGI, ridge=0.0), "item 1 needs strong convexity (mu > 0)"),
        ("t2.2", dict(EF, **MLP), "no certified L for this objective"),
        ("t2.3", dict(EF, compressor="qsgd", s_levels=2),
         "compressor has no contraction certificate as applied (needs topk or identity)"),
        ("lemmaA1", dict(EF, compressor="randk", k_fraction=0.5),
         "compressor has no contraction certificate as applied"),
    ])
    def test_skipped_reason(self, tmp_path, capsys, item, values, reason):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=3, **values)
        assert main(["verify", str(cfg), "--item", item,
                     "--out", str(tmp_path), "--jobs", "1"]) == 4
        report = json.loads((tmp_path / "c" / f"report_{item.replace('.', '_')}.json")
                            .read_text())
        assert (report["status"], report["reason"]) == ("SKIPPED", reason)
        assert capsys.readouterr().out.startswith(f"{item}: SKIPPED ({reason})\n")

    @pytest.mark.parametrize("item, values, message", [
        ("t1.1", EF, "theorem-1 verification applies to projfl runs"),
        ("t1.2", EF, "theorem-1 verification applies to projfl runs"),
        ("t1.3", EF, "theorem-1 verification applies to projfl runs"),
        ("t2.1", {}, "theorem-2 verification applies to projfl_ef runs"),
        ("t2.2", {}, "theorem-2 verification applies to projfl_ef runs"),
        ("t2.3", {}, "theorem-2 verification applies to projfl_ef runs"),
        ("lemmaA1", {}, "the error-bound lemma applies to projfl_ef runs"),
        ("t1.1", dict(eta=2.0), "eta=2.0 exceeds the item-1 cap 1.0"),
        ("t1.2", dict(eta=2.0), "eta=2.0 exceeds the item-2 cap 0.5"),
        ("t1.3", dict(eta=2.0), "eta=2.0 exceeds the item-3 cap 1.0"),
        ("t2.1", dict(EF, eta=2.0), "eta=2.0 exceeds the item-1 cap 0.09128709291752768"),
        ("t2.2", dict(EF, eta=2.0), "eta=2.0 exceeds the item-2 cap 0.11180339887498948"),
        ("t2.3", dict(EF, eta=2.0), "eta=2.0 exceeds the item-3 cap 0.125"),
        ("t1.1", dict(cadence=3), "verifiers need per-round metrics (cadence=1)"),
        ("t9.9", {}, "unknown item 't9.9' (choose from t1.1, t1.2, t1.3, t2.1, t2.2, "
                     "t2.3, lemmaA1)"),
    ])
    def test_misuse_message(self, tmp_path, capsys, item, values, message):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=3, **values)
        assert main(["verify", str(cfg), "--item", item,
                     "--out", str(tmp_path), "--jobs", "1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "c").exists()

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

    @staticmethod
    def verify_in_fresh_process(tmp_path, cfg, item, block_scipy=False):
        """Exit code of ``verify`` in a new interpreter, and the scipy modules
        loaded there; ``block_scipy`` makes any scipy import fail."""
        code = ("import sys\n"
                + ("sys.modules['scipy'] = None\n" if block_scipy else "")
                + "from fedproj.cli import main\n"
                f"code = main(['verify', {str(cfg)!r}, '--item', {item!r}, "
                f"'--out', {str(tmp_path)!r}, '--jobs', '1'])\n"
                "print(code, sorted(m for m in sys.modules if m.startswith('scipy')\n"
                "                   and sys.modules[m] is not None))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
        return out.splitlines()[-1]

    def test_jobs_one_loads_no_process_pool(self, tmp_path):
        """The pool machinery is imported only for ``--jobs`` above 1."""
        cfg = write_cfg(tmp_path / "c.cfg", name="c", dim=8, clients=3, centers="random",
                        algorithm="projfl", compressor="randk", k_fraction=0.5, eta=0.1,
                        rounds=3, seeds="0:2")
        code = ("import sys\n"
                "import fedproj.cli\n"
                "pool = ('concurrent.futures', 'multiprocessing')\n"
                "assert not set(pool) & set(sys.modules), 'loaded on import'\n"
                f"code = fedproj.cli.main(['verify', {str(cfg)!r}, '--item', 't1.1', "
                f"'--out', {str(tmp_path)!r}, '--jobs', '1'])\n"
                "print(code, sorted(set(pool) & set(sys.modules)))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
        assert out.splitlines()[-1] == "0 []"

    def test_quadratic_verify_loads_no_scipy(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", dim=8, clients=3, centers="random",
                        algorithm="projfl", compressor="randk", k_fraction=0.5, eta=0.1,
                        rounds=3, seeds="0:2")
        assert self.verify_in_fresh_process(tmp_path, cfg, "t1.1") == "0 []"

    def test_logistic_verify_runs_without_scipy(self, tmp_path):
        """The logistic gradient and the optimum search behind t1.2 need numpy only."""
        cfg = write_cfg(tmp_path / "c.cfg", name="c", objective="logistic", dim=6,
                        clients=3, samples_per_client=10, algorithm="projfl",
                        compressor="qsgd", s_levels=2, eta=0.05, rounds=3, seeds="0:2")
        assert self.verify_in_fresh_process(tmp_path, cfg, "t1.2", block_scipy=True) \
            == "0 []"

    def test_sources_import_numpy_and_the_standard_library_only(self):
        for path in sorted((SRC / "fedproj").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    assert top == "numpy" or top in sys.stdlib_module_names, \
                        f"{path.name}:{node.lineno} imports {name}"

    def test_numpy_is_the_only_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
        assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] \
            == ["numpy"]


class TestDefinedExits:
    def test_run_ok_is_exit_0(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=3, seeds="0:2")
        assert main(["run", str(cfg), "--out", str(tmp_path), "--jobs", "1"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out == f"wrote {tmp_path / 'c' / 'metrics.csv'} (2 seeds x 4 rows)\n"
        assert sorted(p.name for p in (tmp_path / "c").iterdir()) == \
            ["effective_config.cfg", "metrics.csv", "summary.json"]

    @pytest.mark.parametrize("item, column", [("t1.2", "loss_gap"),
                                              ("t1.1", "dist_to_opt_sq")])
    def test_verify_fail_is_exit_3(self, tmp_path, capsys, item, column):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", eta=0.5, rounds=10)
        argv = ["verify", str(cfg), "--item", item, "--out", str(tmp_path), "--jobs", "1"]
        assert main(argv) == 0
        metrics = tmp_path / "c" / "metrics.csv"
        with open(metrics, newline="") as fh:
            rows = list(csv.reader(fh))
        j = rows[0].index(column)
        for row in rows[2:]:   # every row after round 0
            row[j] = repr(float(row[j]) * 1e3 + 1.0)
        with open(metrics, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert main(argv + ["--reuse", str(metrics)]) == 3
        report = json.loads((tmp_path / "c" / f"report_{item.replace('.', '_')}.json")
                            .read_text())
        assert report["status"] == "FAIL" and report["lhs"] > report["rhs"]
        assert capsys.readouterr().out.startswith(f"{item}: FAIL (")

    def test_lemma_fail_is_exit_3(self, tmp_path, capsys):
        """One round's error norm scaled by 1e3 in every seed breaks the lemma
        at that round alone."""
        cfg = write_cfg(tmp_path / "c.cfg", **TestReproduction.CFG)
        argv = ["verify", str(cfg), "--item", "lemmaA1", "--out", str(tmp_path),
                "--jobs", "1"]
        assert main(argv) == 0
        metrics = tmp_path / "c" / "metrics.csv"
        with open(metrics, newline="") as fh:
            rows = list(csv.reader(fh))
        j = rows[0].index("err_norm")
        for row in rows[1:]:
            if row[1] == "5":
                row[j] = repr(float(row[j]) * 1e3)
        with open(metrics, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert main(argv + ["--reuse", str(metrics)]) == 3
        assert capsys.readouterr().out.startswith("lemmaA1: FAIL (violated at rounds [5])\n")
        report = json.loads((tmp_path / "c" / "report_lemmaA1.json").read_text())
        assert report["status"] == "FAIL"

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

    def test_nonfinite_logistic_run_warns_nothing(self, tmp_path):
        """Overflowing margins give gradient weight 0 without a RuntimeWarning:
        stderr is the warning about eta and the divergence line, nothing more."""
        cfg = write_cfg(tmp_path / "c.cfg", name="c", objective="logistic", dim=6, clients=3,
                        samples_per_client=10, algorithm="projfl", eta=1e200, rounds=10,
                        seeds="0:2")
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "fedproj.cli", "run",
                               str(cfg), "--out", str(tmp_path), "--jobs", "1"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 2
        assert proc.stderr == (
            "warning: eta=1e+200 exceeds the loosest applicable convergence-bound cap "
            "0.412272; running anyway\n"
            "divergence: seeds [0, 1] left the iterate guard (an entry not finite or a "
            "norm above divergence_threshold)\n")

    def test_logistic_without_minimizer_is_one_line_exit_1(self, tmp_path, capsys):
        """ridge = 0 on separable data (d = 60 > 20 samples per client): f has
        no minimizer, so t1.2 has no w* to verify against."""
        cfg = write_cfg(tmp_path / "c.cfg", name="c", objective="logistic", dim=60,
                        clients=4, samples_per_client=20, ridge=0.0, algorithm="projfl",
                        compressor="identity", eta=0.01, rounds=3, seeds="0:2")
        assert main(["verify", str(cfg), "--item", "t1.2", "--out", str(tmp_path),
                     "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the optimum search found no minimizer of f") \
            and err.count("\n") == 1

    def test_export_of_a_run_is_its_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=3, seeds="0:2")
        assert main(["run", str(cfg), "--out", str(tmp_path), "--jobs", "1"]) == 0
        exported = tmp_path / "export.json"
        assert main(["export", str(tmp_path / "c"), "--output", str(exported)]) == 0
        assert exported.read_bytes() == (tmp_path / "c" / "summary.json").read_bytes()
        capsys.readouterr()
        assert main(["export", str(tmp_path / "c")]) == 0     # to stdout
        assert capsys.readouterr() == ((tmp_path / "c" / "summary.json").read_text(), "")

    def test_export_of_a_diverged_run_is_its_summary(self, tmp_path, capsys):
        """The seeds stop at round 1 of 10; the saved config's ``rounds``
        tells export that they diverged there."""
        cfg = write_cfg(tmp_path / "c.cfg", name="c", objective="logistic", dim=6, clients=3,
                        samples_per_client=10, algorithm="ef21", eta=1e200, rounds=10,
                        seeds="0:2")
        assert main(["run", str(cfg), "--out", str(tmp_path), "--jobs", "1"]) == 2
        summary = tmp_path / "c" / "summary.json"
        assert [s["diverged_at"] for s in json.loads(summary.read_text())["per_seed"]] \
            == [1, 1]
        exported = tmp_path / "export.json"
        assert main(["export", str(tmp_path / "c"), "--output", str(exported)]) == 0
        assert exported.read_bytes() == summary.read_bytes()

    def test_export_without_effective_config_is_one_line_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=3, seeds="0:2")
        assert main(["run", str(cfg), "--out", str(tmp_path), "--jobs", "1"]) == 0
        (tmp_path / "c" / "effective_config.cfg").unlink()
        capsys.readouterr()
        exported = tmp_path / "export.json"
        assert main(["export", str(tmp_path / "c"), "--output", str(exported)]) == 1
        assert capsys.readouterr() == ("", f"error: cannot export {tmp_path / 'c'}: no "
                                       f"effective_config.cfg next to its metrics.csv "
                                       f"gives the run's rounds\n")
        assert not exported.exists()

    def test_comma_list_seeds(self, tmp_path):
        """A comma list keeps its order in the echoed config; the rows come
        sorted by seed."""
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=2, seeds="5,2")
        assert main(["run", str(cfg), "--out", str(tmp_path), "--jobs", "1"]) == 0
        with open(tmp_path / "c" / "metrics.csv", newline="") as fh:
            assert [row[0] for row in list(csv.reader(fh))[1:]] == ["2"] * 3 + ["5"] * 3
        assert "seeds = 5,2\n" in (tmp_path / "c" / "effective_config.cfg").read_text()

    @pytest.mark.parametrize("command", [["run"], ["verify", "--item", "t1.1"]])
    def test_missing_config_is_one_line_exit_1(self, tmp_path, capsys, command):
        missing = tmp_path / "absent.cfg"
        argv = [command[0], str(missing), *command[1:], "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(missing) in err


class TestRefusedInputs:
    """Inputs that once ended in a traceback: one stderr line, exit 1, and
    nothing written."""

    @pytest.mark.parametrize("text, message", [
        ("x,y\n1,2\n", "unrecognized metrics CSV header"),
        ("", "unrecognized metrics CSV header"),
        (",".join(fedproj.harness.CSV_COLUMNS) + "\n", "no metrics rows"),
    ], ids=["foreign-header", "empty", "header-only"])
    def test_export_of_a_foreign_csv(self, tmp_path, capsys, text, message):
        metrics = tmp_path / "d" / "metrics.csv"
        metrics.parent.mkdir()
        metrics.write_text(text)
        summary = tmp_path / "summary.json"
        assert main(["export", str(metrics.parent), "--output", str(summary)]) == 1
        assert capsys.readouterr() == ("", f"error: cannot read {metrics}: {message}\n")
        assert not summary.exists()

    @pytest.mark.parametrize("command", [["run"], ["verify", "--item", "t1.1"]])
    def test_config_that_is_not_utf8(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"name = c\n\xff\xfe = 1\n")
        argv = [command[0], str(cfg), *command[1:], "--out", str(tmp_path), "--jobs", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: not UTF-8 text: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [cfg]

    def test_out_that_is_a_regular_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=2)
        blocker = tmp_path / "F"
        blocker.write_text("")
        assert main(["run", str(cfg), "--out", str(blocker), "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(blocker) in err
        assert sorted(tmp_path.iterdir()) == [blocker, cfg] and blocker.read_text() == ""

    LOGI = dict(objective="logistic", dim=4, clients=2, samples_per_client=5)

    @pytest.mark.parametrize("command", [["run"], ["verify", "--item", "t1.3"]])
    @pytest.mark.parametrize("values, key", [
        (dict(compressor="randk", k_fraction=0.5, layerwise="true"), "layerwise"),
        (dict(projection_layerwise="true"), "projection_layerwise"),
        (dict(LOGI, compressor="randk", k_fraction=0.5, layerwise="true"), "layerwise"),
        (dict(LOGI, layerwise="true", projection_layerwise="true"), "projection_layerwise"),
    ], ids=["quadratic", "quadratic-projection", "logistic", "logistic-both"])
    def test_layer_flag_without_layers(self, tmp_path, capsys, command, values, key):
        """A layer flag on an objective with no layers would change nothing."""
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=2, **values)
        argv = [command[0], str(cfg), *command[1:], "--out", str(tmp_path), "--jobs", "1"]
        assert main(argv) == 1
        kind = values.get("objective", "quadratic")
        assert capsys.readouterr() == ("", f"error: {cfg}: {key} = true needs an objective "
                                           f"with layers (tiny_mlp); {kind} has none\n")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", [["run"], ["verify", "--item", "t1.2"]])
    @pytest.mark.parametrize("values, message", [
        (dict(sigma="nan"), "sigma must be finite and >= 0, got nan"),
        (dict(sigma="inf"), "sigma must be finite and >= 0, got inf"),
        (dict(LOGI, ridge="nan"), "cannot build the objective: ridge must be finite and "
                                  ">= 0, got nan"),
        (dict(divergence_threshold="nan"), "divergence_threshold must be > 0, got nan"),
        (dict(divergence_threshold=0.0), "divergence_threshold must be > 0, got 0.0"),
        (dict(divergence_threshold=-1.0), "divergence_threshold must be > 0, got -1.0"),
        (dict(seeds="1,1"), "seeds must be distinct, got [1, 1]"),
    ], ids=["sigma-nan", "sigma-inf", "ridge-nan", "threshold-nan", "threshold-zero",
            "threshold-negative", "repeated-seed"])
    def test_value_that_would_run_wrong(self, tmp_path, capsys, command, values, message):
        """Each of these once ran: noiseless, diverged at round 1, or with a
        seed counted twice."""
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=2, **values)
        argv = [command[0], str(cfg), *command[1:], "--out", str(tmp_path), "--jobs", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{message}\n") \
            and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", [["run"], ["verify", "--item", "t1.1"]])
    def test_unknown_noise_law(self, tmp_path, capsys, command):
        """The noise law is fixed, so a ``noise`` line is refused as a key,
        before its value is read: the one law, an older one or a bogus one."""
        for noise in ("rademacher", "gaussian_iso", "bogus"):
            cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=2, noise=noise)
            argv = [command[0], str(cfg), *command[1:], "--out", str(tmp_path), "--jobs", "1"]
            assert main(argv) == 1
            assert capsys.readouterr() == ("", f"error: {cfg}:3: unknown key 'noise'\n")
            assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("values, message", [
        (dict(clients=10**23, centers="random"), "{cfg}: cannot build the objective: "),
        (dict(seeds=f"0:{10**23}"), "{cfg}:3: bad value for seeds: "),
    ], ids=["clients", "seeds"])
    def test_count_too_large_for_an_int64(self, tmp_path, capsys, values, message):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=2, **values)
        assert main(["run", str(cfg), "--out", str(tmp_path), "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(cfg=cfg)}Python int too large") \
            and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [cfg]

    def test_bit_cost_too_large_for_an_int64(self, tmp_path, capsys):
        """``value_bits = 10**19`` fails in the first round's ledger, not in a
        traceback; no metrics are written."""
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=2, value_bits=10**19)
        assert main(["run", str(cfg), "--out", str(tmp_path), "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Python int too large") and err.count("\n") == 1
        assert not (tmp_path / "c" / "metrics.csv").exists()

    def test_certify_has_no_layerwise_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--kind", "topk", "--dim", "50", "--layerwise"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --layerwise" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["identity", "randk", "topk", "qsgd"])
    def test_certify_dim_below_1(self, capsys, kind):
        assert main(["certify", "--kind", kind, "--dim", "0"]) == 1
        assert capsys.readouterr() == ("", "error: dim must be >= 1, got 0\n")


class TestCertify:
    """The certificates and their evidence, byte for byte; d=120 draws its
    10 000 trials in two blocks of rows."""

    @pytest.mark.parametrize("argv, text", [
        (["randk", "5", "--k-fraction", "0.4"],
         "randk d=5 k_eff=2: beta = 2.5\n"
         "  exhaustive enumeration over all 10 subsets: max |E[C(g)] - g| = 0, "
         "|E||C(g)||^2 - beta*||g||^2| = 0\n"
         "  implied delta (scaled operator) = 0.4\n"),
        (["randk", "50", "--k-fraction", "0.25"],
         "randk d=50 k_eff=13: beta = 3.84615384615\n"
         "  Monte-Carlo (10000 trials): max |mean - g| = 0.0426, "
         "E||C(g)||^2 / (beta*||g||^2) = 0.9952\n"
         "  implied delta (scaled operator) = 0.26\n"),
        (["randk", "120", "--k-fraction", "0.1"],
         "randk d=120 k_eff=12: beta = 10\n"
         "  Monte-Carlo (10000 trials): max |mean - g| = 0.0802, "
         "E||C(g)||^2 / (beta*||g||^2) = 1.0002\n"
         "  implied delta (scaled operator) = 0.1\n"),
        (["topk", "50", "--k-fraction", "0.25"],
         "topk d=50 k_eff=13: delta = 0.26\n"
         "  worst-case witness (all-equal magnitudes): ||C(g)-g||^2 = 37 = "
         "(1-delta)*||g||^2 = 37\n"
         "  10000 random vectors: max ||C(g)-g||^2/||g||^2 = 0.449388 "
         "<= 1-delta = 0.740000\n"),
        (["topk", "120", "--k-fraction", "0.1"],
         "topk d=120 k_eff=12: delta = 0.1\n"
         "  worst-case witness (all-equal magnitudes): ||C(g)-g||^2 = 108 = "
         "(1-delta)*||g||^2 = 108\n"
         "  10000 random vectors: max ||C(g)-g||^2/||g||^2 = 0.699054 "
         "<= 1-delta = 0.900000\n"),
        (["qsgd", "3", "--s-levels", "2"],
         "qsgd d=3 s=2: beta bound = 1 + min(d/s^2, sqrt(d)/s) = 1.75\n"
         "  exact outcome enumeration: max |E[C(g)] - g| = 0\n"
         "  Monte-Carlo (10000 trials): E||C(g)||^2 / (beta*||g||^2) = 0.6480 "
         "(<= 1 expected)\n"),
        (["qsgd", "50", "--s-levels", "2"],
         "qsgd d=50 s=2: beta bound = 1 + min(d/s^2, sqrt(d)/s) = 4.53553390593\n"
         "  Monte-Carlo (10000 trials): E||C(g)||^2 / (beta*||g||^2) = 0.6341 "
         "(<= 1 expected)\n"),
        (["identity", "4"], "identity: beta = 1, delta = 1 (exact, no compression error)\n"),
    ], ids=["randk-5", "randk-50", "randk-120", "topk-50", "topk-120", "qsgd-3", "qsgd-50",
            "identity"])
    def test_stdout(self, capsys, argv, text):
        assert main(["certify", "--kind", argv[0], "--dim", *argv[1:]]) == 0
        assert capsys.readouterr() == (text, "")

    @pytest.mark.parametrize("kind", ["randk", "qsgd"])
    def test_trial_rows_match_one_compress_per_trial(self, kind):
        spec = CompressorSpec(kind, k_fraction=0.1, s_levels=3)
        g = np.random.default_rng(0).standard_normal(120)
        rows = np.concatenate(list(fedproj.cli._compressed_trials(spec, g)))
        loop = [decode(compress(spec, g[None, :],
                                stream_keys(0, 0, r, StreamPurpose.COMPRESSOR)))[0]
                for r in range(len(rows))]
        assert len(rows) == 10_000 and np.array_equal(rows, loop)


class TestEtaCapWarning:
    """``run`` warns on stderr when eta exceeds the cap of every verifier item
    that applies to the run, and runs anyway."""

    WARNING = ("warning: eta={} exceeds the loosest applicable convergence-bound cap {}; "
               "running anyway\n")
    DIANA_WARNING = ("warning: diana_alpha={} exceeds 1/beta = {}, the largest memory step "
                     "the diana theory admits; running anyway\n")
    DIANA = dict(dim=8, clients=3, centers="random", compressor="randk", k_fraction=0.25)

    @pytest.mark.parametrize("values, warning", [
        # axis_pair quadratic, identity: caps 1.0 (t1.1), 0.5 (t1.2), 1.0 (t1.3)
        (dict(eta=1.5), WARNING.format(1.5, "1")),
        (dict(eta=1.0), ""),
        # no certified L: no bound applies
        (dict(objective="tiny_mlp", clients=2, d_in=3, hidden=2, samples_per_client=5,
              eta=1.0), ""),
        # no w*: t1.1 is skipped, so the cap is t1.3's 1/L, not t1.1's 2/(mu + L)
        (dict(objective="logistic", dim=4, clients=2, samples_per_client=5, eta=1.5),
         WARNING.format(1.5, "1.08515")),
        (dict(algorithm="projfl_ef", compressor="topk", k_fraction=0.5, eta=0.5),
         WARNING.format(0.5, "0.0625")),
        (dict(algorithm="projfl_ef", compressor="randk", k_fraction=0.5, eta=0.5), ""),
        (dict(algorithm="fedavg", eta=1.5), ""),
        # diana's memory step: randk 25 % of 8 has beta = 4, qsgd s=1 at d=8 beta = 1 + sqrt(8)
        (dict(DIANA, algorithm="diana"), DIANA_WARNING.format(0.9, "0.25")),
        (dict(DIANA, algorithm="diana", diana_alpha=0.25), ""),
        (dict(DIANA, algorithm="diana_gamma", compressor="qsgd"),
         DIANA_WARNING.format(0.9, "0.261204")),
        (dict(DIANA, algorithm="diana", compressor="topk"), ""),     # no beta certificate
        (dict(algorithm="diana"), ""),                                # identity: beta = 1
    ], ids=["quad-above", "quad-at-cap", "mlp", "logistic", "topk-ef", "randk-ef", "fedavg",
            "diana-randk", "diana-randk-at-bound", "diana_gamma-qsgd", "diana-topk",
            "diana-identity"])
    def test_warning_on_stderr_exit_0(self, tmp_path, capsys, values, warning):
        cfg = write_cfg(tmp_path / "c.cfg", name="c", rounds=3, **values)
        assert main(["run", str(cfg), "--out", str(tmp_path), "--jobs", "1"]) == 0
        assert capsys.readouterr().err == warning

    def test_logistic_cap_is_the_t1_3_cap(self, tmp_path):
        values = fedproj.cli.parse_config_file(write_cfg(
            tmp_path / "c.cfg", objective="logistic", dim=4, clients=2,
            samples_per_client=5))
        config = fedproj.cli.build_run_config(values)
        obj = build_objective(config.objective)
        assert loosest_eta_cap(obj, config) == eta_cap("t1.3", obj, 1.0) \
            < eta_cap("t1.1", obj, 1.0)


class TestConfigErrors:
    """Each config error names ``path:line``, is one line, and exits 1."""

    @pytest.mark.parametrize("line, message", [
        ("rounds 3", "expected 'key = value'"),
        ("round = 3", "unknown key 'round'"),
        ("eta = 0.2", "duplicate key 'eta'"),
        ("rounds = three", "bad value for rounds"),
        ("output_rule = last", "unknown key 'output_rule'"),
        ("layerwise = maybe", "bad value for layerwise: expected a boolean, got 'maybe'"),
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

    @pytest.mark.parametrize("change", ["dim", "no_effective_config", "name"])
    def test_verify_reuse_needs_the_same_config(self, tmp_path, capsys, change):
        a = write_cfg(tmp_path / "a.cfg", name="a", dim=6, clients=3, centers="random",
                      algorithm="projfl", compressor="randk", k_fraction=0.5, eta=0.05,
                      rounds=6, seeds="0:2")
        assert main(["verify", str(a), "--item", "t1.1", "--out", str(tmp_path),
                     "--jobs", "1"]) == 0
        metrics = tmp_path / "a" / "metrics.csv"
        values = dict(name="b", dim=6, clients=3, centers="random", algorithm="projfl",
                      compressor="randk", k_fraction=0.5, eta=0.05, rounds=6, seeds="0:2")
        if change == "dim":
            values.update(dim=9, eta=0.2)
        elif change == "no_effective_config":
            (tmp_path / "a" / "effective_config.cfg").unlink()
        b = write_cfg(tmp_path / "b.cfg", **values)
        capsys.readouterr()
        code = main(["verify", str(b), "--item", "t1.1", "--out", str(tmp_path),
                     "--reuse", str(metrics)])
        report = tmp_path / "b" / "report_t1_1.json"
        if change == "name":    # the name alone may differ
            assert code == 0 and report.exists()
            return
        assert code == 1 and not (tmp_path / "b").exists()
        err = capsys.readouterr().err
        assert err == (f"error: {metrics} was not written by this config (the "
                       f"effective_config.cfg next to it is missing or differs)\n")

    @pytest.mark.parametrize("noise", [None, "gaussian_iso"])
    def test_verify_reuse_of_a_gaussian_run(self, tmp_path, capsys, noise):
        """A run directory whose ``effective_config.cfg`` holds
        ``noise = gaussian_iso``, as an older Gaussian run's does, holds
        metrics no config makes now.  ``verify --reuse`` refuses it from a
        config that omits ``noise`` (its effective config differs) and from
        one that still names the law (``noise`` is not a key), and writes
        nothing."""
        a = write_cfg(tmp_path / "a.cfg", **self.CFG)
        assert main(["run", str(a), "--out", str(tmp_path / "a"), "--jobs", "1"]) == 0
        metrics = tmp_path / "a" / "c" / "metrics.csv"
        effective = metrics.with_name("effective_config.cfg")
        lines = effective.read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("sigma = "))
        effective.write_text("".join(lines[:at] + ["noise = gaussian_iso\n"] + lines[at:]))
        b = write_cfg(tmp_path / "b.cfg", **(dict(self.CFG, noise=noise) if noise else self.CFG))
        capsys.readouterr()
        code = main(["verify", str(b), "--item", "lemmaA1", "--jobs", "1",
                     "--out", str(tmp_path / "b"), "--reuse", str(metrics)])
        assert code == 1 and not (tmp_path / "b").exists()
        assert capsys.readouterr() == ("", (
            f"error: {b}:{len(self.CFG) + 1}: unknown key 'noise'\n" if noise else
            f"error: {metrics} was not written by this config (the "
            f"effective_config.cfg next to it is missing or differs)\n"))

    def test_run_dir_with_a_noise_line(self, tmp_path, capsys):
        """A run directory written while ``noise`` was a key holds a
        ``noise = rademacher`` line (the older default law, which is the one
        law now).  ``export`` and ``verify --reuse`` refuse it; with the line
        deleted, its config reruns to the same bytes."""
        cfg = write_cfg(tmp_path / "c.cfg", **self.CFG)
        run_dir = tmp_path / "old" / "c"
        assert main(["run", str(cfg), "--out", str(run_dir.parent), "--jobs", "1"]) == 0
        effective = run_dir / "effective_config.cfg"
        lines = effective.read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("sigma = "))
        effective.write_text("".join(lines[:at] + ["noise = rademacher\n"] + lines[at:]))
        capsys.readouterr()
        assert main(["export", str(run_dir), "--output", str(tmp_path / "s.json")]) == 1
        assert capsys.readouterr() == (
            "", f"error: {effective}:{at + 1}: unknown key 'noise'\n")
        metrics = run_dir / "metrics.csv"
        assert main(["verify", str(cfg), "--item", "lemmaA1", "--jobs", "1",
                     "--out", str(tmp_path / "b"), "--reuse", str(metrics)]) == 1
        assert capsys.readouterr() == ("", f"error: {metrics} was not written by this "
                                           f"config (the effective_config.cfg next to it "
                                           f"is missing or differs)\n")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "c.cfg", tmp_path / "old"]
        effective.write_text("".join(lines))
        assert main(["run", str(effective), "--out", str(tmp_path / "new"), "--jobs", "1"]) == 0
        assert (tmp_path / "new" / "c" / "metrics.csv").read_bytes() == metrics.read_bytes()

    def test_verify_reuse_of_diverged_seeds_is_refused(self, tmp_path, capsys):
        """The CSV has no diverged_at: seeds that stop before ``rounds`` diverged."""
        cfg = write_cfg(tmp_path / "c.cfg", name="c", dim=4, clients=2,
                        compressor="identity", eta=0.5, rounds=10, seeds="0:2",
                        divergence_threshold=0.5)
        argv = ["verify", str(cfg), "--item", "t1.2", "--jobs", "1"]
        message = "error: seeds [0, 1] diverged; bounds do not apply\n"
        assert main(argv + ["--out", str(tmp_path / "a")]) == 1
        assert capsys.readouterr().err == message
        metrics = tmp_path / "a" / "c" / "metrics.csv"
        assert main(argv + ["--out", str(tmp_path / "b"), "--reuse", str(metrics)]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("damage", ["missing", "header", "truncated"])
    def test_verify_reuse_unreadable_csv_is_one_line_exit_1(self, tmp_path, capsys, damage):
        cfg = write_cfg(tmp_path / "c.cfg", **self.CFG)
        argv = ["verify", str(cfg), "--item", "lemmaA1", "--out", str(tmp_path),
                "--jobs", "1"]
        assert main(argv) == 0
        metrics = tmp_path / "c" / "metrics.csv"
        if damage == "missing":
            metrics.unlink()
        elif damage == "header":
            metrics.write_text("x,y\n")
        else:
            metrics.write_text(metrics.read_text()[:-20])
        capsys.readouterr()
        assert main(argv + ["--reuse", str(metrics)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {metrics}: ") and err.count("\n") == 1
