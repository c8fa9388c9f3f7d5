import json

import pytest

from fedproj.cli import main


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
