"""Bit-identity corpus: every output byte of a fixed set of CLI runs.

Each case is one `fedproj run` or `fedproj verify` invocation on a small
config.  The test compares the sha256 of every file the invocation writes
(``metrics.csv``, ``summary.json``, ``effective_config.cfg``, reports) and its
exit code with the digests committed in ``bit_identity_digests.json``.  A
change that means to keep outputs identical must pass unchanged; a change
that means to alter them regenerates the digests with

    PYTHONPATH=src python tests/test_bit_identity.py --regenerate

and says which digests changed and why.  The last bits of ``np.log``,
``np.cos`` and friends may differ between builds and between the SIMD targets
numpy dispatches to, and BLAS sums in a kernel-dependent order, so the digests
are pinned to the python and numpy versions, numpy's enabled dispatch
targets and the OpenBLAS core that made them.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fedproj.cli import main

DIGESTS = Path(__file__).with_name("bit_identity_digests.json")
REGENERATE = "PYTHONPATH=src python tests/test_bit_identity.py --regenerate"

OBJECTIVES = {
    "quad": dict(objective="quadratic", dim=16, clients=4, centers="random",
                 center_scale=1.5, sigma=0.2, eta=0.2),
    "logi": dict(objective="logistic", dim=12, clients=4, samples_per_client=20,
                 sigma=0.1, eta=0.2),
    "mlp": dict(objective="tiny_mlp", clients=3, d_in=4, hidden=3,
                samples_per_client=15, sigma=0.1, eta=0.1),
}
ALGORITHMS = ("projfl", "projfl_ef", "fedavg", "ef", "ef21", "ef21_gamma",
              "diana", "diana_gamma")
COMPRESSORS = {
    "id": dict(compressor="identity"),
    "randk": dict(compressor="randk", k_fraction=0.25),
    "topk": dict(compressor="topk", k_fraction=0.25),
    "qsgd": dict(compressor="qsgd", s_levels=2),
}


def _cases():
    """name -> (command, item or None, jobs, config values)."""
    cases = {}
    for (oname, obj), alg, (cname, comp) in itertools.product(
            OBJECTIVES.items(), ALGORITHMS, COMPRESSORS.items()):
        name = f"{oname}-{alg}-{cname}"
        cases[name] = ("run", None, 1, dict(name=name, **obj, algorithm=alg, **comp,
                                            rounds=15, seeds="0:2"))
    mlp = OBJECTIVES["mlp"]
    cases["mlp-projfl_ef-topk-layerwise"] = ("run", None, 1, dict(
        name="mlp-projfl_ef-topk-layerwise", **mlp, algorithm="projfl_ef",
        compressor="topk", k_fraction=0.25, layerwise="true", rounds=15, seeds="0:2"))
    cases["mlp-projfl-randk-projlayerwise"] = ("run", None, 1, dict(
        name="mlp-projfl-randk-projlayerwise", **mlp, algorithm="projfl",
        compressor="randk", k_fraction=0.25, layerwise="true",
        projection_layerwise="true", rounds=15, seeds="0:2"))
    # paths the grid above leaves out: noise and cadence variants, history
    # windows, layerwise randk with a flat projection, the compact index cost
    # model, a diverging run, and more than 32 clients (many rows per kernel call)
    quad = OBJECTIVES["quad"]
    randk = COMPRESSORS["randk"]
    extra = {
        "quad-projfl-randk-ball": dict(quad, algorithm="projfl", **randk,
                                       noise="uniform_ball", sigma=0.3),
        "quad-projfl_ef-topk-sigma0": dict(quad, algorithm="projfl_ef",
                                           **COMPRESSORS["topk"], sigma=0.0),
        "quad-ef-qsgd-cadence3": dict(quad, algorithm="ef", **COMPRESSORS["qsgd"],
                                      cadence=3, rounds=16),
        "quad-projfl-randk-K1": dict(quad, algorithm="projfl", **randk, history_window=1),
        "quad-projfl_ef-qsgd-K5": dict(quad, algorithm="projfl_ef", **COMPRESSORS["qsgd"],
                                       history_window=5),
        "mlp-projfl-randk-layerwise": dict(mlp, algorithm="projfl", **randk,
                                           layerwise="true"),
        "quad-projfl-topk-ceillog2": dict(quad, algorithm="projfl", **COMPRESSORS["topk"],
                                          index_bits_mode="ceil_log2_dim", header_bits=8),
        "quad-projfl-diverge": dict(quad, algorithm="projfl", **randk, eta=1e200),
        "quad-projfl-randk-M40": dict(quad, dim=24, clients=40, algorithm="projfl",
                                      **randk),
        "logi-ef21-qsgd-M33": dict(OBJECTIVES["logi"], clients=33, algorithm="ef21",
                                   **COMPRESSORS["qsgd"]),
        "quad-projfl_ef-id-d1": dict(quad, dim=1, algorithm="projfl_ef",
                                     **COMPRESSORS["id"]),
        "quad-projfl-randk-d2": dict(quad, dim=2, algorithm="projfl", **randk),
        "quad-projfl_ef-id-d1-K9": dict(quad, dim=1, algorithm="projfl_ef",
                                        **COMPRESSORS["id"], history_window=9, rounds=40),
    }
    for name, values in extra.items():
        cases[name] = ("run", None, 1, dict(dict(rounds=15, seeds="0:2", name=name),
                                            **values))
    # --jobs 2 must write what --jobs 1 writes (see test_jobs_two_matches_jobs_one)
    twin = dict(cases["logi-projfl-qsgd"][3], seeds="0:4")
    cases["jobs1-logi-projfl-qsgd"] = ("run", None, 1, dict(twin, name="jobs-logi"))
    cases["jobs2-logi-projfl-qsgd"] = ("run", None, 2, dict(twin, name="jobs-logi"))

    # verifier items; the logistic ones locate w*/f* and use the (a, b) probe grid
    logi = dict(OBJECTIVES["logi"], rounds=30, seeds="0:2")
    verify = {
        "t1.1": dict(OBJECTIVES["quad"], algorithm="projfl", compressor="randk",
                     k_fraction=0.5, eta=0.1, rounds=30, seeds="0:2"),
        "t2.1": dict(OBJECTIVES["quad"], algorithm="projfl_ef", compressor="topk",
                     k_fraction=0.5, eta=0.01, rounds=30, seeds="0:2"),
        "lemmaA1": dict(OBJECTIVES["mlp"], algorithm="projfl_ef", compressor="topk",
                        k_fraction=0.25, eta=0.05, rounds=30, seeds="0:2"),
        "t1.2": dict(logi, algorithm="projfl", compressor="qsgd", s_levels=2, eta=0.05),
        "t1.3": dict(logi, algorithm="projfl", compressor="randk", k_fraction=0.5,
                     eta=0.05),
        "t2.2": dict(logi, algorithm="projfl_ef", compressor="topk", k_fraction=0.5,
                     eta=0.01),
        "t2.3": dict(logi, algorithm="projfl_ef", compressor="topk", k_fraction=0.5,
                     eta=0.01),
    }
    for item, values in verify.items():
        name = f"verify-{item}"
        cases[name] = ("verify", item, 1, dict(values, name=name))
    return cases


CASES = _cases()


def _numpy_dispatch() -> str:
    """numpy's dispatch targets that this CPU enables, e.g. ``X86_V3, X86_V4``."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return ", ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))


def _openblas_core() -> str:
    """The kernel core of numpy's bundled OpenBLAS (``OPENBLAS_CORETYPE``
    overrides it), or ``unknown``."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "numpy_dispatch": _numpy_dispatch(), "openblas_core": _openblas_core()}


def run_case(name: str, root: Path) -> dict:
    """Exit code and sha256 of every file one case writes."""
    command, item, jobs, values = CASES[name]
    cfg = root / f"{name}.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    out = root / name
    argv = [command, str(cfg), "--out", str(out), "--jobs", str(jobs)]
    if item:
        argv += ["--item", item]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    run_dir = out / values["name"]
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(run_dir.iterdir())}
    return {"exit": code, "files": files}


def load_digests() -> dict:
    data = json.loads(DIGESTS.read_text())
    if data["environment"] != environment():
        pytest.fail(f"bit-identity digests were made with {data['environment']}, "
                    f"this is {environment()}; regenerate them with: {REGENERATE}")
    return data["cases"]


@pytest.fixture(scope="module")
def digests():
    return load_digests()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_are_bit_identical(name, digests, tmp_path):
    assert name in digests, f"no digest for case {name}; regenerate with: {REGENERATE}"
    want = digests[name]
    got = run_case(name, tmp_path)
    changed = sorted(f for f in got["files"].keys() | want["files"].keys()
                     if got["files"].get(f) != want["files"].get(f))
    assert got == want, (f"{name}: exit {got['exit']} (digest: {want['exit']}), "
                         f"changed files {changed}; if the change means to alter "
                         f"outputs, regenerate with: {REGENERATE}")


def test_corpus_has_no_stale_digests(digests):
    assert sorted(digests) == sorted(CASES), f"regenerate with: {REGENERATE}"


def test_jobs_two_matches_jobs_one(digests):
    assert digests["jobs2-logi-projfl-qsgd"] == digests["jobs1-logi-projfl-qsgd"]


def test_version_mismatch_names_the_regenerate_command(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "environment", lambda: {"numpy": "0.0"})
    with pytest.raises(pytest.fail.Exception, match="regenerate them with: PYTHONPATH=src"):
        load_digests()


def test_another_blas_core_fails_on_the_environment():
    """Under another OpenBLAS core a case fails on the recorded environment,
    naming both, not on its digests."""
    if environment()["openblas_core"] == "unknown":
        pytest.skip("numpy's OpenBLAS does not report its core")
    recorded = json.loads(DIGESTS.read_text())["environment"]
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": str(root / "src")}
    case = f"{Path(__file__).name}::test_outputs_are_bit_identical[quad-projfl-randk-K1]"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           case], cwd=Path(__file__).parent, env=env, capture_output=True,
                          text=True)
    assert proc.returncode != 0
    assert f"bit-identity digests were made with {recorded}, this is {{" in proc.stdout
    assert "'openblas_core': 'Haswell'" in proc.stdout
    assert "changed files" not in proc.stdout


def regenerate():
    with tempfile.TemporaryDirectory() as tmp:
        cases = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    data = {"environment": environment(), "regenerate": REGENERATE, "cases": cases}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    codes = sorted({c["exit"] for c in cases.values()})
    print(f"wrote {len(cases)} cases to {DIGESTS} (exit codes {codes})")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {REGENERATE}")
    regenerate()
