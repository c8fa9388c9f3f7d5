#!/usr/bin/env python3
"""Benchmark of `fedproj verify` on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each invocation of the program is a
child process, `python3 -m fedproj.cli verify ... --jobs 1`, with
``PYTHONPATH=src`` and BLAS/OpenMP threads set to 1 in the child only.

``--trace 0`` repeats whole rounds of two invocations, one with the
workload's horizon and one with ``rounds = 0``, until ``S`` seconds have
passed, checks every output, and prints the end-to-end metrics.
``--trace 1`` repeats untraced invocations for ``S`` seconds, then makes one
traced invocation inside this process (see tracer.py), checks that its
outputs are byte-identical to the untraced ones, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 60.0

# One BLAS/OpenMP thread: the machine this was tuned on has 2 shared cores,
# where a threaded eigvalsh or a process pool would time the scheduler.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# Each workload stresses a different layer; README.md gives the reasons.
# The data set is fixed per workload (``data_seed``); --seed picks the
# algorithm seeds, i.e. the gradient-noise and compressor streams.
WORKLOADS = {
    "topk-ef-wide": {
        "item": "lemmaA1",
        "config": dict(objective="quadratic", dim=30000, clients=10, centers="random",
                       data_seed=7, algorithm="projfl_ef", eta=0.002, compressor="topk",
                       k_fraction=0.01, sigma=0.5, rounds=20),
        "seeds_per_run": 2,
    },
    "randk-many-clients": {
        "item": "t1.1",
        "config": dict(objective="quadratic", dim=200, clients=100, centers="random",
                       data_seed=7, algorithm="projfl", eta=0.5, compressor="randk",
                       k_fraction=0.1, sigma=0.5, rounds=40),
        "seeds_per_run": 2,
    },
    "logistic-setup": {
        "item": "t1.2",
        "config": dict(objective="logistic", dim=600, clients=24, samples_per_client=120,
                       data_seed=7, algorithm="projfl", eta=0.05, compressor="qsgd",
                       s_levels=4, sigma=0.1, rounds=150),
        "seeds_per_run": 2,
    },
}


def workload_config(name: str, seed: int, rounds=None) -> dict:
    wl = WORKLOADS[name]
    cfg = dict(wl["config"])
    if rounds is not None:
        cfg["rounds"] = rounds
    n = wl["seeds_per_run"]
    cfg["seed_list"] = list(range(n * seed, n * seed + n))
    cfg["name"] = f"{name}-r{cfg['rounds']}"
    return cfg


def write_config(cfg: dict, path: Path):
    lines = [f"{key} = {value}" for key, value in cfg.items() if key != "seed_list"]
    lines.append(f"seeds = {cfg['seed_list'][0]}:{cfg['seed_list'][-1] + 1}")
    path.write_text("\n".join(lines) + "\n")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FEDPROJ_") and k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, log: Path):
    """Run ``argv`` to completion; returns (wall seconds, peak RSS MB, exit code)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    # wait4 reaped the child; tell Popen so it does not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def verify_argv(cfg_path: Path, item: str, out: Path, jobs: int = 1):
    return [sys.executable, "-m", "fedproj.cli", "verify", str(cfg_path),
            "--item", item, "--out", str(out), "--jobs", str(jobs)]


class Invoker:
    """Writes a workload's configs and runs checked `fedproj verify` invocations."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.item = WORKLOADS[workload]["item"]
        self.work = work
        self.full = workload_config(workload, seed)
        self.setup = workload_config(workload, seed, rounds=0)
        for cfg in (self.full, self.setup):
            write_config(cfg, work / f"{cfg['name']}.cfg")
        self.attempted = 0
        self.failed = 0
        self.failures = {}          # check name -> first failure message
        self.outputs = {}           # config name -> (metrics.csv, report) bytes

    def invoke(self, cfg: dict):
        """One checked invocation; returns (wall, rss, total_bits) or None if it failed."""
        self.attempted += 1
        out = self.work / f"out{self.attempted}"
        log = self.work / f"log{self.attempted}.txt"
        wall, rss, code = spawn(verify_argv(self.work / f"{cfg['name']}.cfg", self.item, out), log)
        if code != 0:
            self.failed += 1
            print(f"invocation {cfg['name']} exited {code}:\n{log.read_text(errors='replace')}",
                  file=sys.stderr)
            return None
        bits = self.check(cfg, out / cfg["name"])
        shutil.rmtree(out)
        return wall, rss, bits

    def check(self, cfg: dict, run_dir: Path, same_as="repeatable_outputs") -> int:
        files = ("metrics.csv", f"report_{self.item.replace('.', '_')}.json")
        try:
            data = tuple((run_dir / f).read_bytes() for f in files)
            rows, report = checks.load(run_dir, self.item)
            results = checks.check_outputs(cfg, rows, report)
        except (OSError, ValueError, KeyError) as exc:
            data, rows = None, []
            results = {"outputs_readable": f"{run_dir}: {exc!r}"}
        # every invocation of one config must write the same bytes
        first = self.outputs.setdefault(cfg["name"], data)
        results[same_as] = "" if data == first else \
            f"{cfg['name']}: metrics.csv or report differs"
        for name, why in results.items():
            if not self.failures.get(name):
                self.failures[name] = why
        return checks.total_bits(rows)


def lower_quartile(samples) -> float:
    """Timing statistic of a run.  Other tenants of a shared host only add
    time, in bursts that can cover several invocations, so the lower
    quartile tracks the program's own cost more closely than the median."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[0]


def keep_going(round_start: float, t_end: float) -> bool:
    """Start another whole round only if it should end near ``t_end``."""
    now = time.perf_counter()
    return now + (now - round_start) / 2 < t_end


def timed(inv: Invoker, seconds: float) -> dict:
    walls, setups, rss, bits = [], [], [], []
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        s = inv.invoke(inv.setup)
        f = inv.invoke(inv.full)
        if s:
            setups.append(s[0])
        if f:
            walls.append(f[0])
            rss.append(f[1])
            bits.append(f[2])
        if not keep_going(t0, t_end):
            break
    if not (walls and setups):
        return {}
    wall_s, setup_s = lower_quartile(walls), lower_quartile(setups)
    cfg = inv.full
    steps = cfg["rounds"] * cfg["clients"] * len(cfg["seed_list"])
    print("full invocations, s:", " ".join(f"{w:.3f}" for w in walls))
    print("zero-round invocations, s:", " ".join(f"{w:.3f}" for w in setups))
    return {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "client_steps_per_s": (steps / (wall_s - setup_s), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "total_bits": (statistics.median(bits), "bits"),
    }


def import_seconds(work: Path, repeats: int = 3) -> float:
    """Median wall of a fresh interpreter that only imports fedproj.cli."""
    argv = [sys.executable, "-c", "import fedproj.cli"]
    return statistics.median(spawn(argv, work / "import.txt")[0] for _ in range(repeats))


def traced(inv: Invoker, seconds: float) -> dict:
    walls = []
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        f = inv.invoke(inv.full)
        if f:
            walls.append(f[0])
        if not keep_going(t0, t_end):
            break
    import_s = import_seconds(inv.work)

    os.environ.update(THREAD_ENV)       # before this process first imports numpy
    sys.path.insert(0, str(SRC))

    cfg = inv.full
    out = inv.work / "traced"
    argv = ["verify", str(inv.work / f"{cfg['name']}.cfg"), "--item", inv.item,
            "--out", str(out), "--jobs", "1"]
    tracer = Tracer()
    captured = io.StringIO()
    t0 = time.perf_counter()
    import fedproj.cli
    tracer.install()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = fedproj.cli.main(argv)
    finally:
        tracer.uninstall()
    traced_wall = time.perf_counter() - t0
    inv.attempted += 1
    if code != 0:
        inv.failed += 1
        print(f"traced invocation exited {code}:\n{captured.getvalue()}", file=sys.stderr)
        return {}
    inv.check(cfg, out / cfg["name"], same_as="traced_outputs_identical")

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.s"] = (tracer.busy[layer], "s")
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
    metrics["harness.run.self_s"] = (tracer.self_s["harness.run"], "s")
    uploads = tracer.calls["compressors.compress"]
    metrics["compressors.decode_per_upload"] = (
        tracer.calls["compressors.decode"] / uploads if uploads else 0.0, "ratio")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    # one traced sample against the typical untraced one, not the lower quartile
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s") \
        if walls else (0.0, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "fedproj" / "cli.py").is_file():
        print(f"error: no fedproj sources under {SRC}", file=sys.stderr)
        return 2
    # compile the package's bytecode once, outside every timed invocation
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "fedproj")],
                   check=True, env=child_env())

    work = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inv = Invoker(args.workload, args.seed, work)
        metrics = (traced if args.trace else timed)(inv, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()

    for name, why in sorted(inv.failures.items()):
        print(f"check {name}: {'FAIL: ' + why if why else 'ok'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"invocations attempted {inv.attempted}, failed {inv.failed}")
    correct = bool(metrics) and not any(inv.failures.values())
    print(json.dumps({
        "correct": correct,
        "attempted": inv.attempted,
        "failed": inv.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
