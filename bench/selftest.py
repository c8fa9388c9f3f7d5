#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and of `--jobs` parity.

    python3 bench/selftest.py

For each workload, on a 3-round horizon: the genuine outputs of one
`fedproj verify` invocation must pass every check, and each tampered copy of
its metrics.csv or report must fail the check it targets.  Then one config is
run with `--jobs 1` and `--jobs 2`, whose metrics.csv and report must be
byte-identical: seeds are independent, so parallelism may not change a number.
Exits 0 when every case holds, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import sys
from pathlib import Path

import checks
import run

ROUNDS = 3


def rewrite(src: Path, dst: Path, item: str, tamper):
    """Copy one run directory, letting ``tamper(rows, report)`` edit it."""
    shutil.copytree(src, dst)
    rows, report = checks.load(dst, item)
    tamper(rows, report)
    with open(dst / "metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    (dst / f"report_{item.replace('.', '_')}.json").write_text(json.dumps(report))


def _set(row, key, value):
    row[key] = repr(value) if isinstance(value, float) else str(value)


TAMPERS = {
    "report_pass": lambda rows, rep: rep.update(status="FAIL"),
    "rows": lambda rows, rep: rows.pop(),
    "uplink_bits": lambda rows, rep: _set(rows[1], "uplink_bits", int(rows[1]["uplink_bits"]) + 64),
    "cumulative_bits": lambda rows, rep: _set(rows[-1], "cum_total_bits",
                                              int(rows[-1]["cum_total_bits"]) + 1),
    "quadratic_identities": lambda rows, rep: _set(
        rows[2], "dist_to_opt_sq", float(rows[2]["dist_to_opt_sq"]) * (1 + 1e-6)),
    "logistic_loss_at_zero": lambda rows, rep: _set(rows[0], "loss", math.log(2) + 1e-9),
}


def invoke(cfg: dict, item: str, work: Path, tag: str, jobs: int = 1) -> Path:
    cfg_path = work / f"{cfg['name']}.cfg"
    run.write_config(cfg, cfg_path)
    out = work / tag
    _, _, code = run.spawn(run.verify_argv(cfg_path, item, out, jobs), work / f"{tag}.log")
    if code != 0:
        raise SystemExit(f"{tag}: fedproj verify exited {code}:\n"
                         + (work / f"{tag}.log").read_text())
    return out / cfg["name"]


def main() -> int:
    work = run.OUT_ROOT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    failures = []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    try:
        for name, wl in run.WORKLOADS.items():
            item = wl["item"]
            cfg = run.workload_config(name, seed=0, rounds=ROUNDS)
            genuine = invoke(cfg, item, work, name)
            results = checks.check_outputs(cfg, *checks.load(genuine, item))
            expect(not any(results.values()), f"{name}: genuine outputs pass {sorted(results)}")
            for check, tamper in TAMPERS.items():
                if check not in results:
                    continue
                bad = work / f"{name}-{check}"
                rewrite(genuine, bad, item, tamper)
                why = checks.check_outputs(cfg, *checks.load(bad, item))[check]
                expect(bool(why), f"{name}: tampered {check} is rejected ({why})")

            inv = run.Invoker(name, 0, work)
            inv.check(cfg, genuine)
            inv.check(cfg, work / f"{name}-uplink_bits")
            expect(bool(inv.failures["repeatable_outputs"]),
                   f"{name}: differing outputs of one config are rejected")

        name = "randk-many-clients"
        item = run.WORKLOADS[name]["item"]
        cfg = run.workload_config(name, seed=0, rounds=ROUNDS)
        one = invoke(cfg, item, work, "jobs1", jobs=1)
        two = invoke(cfg, item, work, "jobs2", jobs=2)
        same = all((one / f).read_bytes() == (two / f).read_bytes()
                   for f in ("metrics.csv", f"report_{item.replace('.', '_')}.json"))
        expect(same, f"{name}: --jobs 2 writes the same metrics.csv and report as --jobs 1")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.OUT_ROOT.rmdir()
        except OSError:
            pass

    print(f"{len(failures)} of the cases failed" if failures else "all cases hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
