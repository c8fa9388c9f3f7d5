"""Output checks for one `fedproj verify` invocation.

Every check is either a computation made apart from the program (the bit
formulas, the closed-form quadratic identities, ln 2 at w0 = 0) or a property
the method must have (the verifier's PASS, one row per seed and round).  The
checks read `metrics.csv` and the report JSON with the standard library only,
so they share no code with `fedproj`.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, List

# Observed rounding error of the quadratic identities is below 1e-15 of the
# loss; the tolerance leaves three orders of headroom and still rejects a
# change of one part in 1e6 of dist_to_opt_sq (dist >= 1e-2 * loss here).
QUAD_REL_TOL = 1e-12
LN2_ABS_TOL = 1e-12


def k_eff(k_fraction: float, dim: int) -> int:
    return max(1, int(k_fraction * dim + 0.5))


def expected_uplink_bits(cfg: Dict) -> int:
    """Bits all clients upload in one round, from the config alone.

    Default cost model: 32-bit values, 32-bit indices, one 32-bit projection
    coefficient per projecting upload.
    """
    d, m = cfg["dim"], cfg["clients"]
    if cfg["compressor"] in ("topk", "randk"):
        per_client = k_eff(cfg["k_fraction"], d) * 64 + 32
    elif cfg["compressor"] == "qsgd":
        level_bits = cfg["s_levels"].bit_length()   # ceil(log2(s + 1))
        per_client = 32 + d + d * level_bits + 32
    else:
        raise ValueError(f"no bit formula for compressor {cfg['compressor']!r}")
    return m * per_client


def check_outputs(cfg: Dict, rows: List[Dict[str, str]], report: Dict) -> Dict[str, str]:
    """Run every check; returns {check name: "" if it passed, else why not}."""
    results = {}

    results["report_pass"] = "" if report.get("status") == "PASS" else \
        f"verifier status {report.get('status')!r}: {report.get('reason')!r}"

    seeds = sorted({int(r["seed"]) for r in rows})
    want_seeds = cfg["seed_list"]
    per_seed = {s: [int(r["round"]) for r in rows if int(r["seed"]) == s] for s in seeds}
    horizon = list(range(cfg["rounds"] + 1))
    bad = [s for s in seeds if per_seed[s] != horizon]
    if seeds != want_seeds:
        results["rows"] = f"seeds {seeds} != {want_seeds}"
    elif bad or len(rows) != len(want_seeds) * len(horizon):
        results["rows"] = f"seeds {bad} do not record rounds 0..{cfg['rounds']} once each"
    else:
        results["rows"] = ""

    up = expected_uplink_bits(cfg)
    wrong = [(r["seed"], r["round"]) for r in rows
             if int(r["uplink_bits"]) != (0 if r["round"] == "0" else up)]
    results["uplink_bits"] = "" if not wrong else \
        f"uplink_bits != {up} at (seed, round) {wrong[:5]}"

    broken = []
    for s in seeds:
        cum_up = cum_down = 0
        for r in (r for r in rows if int(r["seed"]) == s):
            cum_up += int(r["uplink_bits"])
            cum_down += int(r["downlink_bits"])
            if (int(r["cum_uplink_bits"]), int(r["cum_downlink_bits"]),
                    int(r["cum_total_bits"])) != (cum_up, cum_down, cum_up + cum_down):
                broken.append((r["seed"], r["round"]))
    results["cumulative_bits"] = "" if not broken else \
        f"cumulative bits are not running sums at (seed, round) {broken[:5]}"

    if cfg["objective"] == "quadratic":
        off = []
        for r in rows:
            loss, dist = float(r["loss"]), float(r["dist_to_opt_sq"])
            tol = QUAD_REL_TOL * loss
            if abs(float(r["loss_gap"]) - dist / 2) > tol or \
                    abs(float(r["grad_norm_sq"]) - dist) > tol:
                off.append((r["seed"], r["round"]))
        results["quadratic_identities"] = "" if not off else \
            f"loss_gap != dist/2 or grad_norm_sq != dist at (seed, round) {off[:5]}"
    elif cfg["objective"] == "logistic":
        off = [r["seed"] for r in rows if r["round"] == "0"
               and abs(float(r["loss"]) - math.log(2)) > LN2_ABS_TOL]
        results["logistic_loss_at_zero"] = "" if not off else \
            f"row-0 loss != ln 2 for seeds {off}"
    return results


def total_bits(rows: List[Dict[str, str]]) -> int:
    """cum_total_bits at the horizon, summed over seeds."""
    last = {}
    for r in rows:
        last[r["seed"]] = int(r["cum_total_bits"])
    return sum(last.values())


def load(out_dir: Path, item: str):
    """(metrics rows, report dict) written by one invocation into ``out_dir``."""
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    report = json.loads((out_dir / f"report_{item.replace('.', '_')}.json").read_text())
    return rows, report
