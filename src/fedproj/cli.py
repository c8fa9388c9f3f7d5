"""Command-line front end: run experiments, verify bounds, certify compressors.

Runs are described by a flat ``key = value`` config file (grammar below) so a
fifteen-parameter verifier run is archivable and byte-reproducible.  Outputs
land under ``$FEDPROJ_OUT`` (default ``./runs``) in a subdirectory named by
the config's ``name`` key (default: config file stem).

Config grammar
--------------
* one ``key = value`` pair per line; ``#`` starts a comment; blank lines ok
* unknown keys are rejected with the offending line number
* ``seeds`` accepts ``a:b`` (half-open range) or a comma list
* every omitted key takes its default; the effective values (defaults
  included) are echoed to ``effective_config.cfg`` next to the metrics

Exit codes: ``run`` 0 ok / 1 bad config / 2 divergence; ``verify`` 0 PASS /
3 FAIL / 4 SKIPPED / 1 error; ``certify`` and ``export`` 0 ok / 1 error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .accounting import CostModel, IndexBitsMode
from .algorithms import AlgorithmConfig, AlgorithmKind
from .compressors import (
    CompressorKind,
    CompressorSpec,
    compress,
    decode,
    estimate_beta,
    estimate_delta,
    k_eff,
)
from .harness import (
    VERIFY_ITEMS,
    ObjectiveConfig,
    RunConfig,
    VerifierError,
    build_objective,
    loosest_eta_cap,
    precheck,
    read_metrics_csv,
    run,
    verify,
    write_metrics_csv,
)
from .objectives import NoiseKind, NoiseModel, ObjectiveKind
from .vectors import StreamPurpose, stream_keys

__all__ = ["main", "parse_config_file", "ConfigError"]


class ConfigError(ValueError):
    pass


def _parse_seeds(text: str) -> Tuple[int, ...]:
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        return tuple(range(int(lo), int(hi)))
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# key -> (parser, default)
_SCHEMA: Dict[str, tuple] = {
    "name": (str, None),
    # objective
    "objective": (str, "quadratic"),
    "dim": (int, 2),
    "clients": (int, 2),
    "centers": (str, "axis_pair"),
    "separation": (float, 2.0),
    "center_scale": (float, 1.0),
    "data_seed": (int, 7),
    "samples_per_client": (int, 40),
    "ridge": (float, 0.1),
    "heterogeneity": (float, 0.5),
    "d_in": (int, 5),
    "hidden": (int, 4),
    # algorithm
    "algorithm": (str, "projfl"),
    "eta": (float, 0.1),
    "history_window": (int, 3),
    "zeta": (float, 0.75),
    "gamma": (float, 0.9),
    "diana_alpha": (float, 0.9),
    "diana_beta": (float, 0.1),
    "projection_layerwise": (_parse_bool, False),
    # compressor
    "compressor": (str, "identity"),
    "k_fraction": (float, 1.0),
    "s_levels": (int, 1),
    "layerwise": (_parse_bool, False),
    # noise
    "noise": (str, "gaussian_iso"),
    "sigma": (float, 0.0),
    # run
    "rounds": (int, 100),
    "seeds": (_parse_seeds, (0,)),
    "cadence": (int, 1),
    "divergence_threshold": (float, 1e12),
    # accounting
    "value_bits": (int, 32),
    "index_bits_mode": (str, "fixed32"),
    "scalar_bits": (int, 32),
    "header_bits": (int, 0),
}

_KEY_ORDER = list(_SCHEMA)


def parse_config_file(path) -> Dict:
    """Parse and validate a config file into a plain key->value dict."""
    values: Dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            parser, _ = _SCHEMA[key]
            try:
                values[key] = parser(val)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    for key, (_, default) in _SCHEMA.items():
        values.setdefault(key, default)
    if values["name"] is None:
        values["name"] = Path(path).stem
    return values


def build_run_config(values: Dict) -> RunConfig:
    try:
        ocfg = ObjectiveConfig(
            kind=ObjectiveKind(values["objective"]),
            d=values["dim"],
            clients=values["clients"],
            centers=values["centers"],
            separation=values["separation"],
            center_scale=values["center_scale"],
            data_seed=values["data_seed"],
            samples_per_client=values["samples_per_client"],
            ridge=values["ridge"],
            heterogeneity=values["heterogeneity"],
            d_in=values["d_in"],
            hidden=values["hidden"],
        )
        alg = AlgorithmConfig(
            kind=AlgorithmKind(values["algorithm"]),
            eta=values["eta"],
            compressor=CompressorSpec(
                kind=CompressorKind(values["compressor"]),
                k_fraction=values["k_fraction"],
                s_levels=values["s_levels"],
                layerwise=values["layerwise"],
            ),
            K=values["history_window"],
            zeta=values["zeta"],
            gamma=values["gamma"],
            diana_alpha=values["diana_alpha"],
            diana_beta=values["diana_beta"],
            projection_layerwise=values["projection_layerwise"],
        )
        return RunConfig(
            objective=ocfg,
            algorithm=alg,
            noise=NoiseModel(values["sigma"], NoiseKind(values["noise"])),
            rounds=values["rounds"],
            seeds=values["seeds"],
            cadence=values["cadence"],
            cost_model=CostModel(
                value_bits=values["value_bits"],
                index_bits_mode=IndexBitsMode(values["index_bits_mode"]),
                scalar_bits=values["scalar_bits"],
                header_bits=values["header_bits"],
            ),
            divergence_threshold=values["divergence_threshold"],
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _seeds_repr(seeds: Tuple[int, ...]) -> str:
    if len(seeds) > 1 and seeds == tuple(range(seeds[0], seeds[-1] + 1)):
        return f"{seeds[0]}:{seeds[-1] + 1}"
    return ",".join(str(s) for s in seeds)


def _effective_config_lines(values: Dict) -> List[str]:
    lines = []
    for key in _KEY_ORDER:
        val = values[key]
        if key == "seeds":
            val = _seeds_repr(val)
        elif isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{key} = {val}")
    return lines


def write_effective_config(path, values: Dict):
    Path(path).write_text("\n".join(_effective_config_lines(values)) + "\n")


def _written_by(values: Dict, metrics_csv) -> bool:
    """Whether the ``effective_config.cfg`` next to ``metrics_csv`` is what
    ``values`` would write, its ``name`` line aside."""
    saved = Path(metrics_csv).with_name("effective_config.cfg")
    # name is the first key
    return saved.is_file() and \
        saved.read_text().splitlines()[1:] == _effective_config_lines(values)[1:]


def _resolve_out_dir(values: Dict, out_flag: Optional[str]) -> Path:
    root = Path(out_flag or os.environ.get("FEDPROJ_OUT", "runs"))
    out = root / values["name"]
    out.mkdir(parents=True, exist_ok=True)
    return out


def _default_jobs(n_seeds: int) -> int:
    return max(1, min(n_seeds, os.cpu_count() or 1))


def _eta_cap_warning(config: RunConfig, obj) -> Optional[str]:
    """Warn when eta exceeds the cap of every verifier item that applies."""
    cap = loosest_eta_cap(obj, config)
    eta = config.algorithm.eta
    if cap is not None and eta > cap * (1 + 1e-12):
        return (f"warning: eta={eta} exceeds the loosest applicable "
                f"convergence-bound cap {cap:.6g}; running anyway")
    return None


def _summarize(results) -> dict:
    per_seed = []
    for res in results:
        last = res.rows[-1]
        per_seed.append({
            "seed": res.seed,
            "rounds_recorded": len(res.rows),
            "diverged_at": res.diverged_at,
            "final_loss": last.loss,
            "min_loss": min(m.loss for m in res.rows),
            "final_grad_norm_sq": last.grad_norm_sq,
            "cum_uplink_bits": last.cum_uplink_bits,
            "cum_downlink_bits": last.cum_downlink_bits,
            "cum_total_bits": last.cum_total_bits,
        })
    losses = [s["final_loss"] for s in per_seed]
    return {
        "seeds": len(per_seed),
        "mean_final_loss": float(np.mean(losses)),
        "per_seed": per_seed,
    }


def _load(config_path):
    """Values, run config and built objective of a config file (one build)."""
    values = parse_config_file(config_path)
    config = build_run_config(values)
    try:
        obj = build_objective(config.objective)
    except ValueError as exc:
        raise ConfigError(f"{config_path}: cannot build the objective: {exc}") from exc
    return values, config, obj


def cmd_run(args) -> int:
    try:
        values, config, obj = _load(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    warning = _eta_cap_warning(config, obj)
    if warning:
        print(warning, file=sys.stderr)
    out = _resolve_out_dir(values, args.out)
    jobs = args.jobs or _default_jobs(len(config.seeds))
    results = run(config, jobs, obj)
    write_metrics_csv(out / "metrics.csv", results)
    write_effective_config(out / "effective_config.cfg", values)
    summary = json.dumps(_summarize(results), indent=2, sort_keys=True)
    (out / "summary.json").write_text(summary + "\n")
    diverged = [r.seed for r in results if r.diverged_at is not None]
    if diverged:
        print(f"divergence: seeds {diverged} left the iterate guard (an entry not "
              f"finite or a norm above divergence_threshold)", file=sys.stderr)
        return 2
    print(f"wrote {out / 'metrics.csv'} ({len(results)} seeds x "
          f"{len(results[0].rows)} rows)")
    return 0


def cmd_verify(args) -> int:
    if args.item not in VERIFY_ITEMS:
        print(f"error: unknown item {args.item!r} (choose from {', '.join(VERIFY_ITEMS)})",
              file=sys.stderr)
        return 1
    try:
        values, config, obj = _load(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = _resolve_out_dir(values, args.out)
    try:
        # misuse and SKIPPED need only the config and the objective: no run
        report = precheck(args.item, obj, config)
        if report is None:
            if args.reuse:
                if not _written_by(values, args.reuse):
                    raise VerifierError(f"{args.reuse} was not written by this config (the "
                                        f"effective_config.cfg next to it is missing or "
                                        f"differs)")
                try:
                    results = read_metrics_csv(args.reuse)
                except (OSError, ValueError, IndexError) as exc:
                    raise VerifierError(f"cannot read {args.reuse}: {exc}") from exc
            else:
                jobs = args.jobs or _default_jobs(len(config.seeds))
                results = run(config, jobs, obj)
                write_metrics_csv(out / "metrics.csv", results)
                write_effective_config(out / "effective_config.cfg", values)
            report = verify(args.item, results, obj, config)
    except VerifierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report_path = out / f"report_{args.item.replace('.', '_')}.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"{args.item}: {report.status} ({report.reason})")
    if report.caveats:
        for caveat in report.caveats:
            print(f"  caveat: {caveat}")
    print(f"wrote {report_path}")
    return {"PASS": 0, "FAIL": 3, "SKIPPED": 4}[report.status]


def _certify_randk(spec: CompressorSpec, dim: int) -> List[str]:
    beta = estimate_beta(spec, dim)
    lines = [f"randk d={dim} k_eff={k_eff(spec.k_fraction, dim)}: beta = {beta:.12g}"]
    rng = np.random.default_rng(0)
    if dim <= 6:
        k = k_eff(spec.k_fraction, dim)
        worst_mean = worst_second = 0.0
        for _ in range(3):
            g = rng.standard_normal(dim)
            subsets = list(itertools.combinations(range(dim), k))
            mean = np.zeros(dim)
            second = 0.0
            for S in subsets:
                v = np.zeros(dim)
                v[list(S)] = (dim / k) * g[list(S)]
                mean += v / len(subsets)
                second += float(v @ v) / len(subsets)
            worst_mean = max(worst_mean, float(np.abs(mean - g).max()))
            worst_second = max(worst_second, abs(second - beta * float(g @ g)))
        lines.append(f"  exhaustive enumeration over all {len(subsets)} subsets: "
                     f"max |E[C(g)] - g| = {worst_mean:.3g}, "
                     f"|E||C(g)||^2 - beta*||g||^2| = {worst_second:.3g}")
    else:
        g = rng.standard_normal(dim)
        n = 10_000
        acc = np.zeros(dim)
        second = 0.0
        for r in range(n):
            v = decode(compress(spec, g[None, :],
                                stream_keys(0, 0, r, StreamPurpose.COMPRESSOR)))[0]
            acc += v / n
            second += float(v @ v) / n
        lines.append(f"  Monte-Carlo ({n} trials): max |mean - g| = "
                     f"{float(np.abs(acc - g).max()):.3g}, "
                     f"E||C(g)||^2 / (beta*||g||^2) = {second / (beta * float(g @ g)):.4f}")
    return lines


def _certify_topk(spec: CompressorSpec, dim: int) -> List[str]:
    delta = estimate_delta(spec, dim)
    k = k_eff(spec.k_fraction, dim)
    lines = [f"topk d={dim} k_eff={k}: delta = {delta:.12g}"]
    witness = np.ones((1, dim))
    err = (decode(compress(spec, witness)) - witness)[0]
    lines.append(f"  worst-case witness (all-equal magnitudes): ||C(g)-g||^2 = "
                 f"{float(err @ err):.12g} = (1-delta)*||g||^2 = {(1 - delta) * dim:.12g}")
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10_000):
        g = rng.standard_normal(dim)
        err = decode(compress(spec, g[None, :]))[0] - g
        worst = max(worst, float(err @ err) / float(g @ g))
    lines.append(f"  10000 random vectors: max ||C(g)-g||^2/||g||^2 = {worst:.6f} "
                 f"<= 1-delta = {1 - delta:.6f}")
    return lines


def _certify_qsgd(spec: CompressorSpec, dim: int) -> List[str]:
    beta = estimate_beta(spec, dim)
    s = spec.s_levels
    lines = [f"qsgd d={dim} s={s}: beta bound = 1 + min(d/s^2, sqrt(d)/s) = {beta:.12g}"]
    rng = np.random.default_rng(2)
    if dim <= 3 and s <= 2:
        worst = 0.0
        for _ in range(3):
            g = rng.standard_normal(dim)
            norm = float(np.linalg.norm(g))
            mean = np.zeros(dim)
            for picks in itertools.product([0, 1], repeat=dim):
                p = 1.0
                v = np.zeros(dim)
                for j, up in enumerate(picks):
                    scaled = abs(g[j]) * s / norm
                    low = min(math.floor(scaled), s - 1)
                    p_low = 1.0 + low - scaled
                    p *= (1.0 - p_low) if up else p_low
                    v[j] = norm * np.sign(g[j]) * (low + up) / s
                mean += p * v
            worst = max(worst, float(np.abs(mean - g).max()))
        lines.append(f"  exact outcome enumeration: max |E[C(g)] - g| = {worst:.3g}")
    g = rng.standard_normal(dim)
    n = 10_000
    second = 0.0
    for r in range(n):
        v = decode(compress(spec, g[None, :],
                            stream_keys(0, 0, r, StreamPurpose.COMPRESSOR)))[0]
        second += float(v @ v) / n
    lines.append(f"  Monte-Carlo ({n} trials): E||C(g)||^2 / (beta*||g||^2) = "
                 f"{second / (beta * float(g @ g)):.4f} (<= 1 expected)")
    return lines


def cmd_certify(args) -> int:
    try:
        spec = CompressorSpec(kind=CompressorKind(args.kind),
                              k_fraction=args.k_fraction,
                              s_levels=args.s_levels,
                              layerwise=args.layerwise)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if spec.kind is CompressorKind.IDENTITY:
        lines = ["identity: beta = 1, delta = 1 (exact, no compression error)"]
    elif spec.kind is CompressorKind.RANDK:
        lines = _certify_randk(spec, args.dim)
        lines.append(f"  implied delta (scaled operator) = {estimate_delta(spec, args.dim):.12g}")
    elif spec.kind is CompressorKind.TOPK:
        lines = _certify_topk(spec, args.dim)
    else:
        lines = _certify_qsgd(spec, args.dim)
    print("\n".join(lines))
    return 0


def cmd_export(args) -> int:
    metrics = Path(args.run_dir) / "metrics.csv"
    if not metrics.exists():
        print(f"error: {metrics} not found", file=sys.stderr)
        return 1
    results = read_metrics_csv(metrics)
    summary = _summarize(results)
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _add_config_arg(sub):
    sub.add_argument("config", help="path to a run config file")
    sub.add_argument("--out", default=None,
                     help="output root (default: $FEDPROJ_OUT or ./runs)")
    sub.add_argument("--jobs", type=int, default=None,
                     help="parallel seed workers (default: seeds capped at cores)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedproj",
        description="communication-compressed federated optimization simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run config and write metrics")
    _add_config_arg(p_run)

    p_verify = sub.add_parser("verify", help="run and check a convergence bound")
    _add_config_arg(p_verify)
    p_verify.add_argument("--item", required=True,
                          help=f"bound to check: {', '.join(VERIFY_ITEMS)}")
    p_verify.add_argument("--reuse", default=None,
                          help="verify a metrics.csv that this config wrote earlier "
                               "(the effective_config.cfg next to it must match, name "
                               "aside) instead of rerunning")

    p_cert = sub.add_parser("certify", help="print compressor certificates with evidence")
    p_cert.add_argument("--kind", required=True,
                        choices=[k.value for k in CompressorKind])
    p_cert.add_argument("--dim", type=int, required=True)
    p_cert.add_argument("--k-fraction", type=float, default=1.0, dest="k_fraction")
    p_cert.add_argument("--s-levels", type=int, default=1, dest="s_levels")
    p_cert.add_argument("--layerwise", action="store_true")

    p_export = sub.add_parser("export", help="summarize a run directory as JSON")
    p_export.add_argument("run_dir")
    p_export.add_argument("--output", default=None, help="write JSON here instead of stdout")

    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "verify": cmd_verify,
               "certify": cmd_certify, "export": cmd_export}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
