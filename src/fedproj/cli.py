"""Command-line front end: run experiments, verify bounds, certify compressors.

Runs are described by a flat ``key = value`` config file (grammar below) so a
fifteen-parameter verifier run is archivable and byte-reproducible.  Outputs
land under ``$FEDPROJ_OUT`` (default ``./runs``) in a subdirectory named by
the config's ``name`` key (default: config file stem).

Config grammar
--------------
* UTF-8; one ``key = value`` pair per line; ``#`` comments; blank lines ok
* unknown keys are rejected with the offending line number
* every key but ``name`` sets one dataclass field (``_FIELDS``); its default
  is that field's default, and its value parses as the default's type
* ``seeds`` accepts ``a:b`` (half-open range) or a comma list
* every omitted key takes its default; the effective values (defaults
  included) are echoed to ``effective_config.cfg`` next to the metrics

Exit codes: ``run`` 0 ok / 2 divergence; ``verify`` 0 PASS / 3 FAIL /
4 SKIPPED; ``certify`` and ``export`` 0 ok.  Every command exits 1 on every
input it refuses, with one ``error: ...`` line and no traceback: a config
that is unreadable, not UTF-8 or invalid; an output path that cannot be
written; a ``verify`` item that is unknown or misused; an ``export`` or
``verify --reuse`` metrics CSV that is missing or unreadable; an ``export``
run directory with no ``effective_config.cfg``; a ``layerwise``
or ``projection_layerwise`` flag on an objective with no layers, where it
would do nothing; a ``certify`` ``--dim`` below 1 or an invalid compressor;
a client count, seed or bit cost too large for an int64.  Argparse usage
errors exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .accounting import CostModel
from .algorithms import AlgorithmConfig, AlgorithmKind
from .compressors import (
    CompressorKind,
    CompressorSpec,
    beta_certified,
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
    build_objective,
    loosest_eta_cap,
    precheck,
    read_metrics_csv,
    run,
    verify,
    write_metrics_csv,
)
from .objectives import NoiseModel
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


def _same(cls, *keys) -> Dict[str, tuple]:
    return {key: (cls, key) for key in keys}


# config key -> (dataclass, field), in effective_config.cfg order after
# ``name``, the one key that belongs to the CLI alone
_FIELDS: Dict[str, tuple] = {
    "objective": (ObjectiveConfig, "kind"),
    "dim": (ObjectiveConfig, "d"),
    **_same(ObjectiveConfig, "clients", "centers", "separation", "center_scale",
            "data_seed", "samples_per_client", "ridge", "heterogeneity", "d_in", "hidden"),
    "algorithm": (AlgorithmConfig, "kind"),
    "eta": (AlgorithmConfig, "eta"),
    "history_window": (AlgorithmConfig, "K"),
    **_same(AlgorithmConfig, "zeta", "gamma", "diana_alpha", "diana_beta",
            "projection_layerwise"),
    "compressor": (CompressorSpec, "kind"),
    **_same(CompressorSpec, "k_fraction", "s_levels", "layerwise"),
    "sigma": (NoiseModel, "sigma"),
    **_same(RunConfig, "rounds", "seeds", "cadence", "divergence_threshold"),
    **_same(CostModel, "value_bits", "index_bits_mode", "scalar_bits", "header_bits"),
}

_KEY_ORDER = ["name", *_FIELDS]


def _default(key: str):
    """The key's dataclass field default, an enum in its config-file form."""
    cls, name = _FIELDS[key]
    value = next(f.default for f in dataclasses.fields(cls) if f.name == name)
    return value.value if isinstance(value, Enum) else value


def parse_config_file(path) -> Dict:
    """Parse and validate a config file into a plain key->value dict."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    values: Dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEY_ORDER:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        kind = str if key == "name" else type(_default(key))
        parser = {bool: _parse_bool, tuple: _parse_seeds}.get(kind, kind)
        try:
            values[key] = parser(val)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    values.setdefault("name", Path(path).stem)
    for key in _FIELDS:
        values.setdefault(key, _default(key))
    return values


def build_run_config(values: Dict) -> RunConfig:
    """The run's dataclasses, built in a fixed order: objective, compressor,
    algorithm, noise, cost model, run.  The first fault met is the one
    reported."""
    fields: Dict[type, Dict] = {cls: {} for cls, _ in _FIELDS.values()}
    for key, (cls, name) in _FIELDS.items():
        fields[cls][name] = values[key]
    try:
        objective = ObjectiveConfig(**fields[ObjectiveConfig])
        algorithm = AlgorithmConfig(compressor=CompressorSpec(**fields[CompressorSpec]),
                                    **fields[AlgorithmConfig])
        return RunConfig(objective, algorithm, noise=NoiseModel(**fields[NoiseModel]),
                         cost_model=CostModel(**fields[CostModel]), **fields[RunConfig])
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


def _written_by(values: Dict, metrics_csv) -> bool:
    """Whether the ``effective_config.cfg`` next to ``metrics_csv`` is what
    ``values`` would write, its ``name`` line aside."""
    saved = Path(metrics_csv).with_name("effective_config.cfg")
    # name is the first key; bytes that are not UTF-8 cannot match
    return saved.is_file() and _effective_config_lines(values)[1:] == \
        saved.read_text(errors="replace").splitlines()[1:]


def _resolve_out_dir(values: Dict, out_flag: Optional[str]) -> Path:
    root = Path(out_flag or os.environ.get("FEDPROJ_OUT", "runs"))
    out = root / values["name"]
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_and_save(jobs: Optional[int], values: Dict, config: RunConfig, obj, out: Path):
    """Run every seed (``--jobs`` workers, default: seeds capped at cores) and
    write ``metrics.csv`` and ``effective_config.cfg``."""
    jobs = jobs or max(1, min(len(config.seeds), os.cpu_count() or 1))
    results = run(config, obj, jobs)
    write_metrics_csv(out / "metrics.csv", results)
    lines = _effective_config_lines(values)
    (out / "effective_config.cfg").write_text("\n".join(lines) + "\n")
    return results


def _warnings(config: RunConfig, obj) -> List[str]:
    """Warn when eta exceeds the cap of every verifier item that applies, and
    when a diana memory step exceeds 1/beta = 1/(omega+1), the largest step
    the diana theory admits (Mishchenko et al., 2019)."""
    alg = config.algorithm
    warnings = []
    cap = loosest_eta_cap(obj, config)
    if cap is not None and alg.eta > cap * (1 + 1e-12):
        warnings.append(f"warning: eta={alg.eta} exceeds the loosest applicable "
                        f"convergence-bound cap {cap:.6g}; running anyway")
    if alg.kind in (AlgorithmKind.DIANA, AlgorithmKind.DIANA_GAMMA) \
            and beta_certified(alg.compressor):
        alpha_max = 1.0 / estimate_beta(alg.compressor, obj.d, obj.layer_partition)
        if alg.diana_alpha > alpha_max * (1 + 1e-12):
            warnings.append(f"warning: diana_alpha={alg.diana_alpha} exceeds 1/beta = "
                            f"{alpha_max:.6g}, the largest memory step the diana theory "
                            f"admits; running anyway")
    return warnings


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
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{config_path}: cannot build the objective: {exc}") from exc
    if obj.layer_partition is None:
        for key in ("projection_layerwise", "layerwise"):
            if values[key]:
                raise ConfigError(f"{config_path}: {key} = true needs an objective with "
                                  f"layers (tiny_mlp); {obj.kind.value} has none")
    return values, config, obj


def _read_metrics(path):
    """Seed results of a metrics CSV; a fault names the path."""
    try:
        return read_metrics_csv(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def cmd_run(args) -> int:
    values, config, obj = _load(args.config)
    for warning in _warnings(config, obj):
        print(warning, file=sys.stderr)
    out = _resolve_out_dir(values, args.out)
    results = _run_and_save(args.jobs, values, config, obj, out)
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
        raise ValueError(f"unknown item {args.item!r} (choose from {', '.join(VERIFY_ITEMS)})")
    values, config, obj = _load(args.config)
    # misuse and SKIPPED need only the config and the objective: no run
    report = precheck(args.item, obj, config)
    if report is None:
        if args.reuse:
            if not _written_by(values, args.reuse):
                raise ValueError(f"{args.reuse} was not written by this config (the "
                                 f"effective_config.cfg next to it is missing or differs)")
            results = _read_metrics(args.reuse)
        else:
            results = _run_and_save(args.jobs, values, config, obj,
                                    _resolve_out_dir(values, args.out))
        report = verify(args.item, results, obj, config)
    # only now is there a report to write: a refused invocation makes no directory
    out = _resolve_out_dir(values, args.out)
    report_path = out / f"report_{args.item.replace('.', '_')}.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"{args.item}: {report.status} ({report.reason})")
    if report.caveats:
        for caveat in report.caveats:
            print(f"  caveat: {caveat}")
    print(f"wrote {report_path}")
    return {"PASS": 0, "FAIL": 3, "SKIPPED": 4}[report.status]


_TRIALS = 10_000


def _trial_rows(dim: int):
    """The Monte-Carlo trial indices in blocks of about 2**20 floats of rows."""
    step = max(1, 2**20 // dim)
    return (np.arange(lo, min(lo + step, _TRIALS)) for lo in range(0, _TRIALS, step))


def _compressed_trials(spec: CompressorSpec, g: np.ndarray):
    """Blocks of decoded rows C(g); trial ``r`` draws from stream key (0, 0, r)."""
    for rows in _trial_rows(g.size):
        yield decode(compress(spec, np.broadcast_to(g, (rows.size, g.size)),
                              stream_keys(0, 0, rows, StreamPurpose.COMPRESSOR)))


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
        n = _TRIALS
        acc = np.zeros(dim)
        second = 0.0
        for V in _compressed_trials(spec, g):
            # running sums in trial order: acc row first, then the block's rows
            acc = np.vstack([acc, V / n]).sum(axis=0)
            second = sum((float(v @ v) / n for v in V), second)
        lines.append(f"  Monte-Carlo ({n} trials): max |mean - g| = "
                     f"{float(np.abs(acc - g).max()):.3g}, "
                     f"E||C(g)||^2 / (beta*||g||^2) = {second / (beta * float(g @ g)):.4f}")
    lines.append(f"  implied delta (scaled operator) = {estimate_delta(spec, dim):.12g}")
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
    for rows in _trial_rows(dim):
        G = rng.standard_normal((rows.size, dim))
        E = decode(compress(spec, G)) - G
        worst = max([worst, *(float(e @ e) / float(g @ g) for e, g in zip(E, G))])
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
    n = _TRIALS
    second = 0.0
    for V in _compressed_trials(spec, g):
        second = sum((float(v @ v) / n for v in V), second)
    lines.append(f"  Monte-Carlo ({n} trials): E||C(g)||^2 / (beta*||g||^2) = "
                 f"{second / (beta * float(g @ g)):.4f} (<= 1 expected)")
    return lines


def cmd_certify(args) -> int:
    if args.dim < 1:
        raise ValueError(f"dim must be >= 1, got {args.dim}")
    spec = CompressorSpec(kind=args.kind, k_fraction=args.k_fraction,
                          s_levels=args.s_levels)
    if spec.kind is CompressorKind.IDENTITY:
        lines = ["identity: beta = 1, delta = 1 (exact, no compression error)"]
    elif spec.kind is CompressorKind.RANDK:
        lines = _certify_randk(spec, args.dim)
    elif spec.kind is CompressorKind.TOPK:
        lines = _certify_topk(spec, args.dim)
    else:
        lines = _certify_qsgd(spec, args.dim)
    print("\n".join(lines))
    return 0


def cmd_export(args) -> int:
    metrics = Path(args.run_dir) / "metrics.csv"
    results = _read_metrics(metrics)
    saved = metrics.with_name("effective_config.cfg")
    if not saved.is_file():
        raise ValueError(f"cannot export {args.run_dir}: no effective_config.cfg next to "
                         f"its metrics.csv gives the run's rounds")
    rounds = parse_config_file(saved)["rounds"]
    # a CSV cannot record diverged_at, but run_seed records the row a seed
    # stops at: a seed that stopped before ``rounds`` diverged there
    for res in results:
        if res.rows[-1].round < rounds:
            res.diverged_at = res.rows[-1].round
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
    p_cert.add_argument("--k-fraction", type=float, default=_default("k_fraction"),
                        dest="k_fraction")
    p_cert.add_argument("--s-levels", type=int, default=_default("s_levels"),
                        dest="s_levels")

    p_export = sub.add_parser("export", help="summarize a run directory as JSON")
    p_export.add_argument("run_dir")
    p_export.add_argument("--output", default=None, help="write JSON here instead of stdout")

    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "verify": cmd_verify,
               "certify": cmd_certify, "export": cmd_export}[args.command]
    try:
        return handler(args)
    except (OSError, ValueError, OverflowError) as exc:
        # ConfigError, VerifierError and UnicodeDecodeError are ValueErrors;
        # an OverflowError is a count too large for an int64, e.g. value_bits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
