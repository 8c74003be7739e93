"""Command-line entry point: dataset generation, training runs, ablation
sweeps, gradient verification, and report aggregation.

Exit codes: 0 success, 1 usage or configuration error, 2 check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .checks import run_loss_checks
from .datasets import GENERATORS, DataSpec, make_domain_dataset, save_dataset
from .evaluation import (ablation_report, load_metrics, save_ablation,
                         save_metrics)
from .exceptions import ConfigError, ContractError, RenlabError
from .networks import save_paramsets
from .trainer import (VARIANTS, RunResult, TrainConfig, Trainer, ablation_accuracies,
                      check_seed, config_choices, load_config, parse_config_value,
                      run_ablation)

TOOL_VERSION = "renlab 0.1.0"


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this tool reserves 2 for
    check failures, so remap usage problems to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


_FLAG_TYPES = {"str": str, "int": int, "float": float}


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    """One flag per DataSpec field, spelled like the field with dashes;
    trans takes one flag per axis."""
    for f in fields(DataSpec):
        if f.name == "trans":
            for axis, default in zip("xy", f.default):
                p.add_argument(f"--trans-{axis}", type=float, default=default)
            continue
        p.add_argument("--" + f.name.replace("_", "-"), type=_FLAG_TYPES[f.type.split()[0]],
                       default=f.default, choices=GENERATORS if f.name == "gen" else None,
                       help=f.metadata.get("help"))


def _spec_from_args(args) -> DataSpec:
    return DataSpec(**{f.name: (args.trans_x, args.trans_y) if f.name == "trans"
                       else getattr(args, f.name) for f in fields(DataSpec)})


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field, spelled like the field with dashes;
    values are parsed exactly as config-file values are."""
    p.add_argument("--config", type=str, default=None, help="key = value config file")
    for f in fields(TrainConfig):
        flag = "--steps" if f.name == "total_steps" else "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, choices=config_choices(f.name),
                       help=f"config key {f.name} (default {f.default})")


def _config_from_args(args) -> TrainConfig:
    overrides = {f.name: parse_config_value(f.name, getattr(args, f.name))
                 for f in fields(TrainConfig) if getattr(args, f.name) is not None}
    return load_config(args.config, **overrides)


def _run_dir_name(cfg: TrainConfig, data: dict) -> str:
    payload = json.dumps({"config": cfg.to_dict(), "data": data}, sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
    return f"{digest}-s{cfg.seed}"


def _write_run(result: RunResult, spec: DataSpec, out_root: Path) -> Path:
    """Write a finished run's manifest, metrics and checkpoint."""
    cfg, data = result.cfg, asdict(spec)
    run_dir = out_root / _run_dir_name(cfg, data)
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"tool": TOOL_VERSION, "config": cfg.to_dict(), "seeds": [cfg.seed],
                "data": data, "outputs": {"metrics": "metrics.csv", "checkpoint": "checkpoint.txt"}}
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_metrics(result.records, run_dir / "metrics.csv")
    named = {"student_F": result.student_F, "student_C": result.student_C}
    if result.dualnet is not None:
        named["teacher_F"] = result.dualnet.teacher_F
        named["teacher_C"] = result.dualnet.teacher_C
    if result.disc is not None:
        named["disc"] = result.disc
    save_paramsets(run_dir / "checkpoint.txt", named)
    return run_dir


def cmd_datagen(args) -> int:
    dataset = make_domain_dataset(_spec_from_args(args), check_seed(args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out / "dataset.csv", out / "dataset.meta")
    print(f"wrote {out / 'dataset.csv'} and {out / 'dataset.meta'}")
    return 0


def cmd_train(args) -> int:
    cfg, spec = _config_from_args(args), _spec_from_args(args)
    result = Trainer(cfg, make_domain_dataset(spec, cfg.seed)).run()
    run_dir = _write_run(result, spec, Path(args.out))
    final = result.records[-1]
    print(f"run {run_dir}")
    print(f"final step {final.step}: target acc student={final.acc_student_target:.4f} "
          f"teacher={final.acc_teacher_target:.4f}")
    return 0


def cmd_ablate(args) -> int:
    cfg, spec = _config_from_args(args), _spec_from_args(args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    seeds = [check_seed(parse_config_value("seed", s))
             for s in args.seeds.split(",") if s.strip()]
    if not variants or not seeds:
        raise ConfigError("ablate needs at least one variant and one seed")
    datasets = {seed: make_domain_dataset(spec, seed) for seed in seeds}
    runs = run_ablation(cfg, variants, seeds, datasets.__getitem__)
    out_root = Path(args.out)
    for result in runs.values():
        _write_run(result, spec, out_root)
    results = ablation_accuracies(runs)
    report = ablation_report(results)
    save_ablation(report, out_root / "ablation.json")
    for variant in results:
        entry = report["variants"][variant]
        print(f"{variant}: mean={entry['mean']:.4f} std={entry['std']:.4f} "
              f"n={entry['n_seeds']}")
    print(f"ordering satisfied: {report['ordering']['satisfied']}")
    return 0


def cmd_gradcheck(args) -> int:
    reports = run_loss_checks(check_seed(args.seed), h=args.h, tol=args.tol,
                              batch=args.batch, in_dim=args.in_dim, hidden=args.hidden,
                              feature_dim=args.feature_dim, n_classes=args.classes)
    all_ok = True
    for name, rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{name}: max_rel_error={rep.max_rel_error:.3e} "
              f"worst={rep.worst_param}[{rep.worst_index[0]},{rep.worst_index[1]}] "
              f"{status}")
        all_ok = all_ok and rep.passed
    return 0 if all_ok else 2


def cmd_report(args) -> int:
    root = Path(args.runs)
    results: dict[str, dict[int, float]] = {}
    run_dirs: dict[tuple[str, int], Path] = {}
    for manifest_path in sorted(root.glob("*/manifest.json")):
        try:
            with open(manifest_path) as fh:
                config = json.load(fh)["config"]
            variant, seed = config["variant"], int(config["seed"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ContractError(f"malformed manifest {manifest_path}: {exc!r}") from None
        if variant not in VARIANTS:
            raise ContractError(f"unknown variant {variant!r} in {manifest_path}")
        run_dir = run_dirs.setdefault((variant, seed), manifest_path.parent)
        if run_dir != manifest_path.parent:
            raise ContractError(f"run directories {run_dir} and {manifest_path.parent} "
                                f"both hold variant {variant} seed {seed}")
        records = load_metrics(manifest_path.parent / "metrics.csv")
        results.setdefault(variant, {})[seed] = records[-1].acc_teacher_target
    if not results:
        raise ConfigError(f"no run directories with manifests under {root}")
    report = ablation_report(results)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.json:
        save_ablation(report, args.json)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="renlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("datagen", help="write a benchmark dataset to CSV")
    _add_data_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=".")
    p.set_defaults(fn=cmd_datagen)

    p = sub.add_parser("train", help="train one variant on a generated benchmark")
    _add_config_flags(p)
    _add_data_flags(p)
    p.add_argument("--out", type=str, default="runs")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ablate", help="run a variant x seed sweep and summarize")
    _add_config_flags(p)
    _add_data_flags(p)
    p.add_argument("--variants", type=str, default="cdan,cdan_m,cdan_m_d,ren")
    p.add_argument("--seeds", type=str, default="0,1,2,3,4")
    p.add_argument("--out", type=str, default="runs")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify loss gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--in-dim", type=int, default=5)
    p.add_argument("--hidden", type=int, default=6)
    p.add_argument("--feature-dim", type=int, default=4)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("report", help="re-aggregate run directories into a summary")
    p.add_argument("--runs", type=str, required=True)
    p.add_argument("--json", type=str, default=None, help="also write the summary here")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RenlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
