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
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .checks import run_loss_checks
from .datasets import DataSpec, make_domain_dataset, release_free_heap, save_dataset
from .evaluation import (ABLATION_CHAIN, ablation_report, load_metrics,
                         save_ablation, save_metrics)
from .exceptions import ConfigError, ContractError, RenlabError
from .networks import save_paramsets
from .recipe import ON_OFF, parse_field, parse_text
from .trainer import (RunResult, TrainConfig, Trainer, _one_blas_thread, ablation_accuracies,
                      eval_steps, load_config, parse_config_value, read_config, run_ablation)

TOOL_VERSION = f"renlab {__version__}"


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this tool reserves 2 for
    check failures, so remap usage problems to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_recipe_flags(p: argparse.ArgumentParser, *recipes) -> None:
    """One flag per field of each recipe, spelled like the field with dashes,
    except --steps for total_steps.  A flag's value stays text until
    _recipe_from_args parses it."""
    for recipe in recipes:
        if recipe is TrainConfig:
            p.add_argument("--config", type=str, default=None, help="key = value config file")
        for f in fields(recipe):
            flag = "--steps" if f.name == "total_steps" else "--" + f.name.replace("_", "-")
            choices = {"bool": ON_OFF, "str": f.metadata.get("choices")}.get(f.type)
            help_text = (f"config key {f.name} (default {f.default})" if recipe is TrainConfig
                         else f.metadata.get("help"))
            p.add_argument(flag, dest=f.name, choices=choices, help=help_text)


def _recipe_from_args(recipe, args):
    """The recipe under the flags given, each parsed as a config-file value
    is; a TrainConfig starts from the --config file, if one is given."""
    given = {f.name: parse_field(recipe, f.name, getattr(args, f.name))
             for f in fields(recipe) if getattr(args, f.name) is not None}
    return load_config(args.config, **given) if recipe is TrainConfig else recipe(**given)


def _run_dir_name(config: dict, data: dict) -> str:
    payload = json.dumps({"config": config, "data": data}, sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
    return f"{digest}-s{config['seed']}"


def _write_run(result: RunResult, spec: DataSpec, out_root: Path) -> Path:
    """Write a finished run's metrics, checkpoint and, last, its manifest:
    ``report`` finds runs by their manifests, so a write that fails (a
    non-finite checkpoint array) leaves no run that it counts."""
    config, data = asdict(result.cfg), asdict(spec)
    run_dir = out_root / _run_dir_name(config, data)
    run_dir.mkdir(parents=True, exist_ok=True)
    save_metrics(result.records, run_dir / "metrics.csv")
    dual = result.dualnet
    named = {"student_F": result.student_F, "student_C": result.student_C,
             "teacher_F": dual and dual.teacher_F, "teacher_C": dual and dual.teacher_C,
             "disc": result.disc}  # a variant without a teacher or discriminator has None
    save_paramsets(run_dir / "checkpoint.npz", {k: ps for k, ps in named.items() if ps is not None})
    manifest = {"tool": TOOL_VERSION, "config": config, "seeds": [config["seed"]],
                "data": data, "outputs": {"metrics": "metrics.csv", "checkpoint": "checkpoint.npz"}}
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return run_dir


def cmd_datagen(args) -> int:
    seed = parse_text("seed", "int", args.seed)
    dataset = make_domain_dataset(_recipe_from_args(DataSpec, args), seed)
    out = Path(args.out)
    save_dataset(dataset, out / "dataset.csv", out / "dataset.meta")
    print(f"wrote {out / 'dataset.csv'} and {out / 'dataset.meta'}")
    return 0


def cmd_train(args) -> int:
    cfg, spec = _recipe_from_args(TrainConfig, args), _recipe_from_args(DataSpec, args)
    (result,) = Trainer(cfg, make_domain_dataset(spec, cfg.seed)).run()
    run_dir = _write_run(result, spec, Path(args.out))
    final = result.records[-1]
    print(f"run {run_dir}")
    print(f"final step {final.step}: target acc student={final.acc_student_target:.4f} "
          f"teacher={final.acc_teacher_target:.4f}")
    return 0


def cmd_ablate(args) -> int:
    in_file = {} if args.config is None else read_config(args.config)
    for name, axis in (("seed", "--seeds"), ("variant", "--variants")):
        if getattr(args, name) is not None:  # run_ablation sets both for each run
            raise ConfigError(f"ablate takes each run's {name} from {axis}, not --{name}")
        if name in in_file:
            raise ConfigError(f"ablate takes each run's {name} from {axis}, "
                              f"not from config key '{name}' of {args.config}")
    cfg, spec = _recipe_from_args(TrainConfig, args), _recipe_from_args(DataSpec, args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    seeds = [parse_config_value("seed", s) for s in args.seeds.split(",") if s.strip()]
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


# gradcheck's flags as (dest, kind, default text): each value parses like a
# config value, and run_loss_checks checks its range
_GRADCHECK_FLAGS = (("seed", "int", "0"), ("batch", "int", "4"), ("in_dim", "int", "5"),
                    ("hidden", "int", "6"), ("feature_dim", "int", "4"), ("classes", "int", "3"),
                    ("h", "float", "1e-5"), ("tol", "float", "1e-4"))


def cmd_gradcheck(args) -> int:
    v = {dest: parse_text(dest, kind, getattr(args, dest)) for dest, kind, _ in _GRADCHECK_FLAGS}
    reports = run_loss_checks(v["seed"], h=v["h"], tol=v["tol"],
                              batch=v["batch"], in_dim=v["in_dim"], hidden=v["hidden"],
                              feature_dim=v["feature_dim"], n_classes=v["classes"])
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
            cfg = TrainConfig(**config)
        except (ValueError, KeyError, TypeError, ConfigError) as exc:
            raise ContractError(f"malformed manifest {manifest_path}: {exc!r}") from None
        if asdict(cfg) != config:  # a key left out would take its default
            raise ContractError(f"malformed manifest {manifest_path}: its config is not "
                                f"a whole TrainConfig")
        variant, seed = cfg.variant, cfg.seed
        run_dir = run_dirs.setdefault((variant, seed), manifest_path.parent)
        if run_dir != manifest_path.parent:
            raise ContractError(f"run directories {run_dir} and {manifest_path.parent} "
                                f"both hold variant {variant} seed {seed}")
        metrics_path = manifest_path.parent / "metrics.csv"
        records = load_metrics(metrics_path)
        # a file cut at a row boundary, or with a row repeated or moved, still
        # loads; reading the schedule one step past the rows shows a cut too
        steps = [r.step for r in records]
        if steps != list(islice(eval_steps(cfg), len(steps) + 1)):
            raise ContractError(f"the steps in {metrics_path} are not the evaluation "
                                f"schedule of its manifest's config")
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
    _add_recipe_flags(p, DataSpec)
    p.add_argument("--seed", default="0")
    p.add_argument("--out", type=str, default=".")
    p.set_defaults(fn=cmd_datagen)

    p = sub.add_parser("train", help="train one variant on a generated benchmark")
    _add_recipe_flags(p, TrainConfig, DataSpec)
    p.add_argument("--out", type=str, default="runs")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ablate", help="run a variant x seed sweep and summarize")
    _add_recipe_flags(p, TrainConfig, DataSpec)
    p.add_argument("--variants", type=str, default=",".join(ABLATION_CHAIN))
    p.add_argument("--seeds", type=str, default="0,1,2,3,4")
    p.add_argument("--out", type=str, default="runs")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify loss gradients against finite differences")
    for dest, _, default in _GRADCHECK_FLAGS:
        p.add_argument("--" + dest.replace("_", "-"), default=default)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("report", help="re-aggregate run directories into a summary")
    p.add_argument("--runs", type=str, required=True)
    p.add_argument("--json", type=str, default=None, help="also write the summary here")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    release_free_heap()  # and pin the thresholds before the command allocates
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a threaded BLAS call leaves the idle worker spinning on the other
        # core for about 0.1 s after it; at the default sizes that costs CPU
        # and saves no wall time (a train with larger matmuls loses some).
        # Each NaN or infinity a command makes meets a check that names it.
        with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except (ConfigError, ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RenlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
