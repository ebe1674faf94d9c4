"""Command-line harness: gen-data, train, eval, ablate, gradcheck.

Every command is deterministic given (config, seed); metric CSVs are
byte-identical across re-runs. Exit statuses: 0 success, 2 for config
or validation problems and unusable paths, 3 for a non-finite loss abort,
4 when gradient verification fails. Each output file is written whole
(`data.write_atomic`): a run that stops part-way leaves the previous file
in place.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

from .config import ConfigError, ExperimentConfig
from .data import GeneratorConfig, generate, load_dataset, save_dataset, write_atomic
from .gradcheck import report_json, report_text, run_suite
from .models import (EnsembleModel, build_dual_branch, build_ensemble, load_checkpoint,
                     save_checkpoint)
from .training import NonFiniteLossError, evaluate, resolved_gammas, train


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError("config", f"cannot read {path}: {e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"{path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError("config", f"{path} must hold a JSON object")
    return doc


def _write_json(path: Path, obj) -> None:
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _write_csv(path: Path, records) -> None:
    """A header of the records' dataclass fields, then one row per record."""
    lines = [",".join(f.name for f in fields(records[0]))]
    lines += [",".join(map(_fmt, astuple(r))) for r in records]
    write_atomic(path, "\n".join(lines) + "\n")


def _load_nonempty(path: Path, field_name: str):
    dataset = load_dataset(path)
    if len(dataset) == 0:
        raise ConfigError(field_name, f"{path} holds no samples")
    return dataset


def _load_split(dataset_path):
    p = Path(dataset_path)
    if not p.is_dir():
        raise ConfigError("dataset_path",
                          f"expected a directory holding train.dvds and test.dvds, got {p}")
    paths = {name: p / f"{name}.dvds" for name in ("train", "test")}
    for name, fp in paths.items():
        if not fp.is_file():
            raise ConfigError("dataset_path", f"missing {fp}")
    train_set = _load_nonempty(paths["train"], "dataset_path")
    test_set = _load_nonempty(paths["test"], "dataset_path")
    checksums = {f"{name}.dvds": _sha256(fp) for name, fp in paths.items()}
    return train_set, test_set, checksums


def _square_size(dataset) -> int:
    _, h, w = dataset.image_shape
    if h != w:
        raise ConfigError("dataset_path", f"images must be square, got {h}x{w}")
    return h


def _build_model(cfg: ExperimentConfig, input_size: int):
    if cfg.model_family == "ensemble":
        return build_ensemble(cfg.class_count, branch_max=cfg.branch_max,
                              attention_enabled=cfg.attention_enabled, seed=cfg.seed,
                              input_size=input_size)
    return build_dual_branch(cfg.class_count, attention_enabled=cfg.attention_enabled,
                             seed=cfg.seed, input_size=input_size,
                             lambda_balance=cfg.lambda_balance)


def _run_training(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> dict:
    """Train per config, write metrics/summary/checkpoint, return summary."""
    if cfg.dataset_path is None:
        raise ConfigError("dataset_path", "required for training")
    train_set, test_set, checksums = _load_split(cfg.dataset_path)
    if train_set.class_count != cfg.class_count:
        raise ConfigError("class_count",
                          f"config says {cfg.class_count}, dataset has {train_set.class_count}")
    if cfg.batch_size > len(train_set):
        raise ConfigError("batch_size",
                          f"{cfg.batch_size} exceeds train split size {len(train_set)}")
    model = _build_model(cfg, _square_size(train_set))

    started = time.time()
    result = train(model, train_set, test_set, cfg)
    wall = time.time() - started

    _write_csv(out_dir / "metrics.csv", result.records)
    save_checkpoint(model, out_dir / "model.dvrg")
    summary = {
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "model_family": cfg.model_family,
        "gamma_resolved": resolved_gammas(model, train_set.images[:1], cfg),
        "dataset_checksums": checksums,
        "final": asdict(result.records[-1]),
        "branch_add_checks": [asdict(c) for c in result.add_checks],
        "wall_time_s": wall,
        "files": {"metrics": "metrics.csv", "checkpoint": "model.dvrg"},
    }
    _write_json(out_dir / "summary.json", summary)
    last = result.records[-1]
    _say(quiet, f"{cfg.model_family}: {cfg.epochs} epochs, "
                f"test_acc={last.test_acc:.4f}, outputs in {out_dir}")
    return summary


def cmd_gen_data(args) -> int:
    cfg = GeneratorConfig.from_dict(_load_json(args.config))
    train_set, test_set = generate(cfg)
    out = Path(args.out)
    save_dataset(train_set, out / "train.dvds")
    save_dataset(test_set, out / "test.dvds")
    manifest = {
        "seed": cfg.seed,
        "config": asdict(cfg),
        "files": {
            "train.dvds": {"sha256": _sha256(out / "train.dvds"), "samples": len(train_set)},
            "test.dvds": {"sha256": _sha256(out / "test.dvds"), "samples": len(test_set)},
        },
    }
    _write_json(out / "manifest.json", manifest)
    _say(args.quiet, f"wrote {len(train_set)} train / {len(test_set)} test samples to {out}")
    return 0


def _config_doc(args) -> dict:
    """The config JSON of `train` or `ablate`, with --seed and --out applied."""
    doc = _load_json(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out is not None:
        doc["output_dir"] = args.out
    return doc


def cmd_train(args) -> int:
    cfg = ExperimentConfig.from_dict(_config_doc(args))
    _run_training(cfg, Path(cfg.output_dir), args.quiet)
    return 0


def cmd_eval(args) -> int:
    dpath = Path(args.dataset)
    if dpath.is_dir():
        dpath = dpath / "test.dvds"
    dataset = _load_nonempty(dpath, "dataset")
    model = load_checkpoint(args.checkpoint)
    if dataset.class_count != model.class_count:
        raise ConfigError("dataset",
                          f"dataset has {dataset.class_count} classes, "
                          f"checkpoint model has {model.class_count}")
    if _square_size(dataset) != model.input_size:
        raise ConfigError("dataset",
                          f"dataset images are {_square_size(dataset)}px, "
                          f"checkpoint model expects {model.input_size}px")
    report = evaluate(model, dataset)
    is_ensemble = isinstance(model, EnsembleModel)
    doc = {
        "checkpoint": str(args.checkpoint),
        "dataset": str(dpath),
        "model_family": "ensemble" if is_ensemble else "dual_branch",
        "branch_count": len(model.branches) if is_ensemble else 2,
        **asdict(report),
    }
    _write_json(Path(args.out) / "eval.json", doc)
    _say(args.quiet, f"accuracy={report.accuracy:.4f} "
                     f"per_branch={[round(a, 4) for a in report.per_branch]}")
    return 0


_ABLATION_CELLS = [
    # (name, attention, diversity_spatial, diversity_channel)
    ("attn_off_div_off", False, False, False),
    ("attn_on_div_off", True, False, False),
    ("attn_on_spatial", True, True, False),
    ("attn_on_both", True, True, True),
]


@dataclass
class AblationRow:
    """One cell of the ablation grid: an `ablation.csv` row, fields as columns."""
    cell: str
    attention: bool
    diversity_spatial: bool
    diversity_channel: bool
    final_test_acc: float
    final_d_sp: float | None
    final_d_ch: float | None
    final_d_branch: float | None
    dataset_sha256: str


def cmd_ablate(args) -> int:
    doc = _config_doc(args)
    base = ExperimentConfig.from_dict(doc)  # validate before any cell runs
    out = Path(base.output_dir)
    csv_path = out / "ablation.csv"
    rows = []
    for name, attention, d_sp, d_ch in _ABLATION_CELLS:
        cell_doc = dict(doc)
        cell_doc["attention_enabled"] = attention
        cell_doc["diversity_spatial"] = d_sp
        cell_doc["diversity_channel"] = d_ch
        cell_doc["output_dir"] = str(out / "cells" / name)
        cfg = ExperimentConfig.from_dict(cell_doc)
        summary = _run_training(cfg, Path(cfg.output_dir), True)
        final = summary["final"]
        row = AblationRow(name, attention, d_sp, d_ch, final["test_acc"], final["d_sp"],
                          final["d_ch"], final["d_branch"],
                          summary["dataset_checksums"]["train.dvds"])
        rows.append(row)
        # rewritten whole as each cell finishes: the last table stays until one does
        _write_csv(csv_path, rows)
        _say(args.quiet, f"cell {name}: test_acc={row.final_test_acc:.4f}")

    def cell_num(v):  # D reaches 1e-97 at 15 learners: fixed point would print 0
        return "-" if v is None else f"{v:.3e}"

    header = (f"{'cell':<18s} {'attn':>5s} {'d_sp':>5s} {'d_ch':>5s} "
              f"{'test_acc':>9s} {'D_sp':>10s} {'D_ch':>10s}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.cell:<18s} {'on' if row.attention else 'off':>5s} "
            f"{'on' if row.diversity_spatial else 'off':>5s} "
            f"{'on' if row.diversity_channel else 'off':>5s} "
            f"{row.final_test_acc:>9.4f} "
            f"{cell_num(row.final_d_sp):>10s} {cell_num(row.final_d_ch):>10s}")
    write_atomic(out / "ablation.txt", "\n".join(lines) + "\n")
    _say(args.quiet, f"ablation table in {csv_path}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_suite()
    out = Path(args.out)
    _write_json(out / "gradcheck.json", report_json(results))
    text = report_text(results)
    write_atomic(out / "gradcheck.txt", text)
    _say(args.quiet, text.rstrip())
    failing = [r.name for r in results if not r.passed]
    if failing:
        print("gradient check failed: " + ", ".join(failing), file=sys.stderr)
        return 4
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="divreg",
        description="Determinant-diversity regularization experiments on synthetic data.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset (DVDS files + manifest)")
    g.add_argument("--config", required=True, help="generator config JSON")
    g.add_argument("--out", default="data", help="output directory")
    g.add_argument("--quiet", action="store_true")
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train a model and write metrics/summary/checkpoint")
    t.add_argument("--config", required=True, help="experiment config JSON")
    t.add_argument("--seed", type=int, default=None, help="override config seed")
    t.add_argument("--out", default=None, help="override config output_dir")
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True, help="DVRG checkpoint path")
    e.add_argument("--dataset", required=True, help="DVDS file or dataset directory")
    e.add_argument("--out", default=".", help="directory for eval.json")
    e.add_argument("--quiet", action="store_true")
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("ablate", help="run the attention/diversity ablation grid")
    a.add_argument("--config", required=True, help="base experiment config JSON")
    a.add_argument("--seed", type=int, default=None, help="override config seed")
    a.add_argument("--out", default=None, help="override config output_dir")
    a.add_argument("--quiet", action="store_true")
    a.set_defaults(fn=cmd_ablate)

    c = sub.add_parser("gradcheck", help="run the finite-difference verification suite")
    c.add_argument("--out", default=".", help="directory for gradcheck.{json,txt}")
    c.add_argument("--quiet", action="store_true")
    c.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except NonFiniteLossError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        # a bad config, dataset, checkpoint or path; an OSError naming no path
        # (a full disk, say) is not one, and propagates
        if isinstance(e, OSError) and e.filename is None:
            raise
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
