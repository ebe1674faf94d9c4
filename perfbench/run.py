"""divreg train/eval benchmark: one workload per process.

    python3 perfbench/run.py --workload ensemble32 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; divreg is imported from its
`src/` and nowhere else. A run makes its inputs from --seed, writes them
as DVDS files, and then measures two phases through the public functions
the CLI uses:

1. training, as `divreg train` does it: `ExperimentConfig.from_dict`,
   `load_dataset` for both splits, the model builder, `train`,
   `save_checkpoint`;
2. evaluation, as `divreg eval` does it: `load_checkpoint`, `evaluate`
   on the held-out split.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run (tracer.py).
Correctness checks (checks.py) run after the timed windows in both modes.
See README.md for the workloads and the reference figures.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 15  # per round
TRAIN_SHARE = 0.75  # of --seconds; evaluation passes take the rest
MIN_EVAL_PASSES = 5


@dataclass(frozen=True)
class Workload:
    config: dict  # the experiment config, as `divreg train` reads it
    noise_images: tuple | None = None  # (size, train, test): criterion-7 uniform noise;
    # None: `gen-data` images, 100 per class, 32x32
    initial_branches: int = 1
    learning_check: bool = False


WORKLOADS = {
    # criterion-6 run: three attended branches from the start, weight 1
    "ensemble32": Workload(
        initial_branches=3, learning_check=True,
        config={"model_family": "ensemble", "class_count": 8, "branch_max": 3,
                "branch_add_epochs": 2, "diversity_weight": 1.0, "epochs": 5,
                "batch_size": 16, "learning_rate": 0.02, "momentum": 0.9, "seed": 0}),
    # dual branch: at chance for three epochs, learned by the seventh
    "dual32": Workload(
        learning_check=True,
        config={"model_family": "dual_branch", "class_count": 8, "diversity_weight": 1.0,
                "epochs": 7, "batch_size": 16, "learning_rate": 0.02, "momentum": 0.9,
                "seed": 0}),
    # criterion-7 run: one branch added per epoch up to 15 on 8x8 inputs
    "grow15": Workload(
        noise_images=(8, 60, 12),
        config={"model_family": "ensemble", "class_count": 3, "branch_max": 15,
                "branch_add_epochs": 1, "epochs": 15, "batch_size": 12, "seed": 0}),
    # self-test only (selftest.py): seconds per run, not a benchmark workload
    "tiny": Workload(
        noise_images=(8, 24, 6),
        config={"model_family": "ensemble", "class_count": 3, "branch_max": 3,
                "branch_add_epochs": 1, "epochs": 3, "batch_size": 6, "seed": 0}),
}


def keep_freed_memory() -> str:
    """Stop glibc from returning freed heap memory to the system.

    With the default, adaptive thresholds the arrays of each forward pass
    go back to the system and are faulted in again on the next one: an
    `evaluate` pass of `ensemble32` took 15-19k minor page faults and
    ran at one of two speeds 25% apart, depending on the heap's history.
    Fixed thresholds make it one speed. Returns the setting in force.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return "default"
    m_trim_threshold, m_mmap_threshold = -1, -3
    if mallopt(m_trim_threshold, 1 << 30) and mallopt(m_mmap_threshold, 32 << 20):
        return "glibc trim threshold 1 GiB, mmap threshold 32 MiB"
    return "default"


def import_divreg():
    src = ROOT / "src"
    if not (src / "divreg" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no divreg sources under {src}")
    sys.path.insert(0, str(src))
    import divreg
    if Path(divreg.__file__).resolve().parent != (src / "divreg").resolve():
        raise SystemExit(f"run.py: divreg was imported from {divreg.__file__}, not {src}")
    return divreg


def make_inputs(dv, w: Workload, seed: int, data_dir: Path) -> None:
    """Write train.dvds and test.dvds for this seed."""
    k = w.config["class_count"]
    if w.noise_images is None:
        train_set, test_set = dv.generate(dv.GeneratorConfig(class_count=k, seed=seed))
    else:
        size, n_train, n_test = w.noise_images
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC7]))
        train_set, test_set = (
            dv.Dataset(rng.uniform(0, 1, (n, 1, size, size)), np.arange(n) % k, k)
            for n in (n_train, n_test))
    dv.save_dataset(train_set, data_dir / "train.dvds")
    dv.save_dataset(test_set, data_dir / "test.dvds")


class Trained(NamedTuple):
    cfg: object
    train_set: object
    test_set: object
    model: object
    result: object


class Bench:
    """One run: counts the program operations it attempts, optionally
    under a tracer."""

    def __init__(self, dv, w: Workload, data_dir: Path):
        self.dv = dv
        self.w = w
        self.data_dir = data_dir
        self.doc = dict(w.config, dataset_path=str(data_dir), output_dir=str(data_dir))
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0

    def _call(self, name, fn, *args, phase=None, **kwargs):
        self.attempted += 1
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, phase=phase, **kwargs)

    def setup(self):
        """Parse the config, load and validate both splits, build the model."""
        dv = self.dv
        cfg = self._call("config.from_dict", dv.ExperimentConfig.from_dict, self.doc)
        train_set = self._call("data.load_dataset", dv.load_dataset, self.data_dir / "train.dvds")
        test_set = self._call("data.load_dataset", dv.load_dataset, self.data_dir / "test.dvds")
        size = train_set.image_shape[1]
        if cfg.model_family == "ensemble":
            model = self._call("models.build", dv.build_ensemble, cfg.class_count,
                               branch_max=cfg.branch_max, attention_enabled=cfg.attention_enabled,
                               seed=cfg.seed, input_size=size,
                               initial_branches=self.w.initial_branches)
        else:
            model = self._call("models.build", dv.build_dual_branch, cfg.class_count,
                               attention_enabled=cfg.attention_enabled, seed=cfg.seed,
                               input_size=size, lambda_balance=cfg.lambda_balance)
        if self.tracer is not None:
            self.tracer.watch(model)
        return cfg, train_set, test_set, model

    def timed_setups(self, repeats: int) -> list[float]:
        times = []
        for _ in range(repeats):
            gc.collect()
            t0 = time.perf_counter()
            self.setup()
            times.append(time.perf_counter() - t0)
        return times

    def train_once(self):
        """One `train` call on a freshly set-up model; returns its wall time."""
        cfg, train_set, test_set, model = self.setup()
        gc.collect()
        t0 = time.perf_counter()
        result = self._call("training.train", self.dv.train, model, train_set, test_set, cfg)
        wall = time.perf_counter() - t0
        return wall, Trained(cfg, train_set, test_set, model, result)

    def eval_window(self, model, test_set, seconds: float) -> list[float]:
        """Whole `evaluate` passes over the held-out split for `seconds`;
        returns the wall time of each pass that did not fail."""
        gc.collect()
        passes, times = 0, []
        start = time.perf_counter()
        while passes < MIN_EVAL_PASSES or time.perf_counter() - start < seconds:
            passes += 1
            t0 = time.perf_counter()
            try:
                self._call("training.evaluate", self.dv.evaluate, model, test_set,
                           phase="evaluate")
            except Exception as e:  # a failed pass is counted, the window goes on
                self.failed += 1
                print(f"evaluate failed: {e!r}", file=sys.stderr)
            else:
                times.append(time.perf_counter() - t0)
        return times


def run_checks(dv, bench: Bench, trained: Trained, reloaded, seed: int, repeats=None):
    """The checks of checks.py on the run's final model; `repeats` says,
    for each further `train` call of an untraced run, whether it repeated
    the first one exactly."""
    cfg, train_set, test_set, model, result = trained
    training = importlib.import_module("divreg.training")
    xb = train_set.images[:cfg.batch_size]
    yb = train_set.labels[:cfg.batch_size]
    # the loss an optimisation step differentiates; `train` builds it only
    # through these two private helpers
    step = training._ensemble_step if cfg.model_family == "ensemble" else training._dual_step
    params = model.parameters()
    _, breakdown = step(model, xb, yb, cfg)
    ours = checks.numpy_scores(model, xb, cfg)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFD]))
    out = [checks.directional_derivative("finite_difference", lambda: step(model, xb, yb, cfg)[0],
                                         params, dv.backward, rng)]
    # each D on its own too: a D of 1e-40 adds nothing visible to the loss
    for k, (_, noise) in ours.items():
        out.append(checks.directional_derivative(
            f"finite_difference.{k}", lambda: checks.diversity_terms(model, xb, cfg)[k],
            params, dv.backward, rng, noise=noise))
    out.append(checks.diversity_scores(ours, breakdown, result.records))
    in_memory = dv.evaluate(model, test_set)
    from_disk = dv.evaluate(reloaded, test_set)
    out.append(checks.reload_agrees(model, reloaded, in_memory, from_disk,
                                    dv.predict_dataset(reloaded, test_set),
                                    checks.recount_predictions(reloaded, test_set),
                                    test_set.labels))
    if bench.w.learning_check:
        baseline = dv.accuracy(dv.nearest_template(test_set.images, cfg.class_count),
                               test_set.labels)
        out.append(checks.above_floor(result.records, baseline, cfg.class_count))
    if cfg.model_family == "ensemble":
        out.append(checks.growth(result, model, cfg, bench.w.initial_branches))
    if repeats is not None:
        out.append(("repeat", all(repeats), f"{sum(repeats)} of {len(repeats)} further "
                                             "train calls gave the first call's records and weights"))
    bench.attempted += len(out)
    for name, ok, detail in out:
        print(f"check {name}: {'ok' if ok else 'FAILED'}: {detail}")
    return all(ok for _, ok, _ in out)


def blas_info() -> dict:
    """numpy's BLAS library and version, and the thread count OpenBLAS
    reports (None when it cannot be asked)."""
    info = {"numpy": np.__version__, "cpu_count": os.cpu_count(), "blas": None,
            "blas_threads": None}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if blas:
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def measure(dv, w: Workload, seed: int, seconds: float, data_dir: Path):
    """Untraced run: the end-to-end metrics."""
    bench = Bench(dv, w, data_dir)

    # Rounds of set-ups, one `train` call and one slice of `evaluate` passes
    # while the next round is expected to end within a tenth past --seconds.
    # Every call trains the same model from the same inputs, so the first
    # call's checkpoint is the final model. Spreading set-ups and passes
    # over the run makes them see the same machine as the training calls
    # rather than one short stretch of it.
    start = time.perf_counter()
    setup_times, walls, passes, repeats = [], [], [], []
    while not walls or (time.perf_counter() - start
                        + statistics.median(walls) / TRAIN_SHARE <= 1.1 * seconds):
        setup_times += bench.timed_setups(SETUP_REPEATS)
        wall, again = bench.train_once()
        walls.append(wall)
        if len(walls) == 1:
            trained = again
            ckpt = data_dir / "model.dvrg"
            bench._call("models.save_checkpoint", dv.save_checkpoint, trained.model, ckpt)
            reloaded = bench._call("models.load_checkpoint", dv.load_checkpoint, ckpt)
        else:
            repeats.append(checks.same_run(trained.model, trained.result,
                                           again.model, again.result))
        passes += bench.eval_window(reloaded, trained.test_set, wall * (1 / TRAIN_SHARE - 1))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cfg, train_set, test_set = trained.cfg, trained.train_set, trained.test_set
    samples = cfg.epochs * len(train_set)
    print(f"train calls {len(walls)}: " + ", ".join(f"{x:.3f}s" for x in walls)
          + f"; {len(passes)} evaluate passes of {len(test_set)} images, median "
          f"{statistics.median(passes):.4f}s; {len(setup_times)} set-ups, median "
          f"{statistics.median(setup_times):.4f}s")
    correct = run_checks(dv, bench, trained, reloaded, seed, repeats)
    metrics = {
        "train_samples_per_s": {"value": statistics.median(samples / x for x in walls),
                                "unit": "samples/s"},
        "eval_images_per_s": {"value": len(test_set) / statistics.median(passes),
                              "unit": "images/s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
    }
    return bench, correct, metrics


def measure_traced(dv, w: Workload, seed: int, seconds: float, data_dir: Path, trace_path: Path):
    """Traced run: one untraced `train` call as the reference, then the
    same call, set-ups and an evaluation window under the tracer."""
    bench = Bench(dv, w, data_dir)
    reference, _ = bench.train_once()
    tracer = Tracer()
    tracer.install()
    bench.tracer = tracer
    try:
        bench.timed_setups(SETUP_REPEATS)
        traced, trained = bench.train_once()
        cfg, train_set, test_set, model, _ = trained
        ckpt = data_dir / "model.dvrg"
        bench._call("models.save_checkpoint", dv.save_checkpoint, model, ckpt)
        reloaded = bench._call("models.load_checkpoint", dv.load_checkpoint, ckpt)
        tracer.watch(reloaded)
        images = len(test_set) * len(bench.eval_window(reloaded, test_set,
                                                        (1 - TRAIN_SHARE) * seconds))
    finally:
        tracer.uninstall()
        bench.tracer = None
    correct = run_checks(dv, bench, trained, reloaded, seed)
    metrics = tracer.layer_table(epochs=cfg.epochs, images_evaluated=images)
    metrics["trace.overhead_ratio"] = {"value": traced / reference, "unit": "ratio"}
    print(f"traced train call {traced:.3f}s vs untraced {reference:.3f}s "
          f"(overhead {100 * (traced / reference - 1):.1f}%); {len(tracer.names)} spans "
          f"written to {trace_path.relative_to(ROOT)}")
    tracer.write(trace_path)
    return bench, correct, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    allocator = keep_freed_memory()
    dv = import_divreg()
    w = WORKLOADS[args.workload]
    print(json.dumps({"workload": args.workload, "seed": args.seed, **blas_info(),
                      "allocator": allocator}))
    OUT.mkdir(exist_ok=True)
    data_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    data_dir.mkdir()
    try:
        make_inputs(dv, w, args.seed, data_dir)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            bench, correct, metrics = measure_traced(dv, w, args.seed, args.seconds,
                                                     data_dir, trace_path)
        else:
            bench, correct, metrics = measure(dv, w, args.seed, args.seconds, data_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
