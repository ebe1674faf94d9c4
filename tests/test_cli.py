"""End-to-end harness runs and the exit-status contract."""

import argparse
import errno
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from divreg import cli, data, gradcheck
from divreg.cli import _build_model, _parser, main
from divreg.config import SAMPLE_LIMIT, SIZE_LIMIT, ExperimentConfig
from divreg.data import GeneratorConfig, load_dataset
from divreg.models import load_checkpoint
from divreg.training import EpochRecord, resolved_gammas
from tape_oracle import scale_backward

GEN = {"class_count": 3, "samples_per_class": 10, "noise_sigma": 0.05,
       "occlusion_prob": 0.3, "occlusion_size": 4, "seed": 0}

TRAIN = {"model_family": "ensemble", "class_count": 3, "branch_max": 2,
         "branch_add_epochs": 1, "epochs": 2, "batch_size": 8,
         "learning_rate": 0.01, "momentum": 0.9, "seed": 0}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("harness")
    cfg = write_json(root / "gen.json", GEN)
    assert main(["gen-data", "--config", cfg, "--out", str(root / "data"),
                 "--quiet"]) == 0
    return root / "data"


@pytest.fixture(scope="module")
def train_out(tmp_path_factory, data_dir):
    root = tmp_path_factory.mktemp("train")
    doc = dict(TRAIN, dataset_path=str(data_dir))
    cfg = write_json(root / "train.json", doc)
    assert main(["train", "--config", cfg, "--out", str(root / "out"),
                 "--quiet"]) == 0
    return root / "out"


def test_gen_data_outputs(data_dir):
    train_set = load_dataset(data_dir / "train.dvds")
    test_set = load_dataset(data_dir / "test.dvds")
    assert len(train_set) == 24 and len(test_set) == 6
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["config"]["class_count"] == 3
    assert manifest["files"]["train.dvds"]["samples"] == 24
    assert len(manifest["files"]["train.dvds"]["sha256"]) == 64


def test_train_outputs(train_out):
    lines = (train_out / "metrics.csv").read_text().splitlines()
    assert lines[0] == ("epoch,branch_count,train_acc,test_acc,"
                       "loss_total,loss_cls,d_sp,d_ch,d_branch")
    assert len(lines) == 1 + 2  # header + one row per epoch
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    assert first[8] == ""  # no branch diversity for the ensemble family
    second = lines[2].split(",")
    assert second[1] == "2"  # branch added at epoch 2 (add interval 1)

    summary = json.loads((train_out / "summary.json").read_text())
    assert summary["config"]["model_family"] == "ensemble"
    assert summary["final"]["epoch"] == 2
    assert summary["branch_add_checks"][0]["bit_exact"] is True
    assert summary["gamma_resolved"] == {"spatial": [1.0 / 16], "channel": [1.0 / 32]}
    assert summary["wall_time_s"] > 0

    model = load_checkpoint(train_out / "model.dvrg")
    assert model.class_count == 3
    assert len(model.branches) == 2


def _csv_value(text: str):
    if text == "":
        return None
    return int(text) if text.lstrip("-").isdigit() else float(text)


@pytest.mark.parametrize("family", ["ensemble", "dual_branch"])
def test_records_round_trip_through_metrics_summary_and_eval(family, tmp_path, data_dir):
    doc = dict(TRAIN, dataset_path=str(data_dir), model_family=family)
    if family == "dual_branch":
        del doc["branch_max"], doc["branch_add_epochs"]
    cfg = write_json(tmp_path / "train.json", doc)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    header, *rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()]
    assert header == [f.name for f in fields(EpochRecord)]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final"] == dict(zip(header, map(_csv_value, rows[-1])))
    # the epoch's held-out pass and eval both run in batches of 64
    assert main(["eval", "--checkpoint", str(out / "model.dvrg"), "--dataset", str(data_dir),
                 "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "eval.json").read_text())
    assert report["accuracy"] == summary["final"]["test_acc"]


# 16px input: the base gives 4x4, ensemble attention maps are 4x4 then
# 2x2 (32 channels), dual patches are 2x2 (32 channels, 32-wide GAP vectors)
@pytest.mark.parametrize("doc,expected", [
    ({"model_family": "ensemble", "diversity_tap": "last"},
     {"spatial": [1 / 4], "channel": [1 / 32]}),
    ({"model_family": "ensemble", "diversity_tap": "all"},
     {"spatial": [1 / 16, 1 / 4], "channel": [1 / 32, 1 / 32]}),
    ({"model_family": "dual_branch"},
     {"spatial": [1 / 4], "channel": [1 / 32], "branch": [1 / 32]}),
    ({"model_family": "ensemble", "diversity_tap": "all", "diversity_channel": False},
     {"spatial": [1 / 16, 1 / 4]}),
    ({"model_family": "dual_branch", "diversity_spatial": False, "gamma": 0.3},
     {"channel": [0.3], "branch": [0.3]}),
], ids=["ensemble-last", "ensemble-all", "dual_branch", "ensemble-all-channel_off",
        "dual_branch-gamma-spatial_off"])
def test_resolved_gammas_match_pooled_maps(doc, expected):
    cfg = ExperimentConfig.from_dict(dict(doc, class_count=3))
    model = _build_model(cfg, 16)
    images = np.random.default_rng(0).uniform(size=(1, 1, 16, 16))
    assert resolved_gammas(model, images, cfg) == expected


def test_metrics_rerun_byte_identical(tmp_path, data_dir):
    doc = dict(TRAIN, dataset_path=str(data_dir))
    cfg = write_json(tmp_path / "train.json", doc)
    for out in ("a", "b"):
        assert main(["train", "--config", cfg, "--out", str(tmp_path / out),
                     "--quiet"]) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() \
        == (tmp_path / "b" / "metrics.csv").read_bytes()
    assert (tmp_path / "a" / "model.dvrg").read_bytes() \
        == (tmp_path / "b" / "model.dvrg").read_bytes()


def test_seed_override_changes_run(tmp_path, data_dir):
    doc = dict(TRAIN, dataset_path=str(data_dir))
    cfg = write_json(tmp_path / "train.json", doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "s0"),
                 "--quiet"]) == 0
    assert main(["train", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "s1"), "--quiet"]) == 0
    s1 = json.loads((tmp_path / "s1" / "summary.json").read_text())
    assert s1["seed"] == 1
    assert (tmp_path / "s0" / "metrics.csv").read_bytes() \
        != (tmp_path / "s1" / "metrics.csv").read_bytes()


def test_eval_writes_report(tmp_path, data_dir, train_out, capsys):
    assert main(["eval", "--checkpoint", str(train_out / "model.dvrg"),
                 "--dataset", str(data_dir), "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert "accuracy=" in printed
    doc = json.loads((tmp_path / "eval.json").read_text())
    assert doc["model_family"] == "ensemble"
    assert doc["branch_count"] == 2
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert len(doc["per_class"]) == 3
    assert len(doc["per_branch"]) == 2


def test_eval_accepts_explicit_file(tmp_path, data_dir, train_out):
    assert main(["eval", "--checkpoint", str(train_out / "model.dvrg"),
                 "--dataset", str(data_dir / "train.dvds"),
                 "--out", str(tmp_path), "--quiet"]) == 0


def test_eval_rejects_mismatched_dataset(tmp_path, train_out, capsys):
    other = tmp_path / "other"
    cfg = write_json(tmp_path / "gen.json", dict(GEN, class_count=4))
    assert main(["gen-data", "--config", cfg, "--out", str(other), "--quiet"]) == 0
    code = main(["eval", "--checkpoint", str(train_out / "model.dvrg"),
                 "--dataset", str(other), "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert "classes" in capsys.readouterr().err


def test_ablate_grid(tmp_path, data_dir, capsys):
    # two learners at a tiny gamma: S is near all-ones, so D is far below 1e-4
    doc = dict(TRAIN, dataset_path=str(data_dir), gamma=1e-6)
    cfg = write_json(tmp_path / "ablate.json", doc)
    assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "grid")]) == 0
    lines = (tmp_path / "grid" / "ablation.csv").read_text().splitlines()
    assert lines[0].startswith("cell,attention,diversity_spatial")
    assert len(lines) == 5
    cells = [l.split(",")[0] for l in lines[1:]]
    assert cells == ["attn_off_div_off", "attn_on_div_off",
                     "attn_on_spatial", "attn_on_both"]
    # per-cell artifacts exist and the off-cell logged no diversity
    for cell in cells:
        assert (tmp_path / "grid" / "cells" / cell / "metrics.csv").is_file()
        assert (tmp_path / "grid" / "cells" / cell / "model.dvrg").is_file()
    off_row = lines[1].split(",")
    assert off_row[5] == "" and off_row[6] == ""
    both_row = lines[4].split(",")
    assert both_row[5] != "" and both_row[6] != ""
    table = (tmp_path / "grid" / "ablation.txt").read_text()
    assert "attn_on_both" in table
    # D in scientific notation, so a tiny D does not print as 0.0000
    both_line = next(l for l in table.splitlines() if l.startswith("attn_on_both"))
    printed = [float(v) for v in both_line.split()[-2:]]
    csv_d = [float(both_row[5]), float(both_row[6])]
    assert max(csv_d) < 1e-4
    for shown, value in zip(printed, csv_d):
        assert shown == float(f"{value:.3e}")
    assert "cell" in capsys.readouterr().out


def test_ablation_off_cell_matches_weight_zero(tmp_path, data_dir):
    # structural identity: switches-off and weight-0 runs share weights
    base = dict(TRAIN, dataset_path=str(data_dir), epochs=2, branch_max=1,
                attention_enabled=True)
    off = dict(base, diversity_spatial=False, diversity_channel=False)
    w0 = dict(base, diversity_weight=0.0)
    for name, doc in (("off", off), ("w0", w0)):
        cfg = write_json(tmp_path / f"{name}.json", doc)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / name),
                     "--quiet"]) == 0
    a = load_checkpoint(tmp_path / "off" / "model.dvrg")
    b = load_checkpoint(tmp_path / "w0" / "model.dvrg")
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)


def short_suite(monkeypatch, *names):
    """Point the gradcheck command at the named checks only; the full suite
    runs in tests/test_gradcheck.py and acceptance criterion 1."""
    monkeypatch.setattr(gradcheck, "_CHECKS", [c for c in gradcheck._CHECKS if c[0] in names])


def test_gradcheck_command(tmp_path, capsys, monkeypatch):
    short_suite(monkeypatch, "add", "det")
    assert main(["gradcheck", "--out", str(tmp_path), "--quiet"]) == 0
    doc = json.loads((tmp_path / "gradcheck.json").read_text())
    assert doc["all_passed"] is True
    assert [c["name"] for c in doc["checks"]] == ["add", "det"]
    text = (tmp_path / "gradcheck.txt").read_text()
    assert "all checks passed" in text


def test_gradcheck_corrupt_exits_4(tmp_path, capsys, monkeypatch):
    # a real backward, not the check, is broken
    short_suite(monkeypatch, "add", "relu")
    scale_backward(monkeypatch, "relu")
    code = main(["gradcheck", "--out", str(tmp_path), "--quiet"])
    assert code == 4
    assert capsys.readouterr().err == "gradient check failed: relu\n"
    doc = json.loads((tmp_path / "gradcheck.json").read_text())
    assert doc["all_passed"] is False
    assert [(c["name"], c["passed"]) for c in doc["checks"]] == [("add", True), ("relu", False)]
    assert "failing: relu" in (tmp_path / "gradcheck.txt").read_text()


# each output file -> the command that writes it
OUTPUTS = {"train.dvds": "gen-data", "test.dvds": "gen-data", "manifest.json": "gen-data",
           "metrics.csv": "train", "model.dvrg": "train", "summary.json": "train",
           "eval.json": "eval", "ablation.txt": "ablate",
           "gradcheck.json": "gradcheck", "gradcheck.txt": "gradcheck"}


@pytest.mark.parametrize("name", OUTPUTS)
def test_a_failed_write_keeps_the_previous_file(name, tmp_path, data_dir, train_out,
                                                monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_bytes(b"previous run\n")
    real_open, temp_files = open, []

    class HalfWritten:
        # writes half the bytes, then the disk is full
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if Path(path).name.startswith(f".{name}."):
            temp_files.append(Path(path))
            return HalfWritten(fh)
        return fh

    monkeypatch.setattr(data, "open", failing_open, raising=False)
    short_suite(monkeypatch, "add")
    config = {"gen-data": GEN, "train": dict(TRAIN, dataset_path=str(data_dir)),
              "ablate": dict(TRAIN, dataset_path=str(data_dir), epochs=1)}
    argv = {"eval": ["eval", "--checkpoint", str(train_out / "model.dvrg"),
                     "--dataset", str(data_dir)],
            "gradcheck": ["gradcheck"]}.get(OUTPUTS[name])
    if argv is None:
        argv = [OUTPUTS[name], "--config",
                write_json(tmp_path / "cfg.json", config[OUTPUTS[name]])]
    with pytest.raises(OSError, match="No space left"):
        main(argv + ["--out", str(out), "--quiet"])
    assert [p.parent for p in temp_files] == [out]
    assert (out / name).read_bytes() == b"previous run\n"
    assert not [p for p in out.rglob("*") if p.name.startswith(".")]


@pytest.mark.parametrize("base,key,value", [
    ("ensemble", "epochs", "2"),
    ("ensemble", "epochs", 2.5),
    ("ensemble", "epochs", True),
    ("ensemble", "seed", 1.0),
    ("ensemble", "batch_size", "8"),
    ("ensemble", "learning_rate", "0.1"),
    ("ensemble", "learning_rate", False),
    ("ensemble", "class_count", 3.0),
    ("ensemble", "momentum", None),
    ("ensemble", "gamma", [1.0]),
    ("ensemble", "output_dir", 5),
    ("ensemble", "model_family", ["ensemble"]),
    ("ensemble", "branch_max", 2.5),
    ("ensemble", "attention_enabled", "no"),
    ("ensemble", "diversity_spatial", 0),
    ("ensemble", "normalize_features", "yes"),
    ("dual_branch", "lambda", "0.5"),
    ("dual_branch", "pool_op", None),
    ("gen-data", "class_count", "3"),
    ("gen-data", "noise_sigma", None),
])
def test_wrong_json_type_exits_2(tmp_path, data_dir, capsys, monkeypatch, base, key, value):
    # run from an empty directory: a config that slipped through would
    # write its outputs there
    monkeypatch.chdir(tmp_path)
    command, doc = ("gen-data", GEN) if base == "gen-data" else ("train", dict(
        model_family=base, class_count=3, epochs=1, batch_size=8,
        dataset_path=str(data_dir)))
    cfg = write_json(tmp_path / "config.json", dict(doc, **{key: value}))
    assert main([command, "--config", cfg, "--quiet"]) == 2
    words = "(an integer|a number|true or false|a string)"
    assert re.search(f"config field '{key}': must be {words}, got", capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command,key,text", [
    ("train", "learning_rate", "Infinity"),
    ("train", "gamma", "Infinity"),
    ("train", "momentum", "NaN"),
    ("gen-data", "noise_sigma", "-Infinity"),
])
def test_non_finite_number_exits_2(tmp_path, data_dir, capsys, monkeypatch, command, key, text):
    # Python's json reads these tokens; a config holding one is rejected
    # before it writes anything
    monkeypatch.chdir(tmp_path)
    doc = GEN if command == "gen-data" else dict(TRAIN, dataset_path=str(data_dir), epochs=1,
                                                 branch_max=1)
    cfg = write_json(tmp_path / "config.json", dict(doc, **{key: float(text)}))
    assert f'"{key}": {text}' in Path(cfg).read_text()
    assert main([command, "--config", cfg, "--quiet"]) == 2
    assert f"config field '{key}': must be finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("key,value", [
    ("class_count", 1), ("samples_per_class", 0), ("noise_sigma", -0.1),
    ("occlusion_prob", 1.5), ("occlusion_size", 32), ("seed", -1), ("image_size", 64),
    # past the sample cap: refused before any image is allocated
    ("samples_per_class", SAMPLE_LIMIT // GEN["class_count"] + 1),
])
def test_gen_data_bad_field_exits_2(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "generate", lambda cfg: pytest.fail("generate was reached"))
    cfg = write_json(tmp_path / "gen.json", dict(GEN, **{key: value}))
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "data"), "--quiet"]) == 2
    assert f"config field '{key}'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.json"]


def test_largest_branch_cap_trains_and_evaluates(tmp_path, data_dir):
    # a checkpoint of the largest branch cap a config takes loads in eval
    doc = dict(TRAIN, dataset_path=str(data_dir), epochs=1, branch_max=SIZE_LIMIT)
    cfg = write_json(tmp_path / "train.json", doc)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert main(["eval", "--checkpoint", str(out / "model.dvrg"), "--dataset", str(data_dir),
                 "--out", str(out), "--quiet"]) == 0
    assert load_checkpoint(out / "model.dvrg").branch_max == SIZE_LIMIT


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json", {"model_family": "ensemble",
                                             "epochs": 0})
    assert main(["train", "--config", cfg, "--quiet"]) == 2
    assert "epochs" in capsys.readouterr().err


@pytest.mark.parametrize("family,key,value", [
    ("ensemble", "pool_op", "max"), ("dual_branch", "diversity_tap", "all")])
def test_other_family_key_exits_2(tmp_path, data_dir, capsys, family, key, value):
    doc = {"model_family": family, "class_count": 3, "epochs": 1, "batch_size": 8,
           "dataset_path": str(data_dir), key: value}
    cfg = write_json(tmp_path / "train.json", doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"'{key}': only meaningful for model_family" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unreadable_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["train", "--config", str(missing), "--quiet"]) == 2
    not_json = tmp_path / "x.json"
    not_json.write_text("{broken")
    assert main(["train", "--config", str(not_json), "--quiet"]) == 2
    not_object = tmp_path / "y.json"
    not_object.write_text("[1, 2]")
    assert main(["gen-data", "--config", str(not_object), "--quiet"]) == 2


def test_missing_dataset_exits_2(tmp_path, capsys):
    doc = dict(TRAIN, dataset_path=str(tmp_path / "absent"))
    cfg = write_json(tmp_path / "train.json", doc)
    assert main(["train", "--config", cfg, "--quiet"]) == 2
    assert "dataset" in capsys.readouterr().err


def test_corrupt_dataset_exits_2(tmp_path, data_dir, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "train.dvds").write_bytes(b"DVDSgarbage")
    (broken / "test.dvds").write_bytes((data_dir / "test.dvds").read_bytes())
    doc = dict(TRAIN, dataset_path=str(broken))
    cfg = write_json(tmp_path / "train.json", doc)
    assert main(["train", "--config", cfg, "--quiet"]) == 2


def no_model(*args, **kwargs):
    raise AssertionError("a model was built")


@pytest.fixture
def empty_test_split(tmp_path):
    # every 5th sample of a class goes to test, so 4 per class leave it empty
    cfg = write_json(tmp_path / "gen.json", dict(GEN, samples_per_class=4))
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "data"), "--quiet"]) == 0
    assert len(load_dataset(tmp_path / "data" / "test.dvds")) == 0
    return tmp_path / "data"


def test_empty_split_exits_2_before_training(tmp_path, empty_test_split, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_build_model", no_model)
    cfg = write_json(tmp_path / "train.json", dict(TRAIN, dataset_path=str(empty_test_split)))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"{empty_test_split / 'test.dvds'} holds no samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_rejects_empty_dataset(tmp_path, empty_test_split, train_out, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_checkpoint", no_model)
    code = main(["eval", "--checkpoint", str(train_out / "model.dvrg"),
                 "--dataset", str(empty_test_split), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert f"{empty_test_split / 'test.dvds'} holds no samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_corrupt_checkpoint_exits_2(tmp_path, data_dir, capsys):
    bad = tmp_path / "bad.dvrg"
    bad.write_bytes(b"DVRG" + b"\x00" * 10)
    assert main(["eval", "--checkpoint", str(bad), "--dataset", str(data_dir),
                 "--out", str(tmp_path), "--quiet"]) == 2


def test_non_finite_loss_exits_3(tmp_path, data_dir, capsys):
    # one enormous step overflows the next forward pass
    doc = dict(TRAIN, dataset_path=str(data_dir), learning_rate=1e200,
               epochs=2, branch_max=1)
    cfg = write_json(tmp_path / "train.json", doc)
    with np.errstate(all="ignore"):
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_readme_cli_section_lists_exactly_the_options():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    parser = _parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    offered = set()
    for name, command in commands.items():
        options = {o for a in command._actions if a.help != argparse.SUPPRESS
                   for o in a.option_strings if o.startswith("--") and o != "--help"}
        usage = re.search(rf"^divreg {name} +(.*)$", section, re.MULTILINE).group(1)
        assert set(re.findall(r"--[a-z-]+", usage)) == options, name
        offered |= options
    assert set(re.findall(r"--[a-z-]+", section)) <= offered


def test_readme_cli_section_names_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"[`\"]([a-z_]+)[`\"]", section))
    # the two families' echoes cover every key, "lambda" included
    experiment = {key for family in ("ensemble", "dual_branch")
                  for key in ExperimentConfig(family).to_dict()}
    assert "lambda" in experiment
    assert sorted(experiment - named) == []
    assert sorted({f.name for f in fields(GeneratorConfig)} - named) == []
