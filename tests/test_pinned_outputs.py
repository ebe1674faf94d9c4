"""Training outputs pinned to their sha256.

Same config and seed give byte-identical `metrics.csv` and `model.dvrg`,
and a change that only restructures or speeds up code must not move
them. The runs are those of `BENCH_8.json`'s `byte_identity` (nine small
runs over both families and their switches, and the criterion-7 growth to
15 branches at tap `last` and `all`). `train_acc` counts the training
steps' own predictions since it stopped coming from a second pass over the
train split; that moved only its column, and the digest of `metrics.csv`
without it is the one recorded before the change.
"""

import hashlib
import json

import numpy as np
import pytest

from divreg.cli import main
from divreg.config import ExperimentConfig
from divreg.data import Dataset
from divreg.models import build_ensemble
from divreg.training import train

BASE = {"epochs": 3, "batch_size": 8, "learning_rate": 0.02, "seed": 1, "class_count": 4}
ENSEMBLE = {**BASE, "model_family": "ensemble", "branch_max": 3, "branch_add_epochs": 1}
DUAL = {**BASE, "model_family": "dual_branch"}

# name -> (config, sha256 of metrics.csv, of metrics.csv without its train_acc column,
#          of model.dvrg)
RUNS = {
    "ensemble_w1": ({**ENSEMBLE, "diversity_weight": 1.0},
                    "5239a3d855e1875fc0604d57191a1d853c04d7c6b560b922e298359944f2f3ab",
                    "94a22cfaa1a188c5c114f798b60b6bd66db453a7e18871dc99d506bdcc13da3b",
                    "17f0f9eef28258b7055a42331291b9f48b1e3c9d9e064f15bc4457a5bcac0436"),
    "ensemble_w0": ({**ENSEMBLE, "diversity_weight": 0.0},
                    "cfe2c223d5a4037ea426be1564d3a1c480eeb4715ef4148bb7d945cc65a0d7a5",
                    "e0d18f5b0bf4203eeebf9a7d4106549bb8db69d3433ac652276bc3a4d3587a01",
                    "850d1ec843593e4e80f660d5ee447c59274547c42dac7e860f9a2203f185979d"),
    "ensemble_tap_all_normalized": (
        {**ENSEMBLE, "diversity_tap": "all", "normalize_features": True},
        "8c842676b5d2650021366506bdc9104d68de81b72a5d6dacfe23838a808b4ca9",
        "701c96130aee1c7cb3512971488a1ac8871c6fcad92cc4004fecb45119666b38",
        "0be25f107239adffa6c7ec1d8f219cf0faba88cf6839e2f380430812cb99cba5"),
    "ensemble_no_channel": ({**ENSEMBLE, "diversity_channel": False},
                            "6757e2391b96a6316e34e9375a2507e96bff9e9308e44e6ebace383191c939ef",
                            "1484de2ca0778681ea9b4126cdbd05292200a3d190dfd425ad5e4656c6489e43",
                            "d76120bfb6141239f5d448474e2a1fb6b7bdd6af5fc4805e8559e3e132ecb7ba"),
    "ensemble_grow_to_8": (
        {**ENSEMBLE, "epochs": 8, "branch_max": 8, "diversity_tap": "all"},
        "f6a3e97dc7786efc205404cc8c6aa3bf49f126e6ec7f80df77fcca224eaec65f",
        "3b74a41761513e7d92ed86049b03c2e082333d7e14707a8ade51d51c9ae0e278",
        "b4d02f50921558b9cca084942eb491fb474f0d3fe31a43255922ecc99bf9cf77"),
    "dual_w1": ({**DUAL, "diversity_weight": 1.0},
                "2b6f86867228d214ba419f4ebf38e3a4e4f8625d9a7891f64c0d53425bc56598",
                "714f069dac238836fe80c16202c52f4422755f05c070a4f4f5eb332c83a5e090",
                "3054e3c0aa3720a2bdf3a46209b79e8dc7561e27a2f5831877d65646619f5ff5"),
    "dual_w0": ({**DUAL, "diversity_weight": 0.0},
                "4fdbfc161da9d11c02538235b762edbc218f5eff62830e84b1565be7477ff619",
                "5986d1dc5eb001dc10e550b2f62e1700dffc66e0dd6df5c3b27f257ee428ecd1",
                "411a171ea139bc883187d6c418c10df9c1956f8fee628e676de3cf24b21811f1"),
    "dual_max_pool_normalized": (
        {**DUAL, "pool_op": "max", "normalize_features": True},
        "c9d9787298513110759a76556a029df6260013b8b855abd478ec80ee572da98a",
        "a0e92d9bc24c19a6c2ec4ce5371fe05dd9d093ef7085355965bddb8af11134e0",
        "8d70ac255907efd6d0e92d54171d652872f176ed541ff94d5a31dd37913df451"),
    "dual_no_spatial_gamma": ({**DUAL, "diversity_spatial": False, "gamma": 0.3},
                              "0063c7a37b58066a7eccb9a2579729fe600288fb7eeb8ac864ec55694c2e9594",
                              "7fd7ef4af322979e9e197c387e5c118a7bd4059fd689073ac5f5c2480b8f2fe8",
                              "25c1c5f5038ddb18fda0a2e95bc50e3e23dbf6c1d1f2a65a52608846f3f767f1"),
}

# diversity tap -> sha256 over the 274 parameter arrays in `parameters()` order
CRITERION7 = {
    "last": "3b4d3c218b251a25055cc28811012fa0869c97d69c5426f6af33496c5b14f8b3",
    "all": "c49d6a88571c2e89626ba076fec43235bee822049acd9c282c4821d0fe84d464",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def without_train_acc(metrics: str) -> bytes:
    rows = [line.split(",") for line in metrics.splitlines()]
    col = rows[0].index("train_acc")
    return "".join(",".join(r[:col] + r[col + 1:]) + "\n" for r in rows).encode()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    (root / "gen.json").write_text(json.dumps({"class_count": 4, "samples_per_class": 10,
                                               "seed": 3}))
    assert main(["gen-data", "--config", str(root / "gen.json"), "--out", str(root / "data"),
                 "--quiet"]) == 0
    return root / "data"


@pytest.mark.parametrize("name", RUNS)
def test_train_outputs_match_their_pinned_digests(name, data_dir, tmp_path):
    cfg, metrics_digest, kept_columns_digest, model_digest = RUNS[name]
    (tmp_path / "cfg.json").write_text(json.dumps({**cfg, "dataset_path": str(data_dir)}))
    assert main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run"),
                 "--quiet"]) == 0
    metrics = tmp_path / "run" / "metrics.csv"
    assert hashlib.sha256(without_train_acc(metrics.read_text())).hexdigest() == kept_columns_digest
    assert sha256(metrics) == metrics_digest
    assert sha256(tmp_path / "run" / "model.dvrg") == model_digest


@pytest.mark.parametrize("tap", CRITERION7)
def test_criterion7_growth_weights_match_their_pinned_digests(tap):
    # criterion 7's inputs: growth to 15 branches, one add per epoch
    rng = np.random.default_rng(0xC7)
    train_set = Dataset(rng.uniform(0, 1, (60, 1, 8, 8)), np.arange(60, dtype=np.int64) % 3, 3)
    test_set = Dataset(rng.uniform(0, 1, (12, 1, 8, 8)), np.arange(12, dtype=np.int64) % 3, 3)
    cfg = ExperimentConfig(model_family="ensemble", class_count=3, branch_max=15,
                           branch_add_epochs=1, epochs=15, batch_size=12, seed=0,
                           diversity_tap=tap)
    model = build_ensemble(3, branch_max=15, seed=0, input_size=8)
    train(model, train_set, test_set, cfg)
    params = model.parameters()
    h = hashlib.sha256()
    for p in params:
        h.update(np.ascontiguousarray(p.data).tobytes())
    assert len(params) == 274
    assert h.hexdigest() == CRITERION7[tap]
