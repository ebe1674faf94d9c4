"""Training outputs pinned to their sha256.

Same config and seed give byte-identical `metrics.csv` and `model.dvrg`,
and a change that only restructures or speeds up code must not move
them. The digests are those recorded in `BENCH_8.json`'s `byte_identity`
(nine small runs over both families and their switches, and the
criterion-7 growth to 15 branches at tap `last` and `all`).
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

# name -> (config, sha256 of metrics.csv, sha256 of model.dvrg)
RUNS = {
    "ensemble_w1": ({**ENSEMBLE, "diversity_weight": 1.0},
                    "56de00d13a4ccce3e4b7ddcb107d39b7b648b31d81dc500c1123eb5daa59123c",
                    "17f0f9eef28258b7055a42331291b9f48b1e3c9d9e064f15bc4457a5bcac0436"),
    "ensemble_w0": ({**ENSEMBLE, "diversity_weight": 0.0},
                    "dac60f82e5b889ad61cb8d8cd43468563ad9a9142f237872bab5bdea4a30bfbf",
                    "850d1ec843593e4e80f660d5ee447c59274547c42dac7e860f9a2203f185979d"),
    "ensemble_tap_all_normalized": (
        {**ENSEMBLE, "diversity_tap": "all", "normalize_features": True},
        "5893b8c6585f8a1a34352bb8aeb25e0231cec0d728110f5a52d5e533ae9dc03d",
        "0be25f107239adffa6c7ec1d8f219cf0faba88cf6839e2f380430812cb99cba5"),
    "ensemble_no_channel": ({**ENSEMBLE, "diversity_channel": False},
                            "67f683af13124689fc8521c2e7865a5b9298be38d4a72d0a31ea9dacd2f1a5f2",
                            "d76120bfb6141239f5d448474e2a1fb6b7bdd6af5fc4805e8559e3e132ecb7ba"),
    "ensemble_grow_to_8": (
        {**ENSEMBLE, "epochs": 8, "branch_max": 8, "diversity_tap": "all"},
        "2c78452cd974d7f18bc2ecbc4bc4536f8f89ab695711d55bd1fdb357c8a1934e",
        "b4d02f50921558b9cca084942eb491fb474f0d3fe31a43255922ecc99bf9cf77"),
    "dual_w1": ({**DUAL, "diversity_weight": 1.0},
                "3964d3ffdb0d89f386cca57c62a9ba527b6f695b5de75f6a34f4b01c35f0b6a5",
                "3054e3c0aa3720a2bdf3a46209b79e8dc7561e27a2f5831877d65646619f5ff5"),
    "dual_w0": ({**DUAL, "diversity_weight": 0.0},
                "bc0fb10f24f09ce5424d4a380e3ddfa1c025c61acfb038f5de2a8068734364bf",
                "411a171ea139bc883187d6c418c10df9c1956f8fee628e676de3cf24b21811f1"),
    "dual_max_pool_normalized": (
        {**DUAL, "pool_op": "max", "normalize_features": True},
        "c9d9787298513110759a76556a029df6260013b8b855abd478ec80ee572da98a",
        "8d70ac255907efd6d0e92d54171d652872f176ed541ff94d5a31dd37913df451"),
    "dual_no_spatial_gamma": ({**DUAL, "diversity_spatial": False, "gamma": 0.3},
                              "adbc25f6bf887bfbfe3f89b0d9279eb4ecc36e039ec024d29647cc53770b603f",
                              "25c1c5f5038ddb18fda0a2e95bc50e3e23dbf6c1d1f2a65a52608846f3f767f1"),
}

# diversity tap -> sha256 over the 274 parameter arrays in `parameters()` order
CRITERION7 = {
    "last": "3b4d3c218b251a25055cc28811012fa0869c97d69c5426f6af33496c5b14f8b3",
    "all": "c49d6a88571c2e89626ba076fec43235bee822049acd9c282c4821d0fe84d464",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    cfg, metrics_digest, model_digest = RUNS[name]
    (tmp_path / "cfg.json").write_text(json.dumps({**cfg, "dataset_path": str(data_dir)}))
    assert main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run"),
                 "--quiet"]) == 0
    assert sha256(tmp_path / "run" / "metrics.csv") == metrics_digest
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
