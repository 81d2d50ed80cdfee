"""Model files: every header key of a saved UniMVT model and of a saved
T-Learner fails loudly, naming the key, when it is missing or corrupt."""

import re

import numpy as np
import pytest

from unimvt import autodiff as ad
from unimvt import baselines as bl
from unimvt import htenet as ht
from unimvt.config import ExperimentConfig
from unimvt.errors import ConfigError

HEADER_KEYS = {
    "unimvt": ["kind", "input_dim", "t_min", "t_max", "dcr.experts_per_group", "dcr.hidden",
               "dcr.out_dim", "net.tower_hidden", "net.head_hidden",
               "ablate.dcr", "ablate.xnet", "ablate.treat_tower"],
    "tlearner": ["kind", "t_min", "t_max", "dims.tlearner.control", "dims.tlearner.treated"],
}
LOADERS = {"unimvt": ht.load_model, "tlearner": bl.load_baseline}


def save(kind, path):
    rng = np.random.default_rng(0)
    if kind == "unimvt":
        ht.save_model(ht.build_model(ExperimentConfig(), input_dim=3, t_min=1.0, t_max=2.0), path)
    else:
        control = ad.init_mlp(rng, "tlearner.control", (3, 4, 1), out_activation="sigmoid")
        treated = ad.init_mlp(rng, "tlearner.treated", (4, 4, 1), out_activation="sigmoid")
        bl.save_baseline(bl.TLearnerModel(control, treated, 1.0, 2.0), path)
    return path.read_text().splitlines()


@pytest.mark.parametrize("kind", HEADER_KEYS)
def test_header_key_lists_cover_the_saved_files(tmp_path, kind):
    lines = save(kind, tmp_path / "model.txt")
    keys = [line.partition("=")[0] for line in lines if not line.startswith("param.")]
    assert keys == HEADER_KEYS[kind]
    LOADERS[kind](tmp_path / "model.txt")


@pytest.mark.parametrize("kind,key", [(kind, key) for kind, keys in HEADER_KEYS.items()
                                      for key in keys])
def test_missing_or_corrupt_header_key_is_named(tmp_path, kind, key):
    path = tmp_path / "model.txt"
    others = [line for line in save(kind, path) if not line.startswith(f"{key}=")]
    for replacement in ([], [f"{key}=abc"]):
        path.write_text("\n".join(others + replacement) + "\n")
        with pytest.raises(ConfigError, match=re.escape(key)):
            LOADERS[kind](path)


def test_corrupt_parameter_is_named(tmp_path):
    path = tmp_path / "model.txt"
    lines = save("tlearner", path)
    name = "param.tlearner.treated.l0.W"  # a 4 x 4 matrix
    others = [line for line in lines if not line.startswith(f"{name}=")]
    assert len(others) == len(lines) - 1
    for replacement in ([], [f"{name}="], [f"{name}=2 4 4 0.5"], [f"{name}=2 4 abc"],
                        [f"{name}=2 2 8 " + " ".join(["0.5"] * 16)]):
        edited = others + replacement
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(ConfigError, match=re.escape(name)):
            bl.load_baseline(path)


def test_per_expert_model_file_names_the_missing_stacked_tensor(tmp_path):
    # files that stored one tensor per DCR expert lack the stacked dcr.l{i} tensors
    path = tmp_path / "model.txt"
    lines = [line for line in save("unimvt", path) if not line.startswith("param.dcr.l")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=re.escape("param.dcr.l0.W")):
        ht.load_model(path)
