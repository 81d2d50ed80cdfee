"""Model files: every header key of a saved UniMVT model fails loudly, naming
the key, when it is missing, corrupt, non-finite or out of range; a corrupt
parameter and an undecodable file fail loudly too."""

import re

import numpy as np
import pytest

from unimvt import htenet as ht
from unimvt.config import ExperimentConfig, config_to_flat, default_config
from unimvt.errors import ConfigError

HEADER_KEYS = {
    "unimvt": ["kind", "input_dim", "t_min", "t_max", *config_to_flat(default_config())],
}


def save(path):
    ht.save_model(ht.build_model(ExperimentConfig(), input_dim=3, t_min=1.0, t_max=2.0), path)
    return path.read_text().splitlines()


@pytest.mark.parametrize("kind", HEADER_KEYS)
def test_header_key_lists_cover_the_saved_files(tmp_path, kind):
    lines = save(tmp_path / "model.txt")
    keys = [line.partition("=")[0] for line in lines if not line.startswith("param.")]
    assert keys == HEADER_KEYS[kind]
    ht.load_model(tmp_path / "model.txt")


@pytest.mark.parametrize("kind,key", [(kind, key) for kind, keys in HEADER_KEYS.items()
                                      for key in keys])
def test_missing_or_corrupt_header_key_is_named(tmp_path, kind, key):
    path = tmp_path / "model.txt"
    others = [line for line in save(path) if not line.startswith(f"{key}=")]
    for replacement in ([], [f"{key}=abc"], [f"{key}=nan"], [f"{key}=inf"], [f"{key}=-1"]):
        path.write_text("\n".join(others + replacement) + "\n")
        with pytest.raises(ConfigError, match=re.escape(key)):
            ht.load_model(path)


def test_corrupt_parameter_is_named(tmp_path):
    path = tmp_path / "model.txt"
    lines = save(path)
    name = "param.heads.l1.W"  # the two heads' 16 x 1 output weights, stacked
    others = [line for line in lines if not line.startswith(f"{name}=")]
    assert len(others) == len(lines) - 1
    values = ["0.5"] * 31
    for replacement in ([], [f"{name}="], [f"{name}=3 2 16 1 0.5"], [f"{name}=3 2 16 abc"],
                        [f"{name}=3 2 1 16 " + " ".join(["0.5"] * 32)],
                        [f"{name}=3 2 16 1 " + " ".join(values + ["nan"])],
                        [f"{name}=3 2 16 1 " + " ".join(["inf"] + values)]):
        edited = others + replacement
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(ConfigError, match=re.escape(name)):
            ht.load_model(path)


def test_file_with_the_deleted_ablation_keys_is_refused(tmp_path):
    # files saved before ablate.xnet and ablate.treat_tower were deleted carry
    # their header lines but no loss.* or train.* ones, so the first missing
    # key is named; with every key present, the first deleted one is
    path = tmp_path / "model.txt"
    lines = save(path) + ["ablate.xnet=False", "ablate.treat_tower=False"]
    old = [line for line in lines if not line.startswith(("loss.", "train."))]
    for edited, named in ((old, "model file is missing 'loss.lambda_base'"),
                          (lines, "model file has 'ablate.xnet', which the network has no slot for")):
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}$"):
            ht.load_model(path)


@pytest.mark.parametrize("line", ["net.tower_hiden=4,4", "loss.lambda=0.5", "kinds=unimvt",
                                  "dcr.__doc__=x"])
def test_stray_header_line_is_named(tmp_path, line):
    # a mistyped key would otherwise leave its key at the default unnoticed
    path = tmp_path / "model.txt"
    path.write_text("\n".join(save(path) + [line]) + "\n")
    with pytest.raises(ConfigError, match=re.escape(repr(line.partition("=")[0]))):
        ht.load_model(path)


def test_stray_parameter_line_is_named(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("\n".join(save(path) + ["param.bogus=1 1 0.5"]) + "\n")
    with pytest.raises(ConfigError, match=re.escape("param.bogus")):
        ht.load_model(path)


@pytest.mark.parametrize("line", ["t_max=9.5", "param.heads.l1.W=3 2 16 1 " + "0.5 " * 32],
                         ids=["header", "param"])
def test_repeated_key_is_named(tmp_path, line):
    path = tmp_path / "model.txt"
    lines = save(path)
    path.write_text("\n".join(lines + [line]) + "\n")
    key = line.partition("=")[0]
    with pytest.raises(ConfigError, match=re.escape(f"{path}:{len(lines) + 1}: repeated key {key!r}")):
        ht.load_model(path)


def test_per_expert_model_file_names_the_missing_stacked_tensor(tmp_path):
    # files that stored one tensor per DCR expert lack the stacked dcr.l{i} tensors
    path = tmp_path / "model.txt"
    lines = [line for line in save(path) if not line.startswith("param.dcr.l")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=re.escape("param.dcr.l0.W")):
        ht.load_model(path)


# each stacked tensor of the HTE net -> the per-tower or per-head tensors its slices were
PER_SLICE_NAMES = {"towers": ("base_tower", "treat_tower"), "heads": ("intensity_head", "uplift_head")}


def per_slice_lines(lines):
    """lines as a file saved when every tower and head was a tensor of its
    own holds them: each stacked group's lines give way, where its first one
    stood, to every layer of its slice 0 under that slice's name, then every
    layer of slice 1, each bias a vector."""
    out, groups = [], {}  # a group -> the lines of each of its slices
    for line in lines:
        key, _, raw = line.partition("=")
        group, _, rest = key.removeprefix("param.").partition(".")
        if not key.startswith("param.") or group not in PER_SLICE_NAMES:
            out.append(line)
            continue
        if group not in groups:
            groups[group] = ([], [])
            out.append(groups[group])
        fields = raw.split()
        ndim = int(fields[0])
        values = np.array(fields[1 + ndim:]).reshape([int(d) for d in fields[1:1 + ndim]])
        for name, part, slice_lines in zip(PER_SLICE_NAMES[group], values, groups[group]):
            part = part.reshape(-1) if rest.endswith(".b") else part
            dims = " ".join(str(d) for d in part.shape)
            slice_lines.append(f"param.{name}.{rest}={part.ndim} {dims} {' '.join(part.reshape(-1))}")
    return [line for entry in out for line in ([entry] if isinstance(entry, str) else
                                               entry[0] + entry[1])]


@pytest.mark.parametrize("ablate_dcr", [False, True], ids=["default", "ablate.dcr"])
def test_per_tower_model_file_names_the_missing_stacked_tensor(tmp_path, ablate_dcr):
    # files saved before the towers and heads were stacked hold one tensor
    # per tower and head; the first stacked tensor they lack is named, and
    # so is the first per-tower line, which the network has no slot for
    path = tmp_path / "model.txt"
    cfg = ExperimentConfig()
    cfg.ablate.dcr = ablate_dcr
    ht.save_model(ht.build_model(cfg, input_dim=3, t_min=1.0, t_max=2.0), path)
    lines = per_slice_lines(path.read_text().splitlines())
    assert sum(line.startswith("param.") for line in lines) == (26 if ablate_dcr else 28)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="^" + re.escape(
            "model file is missing 'param.towers.l0.W'; model file has "
            "'param.base_tower.l0.W', which the network has no slot for") + "$"):
        ht.load_model(path)


@pytest.mark.parametrize("bad", [-1.0, 10**400], ids=["negative", "beyond the float range"])
def test_save_model_refuses_a_config_that_load_model_would_and_writes_no_file(tmp_path, bad):
    # set after build_model, as a caller may; the file would not load back
    model = ht.build_model(ExperimentConfig(), input_dim=3, t_min=1.0, t_max=2.0)
    model.cfg.loss.lambda_t = bad
    path = tmp_path / "model.txt"
    with pytest.raises(ConfigError, match=re.escape("loss.lambda_t")):
        ht.save_model(model, path)
    assert not path.exists()


def per_gate_lines(lines, bank, gates):
    """lines as a file saved when every gate was a tensor of its own holds
    them: the bank's W and b lines leave, and each gate's equal share of the
    bank's columns is appended as gates[i]'s lines."""
    kv = dict(line.partition("=")[::2] for line in lines)
    out = [line for line in lines if not line.startswith(f"param.{bank}.")]
    widths = [int(kv[f"param.{bank}.b"].split()[1]) // len(gates)] * len(gates)
    for suffix in ("W", "b"):
        fields = kv[f"param.{bank}.{suffix}"].split()
        ndim = int(fields[0])
        values = np.array(fields[1 + ndim:]).reshape([int(d) for d in fields[1:1 + ndim]])
        start = 0
        for gate, width in zip(gates, widths):
            part = values[..., start:start + width]
            start += width
            dims = " ".join(str(d) for d in part.shape)
            out.append(f"param.{gate}.{suffix}={part.ndim} {dims} {' '.join(part.reshape(-1))}")
    return out


@pytest.mark.parametrize("ablate_dcr", [False, True], ids=["default", "ablate.dcr"])
def test_per_gate_model_file_names_its_stray_gate_line(tmp_path, ablate_dcr):
    # files saved before the gate banks hold dcr.gate0, dcr.gate_t and
    # ta_gate{i} tensors; the first of them in file order is named
    path = tmp_path / "model.txt"
    cfg = ExperimentConfig()
    cfg.ablate.dcr = ablate_dcr
    ht.save_model(ht.build_model(cfg, input_dim=3, t_min=1.0, t_max=2.0), path)
    lines = path.read_text().splitlines()
    if not ablate_dcr:
        lines = per_gate_lines(lines, "dcr.gates", ["dcr.gate0.l0", "dcr.gate_t.l0"])
    lines = per_gate_lines(lines, "ta_gates", ["ta_gate0", "ta_gate1"])  # after the DCR's
    path.write_text("\n".join(lines) + "\n")
    stray = "param.ta_gate0.W" if ablate_dcr else "param.dcr.gate0.l0.W"
    with pytest.raises(ConfigError, match=re.escape(f"model file has {stray!r}, which the network "
                                                    "has no slot for")):
        ht.load_model(path)


def test_undecodable_model_file_is_named(tmp_path):
    path = tmp_path / "model.txt"
    save(path)
    path.write_bytes(path.read_bytes().replace(b"kind=unimvt", b"kind=unimvt\xff"))
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        ht.load_model(path)
