"""Random line and byte edits of a saved dataset CSV, of its metadata
sidecar and of a saved model file: each edited file either loads or raises
the library's own error. The draws are derandomized, so every run tries the
same edits."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from unimvt import datagen as dg
from unimvt import htenet as ht
from unimvt.config import ExperimentConfig
from unimvt.dcr import DcrConfig
from unimvt.errors import ConfigError, DataFormatError

EXAMPLES = 60

# at most three edits: enough to reach every kind of damage, and too few to
# turn a one-digit layer width into a network too large to allocate
EDITS = st.lists(st.tuples(st.sampled_from(["drop line", "repeat line", "swap lines",
                                            "set byte", "insert byte", "drop byte"]),
                           st.integers(0, 1 << 20), st.integers(0, 1 << 20),
                           st.binary(min_size=1, max_size=1)),
                 min_size=1, max_size=3)


def edit(data: bytes, edits) -> bytes:
    for op, i, j, byte in edits:
        lines = data.splitlines(keepends=True)
        if "line" in op:
            if not lines:
                continue
            i, j = i % len(lines), j % len(lines)
            if op == "drop line":
                del lines[i]
            elif op == "repeat line":
                lines.insert(i, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            data = b"".join(lines)
        else:
            i = i % (len(data) + 1)
            if op == "set byte":
                data = data[:i] + byte + data[i + 1:]
            elif op == "insert byte":
                data = data[:i] + byte + data[i:]
            else:
                data = data[:i] + data[i + 1:]
    return data


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    root = tmp_path_factory.mktemp("saved")
    train, _ = dg.generate(replace(dg.PRESETS["syn1"], n_train=6, n_test=4, seed=3))
    dg.save_csv(train, root / "data.csv")
    cfg = ExperimentConfig(dcr=DcrConfig(experts_per_group=1, hidden=6, out_dim=4))
    cfg.net.tower_hidden = (8, 8)
    cfg.net.head_hidden = 4
    ht.save_model(ht.build_model(cfg, input_dim=3, t_min=1.0, t_max=2.0), root / "model.txt")
    return root


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(edits=EDITS)
def test_edited_csv_loads_or_raises_data_format_error(saved, tmp_path_factory, edits):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(edit((saved / "data.csv").read_bytes(), edits))
    dg.meta_path(path).write_bytes(dg.meta_path(saved / "data.csv").read_bytes())
    try:
        dg.load_csv(path)
    except DataFormatError:
        pass


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(edits=EDITS)
@example(edits=[("set byte", 9284, 0, b"\x00")])  # once crashed the split check
def test_edited_sidecar_loads_or_raises_data_format_error(saved, tmp_path_factory, edits):
    path = tmp_path_factory.mktemp("sidecar") / "data.csv"
    path.write_bytes((saved / "data.csv").read_bytes())
    dg.meta_path(path).write_bytes(edit(dg.meta_path(saved / "data.csv").read_bytes(), edits))
    try:
        dg.load_csv(path)
    except DataFormatError:
        pass


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(edits=EDITS)
def test_edited_model_file_loads_or_raises_config_error(saved, tmp_path_factory, edits):
    path = tmp_path_factory.mktemp("model") / "model.txt"
    path.write_bytes(edit((saved / "model.txt").read_bytes(), edits))
    try:
        ht.load_model(path)
    except ConfigError:
        pass
