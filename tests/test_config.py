"""Tests for the flat key=value bridge of the experiment configuration."""

import re

import pytest

from unimvt.config import apply_overrides, config_to_flat, default_config
from unimvt.errors import ConfigError


@pytest.mark.parametrize("key, raw", [("train.epochs", "1.5"), ("train.lr", "abc"),
                                      ("net.tower_hidden", "a,b")])
def test_malformed_number_names_the_key_and_the_value(key, raw):
    with pytest.raises(ConfigError, match=re.escape(key) + ".*" + re.escape(repr(raw))):
        apply_overrides(default_config(), {key: raw})


def test_overrides_round_trip_through_the_flat_form():
    cfg = apply_overrides(default_config(), {"train.epochs": "3", "train.lr": "0.01",
                                             "net.tower_hidden": "8,4", "ablate.dcr": "yes"})
    assert (cfg.train.epochs, cfg.train.lr, cfg.net.tower_hidden, cfg.ablate.dcr) == (3, 0.01, (8, 4), True)
    assert apply_overrides(default_config(), config_to_flat(cfg)) == cfg
