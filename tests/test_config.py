"""Tests for the flat key=value bridge of the experiment configuration and
for ``validate``, the one check of every key."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unimvt.config import _real, apply_overrides, config_to_flat, default_config, validate
from unimvt.errors import ConfigError

# bad values of each key kind, the kind read off the default value
BAD_VALUES = {bool: [1, 0, None, "yes"],
              tuple: [None, "32", 32, (32, True), (32, 0), (32, 1.5)],
              int: [None, "2", True, 1.5, 2.0, -1],
              float: [None, "0.1", True, math.nan, math.inf, -math.inf, -1.0, 10**400]}


def _bad_settings():
    for key in config_to_flat(default_config()):
        section, name = key.split(".")
        kind = type(getattr(getattr(default_config(), section), name))
        for bad in BAD_VALUES[kind]:
            yield key, bad


def test_the_default_config_is_valid():
    validate(default_config(), 8)


@pytest.mark.parametrize("key, bad", list(_bad_settings()),
                         ids=lambda v: "10**400" if v == 10**400 else None)
def test_validate_names_each_key_set_to_a_bad_value(key, bad):
    cfg = default_config()
    section, name = key.split(".")
    setattr(getattr(cfg, section), name, bad)
    with pytest.raises(ConfigError, match=re.escape(key)):
        validate(cfg, 8)


@pytest.mark.parametrize("key, value", [("train.seed", 0), ("train.lr", 5), ("loss.lambda_o", 0),
                                        ("train.lr", np.float32(1e-3)),
                                        ("net.tower_hidden", [4, 2]), ("net.tower_hidden", ())])
def test_validate_takes_the_edge_of_each_range(key, value):
    cfg = default_config()
    section, name = key.split(".")
    setattr(getattr(cfg, section), name, value)
    validate(cfg, 8)


# _real on the edges of a float knob: (value, least, above, the whole message);
# an exact float takes a shorter path than a numpy scalar or an int, and both
# give the same message
REAL_EDGES = [
    (math.nan, None, False, "k must be finite, got nan"),
    (math.inf, None, False, "k must be finite, got inf"),
    (-math.inf, None, False, "k must be finite, got -inf"),
    (math.nan, 0.0, True, "k must be finite, got nan"),
    (-math.inf, 0.0, False, "k must be finite, got -inf"),
    (0.0, 0.0, True, "k must be above 0.0, got 0.0"),
    (-0.0, 0.0, True, "k must be above 0.0, got -0.0"),
    (-1e-300, 0.0, False, "k must be at least 0.0, got -1e-300"),
    (np.float64(math.nan), None, False, "k must be finite, got nan"),
    (np.float64(0.0), 0.0, True, "k must be above 0.0, got 0.0"),
    (np.float32(-math.inf), None, False, "k must be finite, got -inf"),
    (np.float32(0.0), 0.0, True, "k must be above 0.0, got 0.0"),
    (0, 0.0, True, "k must be above 0.0, got 0"),
    (True, None, False, "k must be a number, got True"),
    ("1.0", None, False, "k must be a number, got '1.0'"),
    pytest.param(10**400, None, False, "k must lie in the float range, got an integer beyond it",
                 id="10**400"),
    pytest.param(Fraction(10**400), None, False, "k must lie in the float range, got Fraction "
                 "beyond it", id="Fraction(10**400)"),
    pytest.param(Fraction(-10**400), 0.0, False, "k must lie in the float range, got Fraction "
                 "beyond it", id="Fraction(-10**400)"),
]


@pytest.mark.parametrize("value, least, above, message", REAL_EDGES)
def test_real_says_why_an_edge_value_is_refused(value, least, above, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        _real(value, "k", least, above=above)


@pytest.mark.parametrize("value, above", [(0.0, False), (5e-324, True), (np.float64(0.0), False),
                                          (np.float32(1e-3), True), (0, False), (10**300, True),
                                          (Fraction(1, 3), True), (Fraction(10**300), True)])
def test_real_takes_the_bound_itself_and_values_beyond_it(value, above):
    _real(value, "k", 0.0, above=above)


@pytest.mark.parametrize("input_dim", [0, True, 8.0, None])
def test_validate_names_a_bad_input_width(input_dim):
    with pytest.raises(ConfigError, match="input_dim"):
        validate(default_config(), input_dim)


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


@pytest.mark.parametrize("key", ["dcr.__doc__", "dcr.__class__", "train.__dict__", "dcr.__init__",
                                 "dcr", "dcr.", "nope.hidden", "dcr.hidden.x", "ablate.xnet"])
def test_apply_overrides_refuses_any_name_but_a_config_key(key):
    with pytest.raises(ConfigError, match=f"^unknown config key {re.escape(repr(key))}$"):
        apply_overrides(default_config(), {key: "1"})


def test_an_override_parses_by_the_default_kind_not_the_current_value():
    cfg = default_config()
    cfg.train.lr, cfg.net.tower_hidden = 5, [8, 8]  # an int and a list, both valid
    apply_overrides(cfg, {"train.lr": "0.01", "net.tower_hidden": "4"})
    assert (cfg.train.lr, cfg.net.tower_hidden) == (0.01, (4,))


WIDTHS = st.lists(st.integers(1, 512), max_size=3)
# each kind's values, as a trainer may hold them: a width list or tuple,
# possibly empty; a Python or numpy integer; a float, a float32 or an integer
VALUES = {bool: st.booleans(),
          tuple: WIDTHS | WIDTHS.map(tuple),
          int: st.integers(0, 10**12) | st.integers(0, 10**12).map(np.int64),
          float: (st.floats(0.0, allow_infinity=False)
                  | st.floats(0.0, allow_infinity=False, width=32).map(np.float32)
                  | st.integers(0, 10**30))}


@st.composite
def configs(draw):
    cfg = default_config()
    for key in config_to_flat(cfg):
        section, name = key.split(".")
        obj = getattr(cfg, section)
        setattr(obj, name, draw(VALUES[type(getattr(obj, name))]))
    return cfg


@given(cfg=configs())
def test_the_flat_form_reads_back_to_itself(cfg):
    flat = config_to_flat(cfg)
    assert config_to_flat(apply_overrides(default_config(), flat)) == flat
