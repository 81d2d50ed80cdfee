"""Baseline learners: degenerate cases, determinism, uplift extraction, input checks."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from gradcheck import binary_cross_entropy, finite_diff_check, sigmoid, total
from unimvt import autodiff as ad
from unimvt import baselines as bl
from unimvt import datagen as dg
from unimvt.config import ExperimentConfig, TrainConfig
from unimvt.errors import ConfigError, DataFormatError


def quick_cfg(seed=0, epochs=3):
    cfg = ExperimentConfig(train=TrainConfig(epochs=epochs, batch=64, seed=seed))
    cfg.net.tower_hidden = (16, 16)
    return cfg


@pytest.fixture(scope="module")
def small_syn():
    spec = replace(dg.PRESETS["syn1"], n_train=1500, n_test=500, seed=33)
    return dg.generate(spec)


def all_control_dataset(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4))
    y = (rng.uniform(size=n) < expit(X[:, 0])).astype(int)
    return dg.Dataset(X, np.zeros(n, dtype=int), np.zeros(n), y)


def with_doses(ds, doses):
    """ds's rows at the given per-row doses; a row at dose 0 is a control row."""
    X, _, _, y, _, _ = dg.dataset_arrays(ds)
    return dg.Dataset(X, (doses > 0).astype(int), doses, y)


def test_slearner_matches_a_net_trained_by_hand_on_its_normalized_doses():
    ds = with_doses(all_control_dataset(), np.resize([0.0, 1.0, 0.0, 3.0], 400))
    cfg = quick_cfg(seed=4)
    model = bl.train_slearner(ds, cfg)
    X, _, t, y, _, _ = dg.dataset_arrays(ds)
    assert (model.t_min, model.t_max) == (1.0, 3.0)

    # oracle: identical net trained by hand on x and the dose min-max normalized by [1, 3]
    rng = np.random.default_rng(4)
    net = ad.init_mlp(rng, "slearner", (5, 16, 16, 1))
    inputs = np.column_stack([X, (t - 1.0) / 2.0])
    bl._fit_binary_mlp(net, inputs, y, cfg, rng)
    np.testing.assert_array_equal(model.outcome_prob(X, t), bl._mlp_predict(net, inputs))
    at_zero = np.column_stack([X, np.full(len(X), -0.5)])  # the control dose 0, normalized
    np.testing.assert_array_equal(model.base_ctr(X), bl._mlp_predict(net, at_zero))


def test_slearner_seed_reproducibility(small_syn):
    train_ds, test_ds = small_syn
    X = dg.dataset_arrays(test_ds)[0][:50]
    a = bl.train_slearner(train_ds, quick_cfg(seed=9, epochs=1))
    b = bl.train_slearner(train_ds, quick_cfg(seed=9, epochs=1))
    np.testing.assert_array_equal(a.unit_uplift_scores(X), b.unit_uplift_scores(X))


def test_slearner_predictions_reproduce_training_inputs(small_syn):
    train_ds, _ = small_syn
    model = bl.train_slearner(train_ds, quick_cfg(seed=2, epochs=1))
    X, w, t, y, _, _ = dg.dataset_arrays(train_ds)
    direct = model.outcome_prob(X[:20], t[:20])
    again = model.outcome_prob(X[:20], t[:20])
    np.testing.assert_array_equal(direct, again)


def test_tlearner_null_effect_on_duplicated_rows():
    # same covariates and labels in both arms: expected uplift is zero, so the
    # mean estimate over two training seeds should sit inside fit noise
    rng = np.random.default_rng(7)
    n = 1200
    X = rng.standard_normal((n, 4))
    y = (rng.uniform(size=n) < expit(X[:, 0])).astype(int)
    # the treated copies alternate between the doses 1 and 2, which fix the support
    ds = dg.Dataset(np.vstack([X, X]), np.repeat([0, 1], n),
                    np.concatenate([np.zeros(n), np.resize([1.0, 2.0], n)]), np.concatenate([y, y]))
    means = []
    for seed in (1, 2):
        cfg = quick_cfg(seed=seed, epochs=10)
        cfg.train.batch = 128
        means.append(bl.train_tlearner(ds, cfg).unit_uplift_scores(X).mean())
    assert abs(np.mean(means)) < 0.04


def test_tlearner_requires_both_groups():
    with pytest.raises(ConfigError, match="two distinct doses"):  # the shared support rule
        bl.train_tlearner(all_control_dataset(), quick_cfg())
    with pytest.raises(ConfigError, match="T-Learner needs control rows"):
        bl.train_tlearner(with_doses(all_control_dataset(), np.resize([1.0, 3.0], 400)),
                          quick_cfg())


def test_unit_uplift_zero_for_zeroed_final_layer(small_syn):
    train_ds, _ = small_syn
    model = bl.train_slearner(train_ds, quick_cfg(seed=0, epochs=1))
    model.net[-1].W.values[:] = 0.0
    model.net[-1].b.values[:] = 0.0
    assert model.unit_uplift_scores(np.zeros(8))[0] == 0.0  # 0.5 - 0.5


def test_unit_uplift_hand_built_sigmoid_of_t():
    # f(x, t) = sigmoid(t_normalized); with bounds [0, 1] normalization is identity
    W = np.zeros((3, 1))
    W[2, 0] = 1.0  # only the intensity feature
    net = [ad.Layer(ad.ParamTensor("s.W", W), ad.ParamTensor("s.b", np.zeros(1)))]
    model = bl.SLearnerModel(net, t_min=0.0, t_max=1.0)
    got = model.unit_uplift_scores(np.array([0.4, -1.0]))[0]
    assert got == pytest.approx(expit(1.0) - expit(0.0), abs=1e-12)
    assert got == pytest.approx(0.23105857863, abs=1e-9)


def logit_of(net, inputs):
    """The net's mlp_forward output on inputs, one tape, as a vector."""
    return ad.mlp_forward(net, inputs, ad.Tape()).value.reshape(-1)


def test_base_ctr_is_expit_of_the_net_output_bit_for_bit(small_syn):
    # the nets output logits; a learner reads them through expit itself
    train_ds, test_ds = small_syn
    X = dg.dataset_arrays(test_ds)[0][:200]  # one scoring block, as logit_of scores
    cfg = quick_cfg(seed=6, epochs=1)
    s, t = bl.train_slearner(train_ds, cfg), bl.train_tlearner(train_ds, cfg)
    at_zero = np.column_stack([X, np.full(len(X), -s.t_min / (s.t_max - s.t_min))])
    assert np.array_equal(s.base_ctr(X), expit(logit_of(s.net, at_zero)))
    assert np.array_equal(t.base_ctr(X), expit(logit_of(t.control_net, X)))


def test_unit_uplift_matches_two_call_evaluation(small_syn):
    train_ds, test_ds = small_syn
    model = bl.train_tlearner(train_ds, quick_cfg(seed=3, epochs=1))
    x = dg.dataset_arrays(test_ds)[0][7]
    want = float(model.treated_prob(x, model.t_max)[0] - model.base_ctr(x)[0])
    assert model.unit_uplift_scores(x)[0] == want


def test_tlearner_unit_uplift_reads_the_top_of_the_treated_support():
    # f_T(x, t) = sigmoid(t_normalized) and f_C(x) = 0.5 on doses [2.2, 2.8]:
    # unit uplift contrasts normalized intensity 1 (raw 2.8) with no treatment
    W = np.zeros((3, 1))
    W[2, 0] = 1.0
    treated = [ad.Layer(ad.ParamTensor("t.W", W), ad.ParamTensor("t.b", np.zeros(1)))]
    control = [ad.Layer(ad.ParamTensor("c.W", np.zeros((2, 1))),
                        ad.ParamTensor("c.b", np.zeros(1)))]
    model = bl.TLearnerModel(control, treated, t_min=2.2, t_max=2.8)
    got = model.unit_uplift_scores(np.array([0.4, -1.0]))[0]
    assert got == pytest.approx(expit(1.0) - 0.5, abs=1e-12)


def untrained_learners():
    rng = np.random.default_rng(0)

    def net(name, n_inputs):
        return ad.init_mlp(rng, name, (n_inputs, 4, 1))

    return (bl.SLearnerModel(net("s", 6), 1.0, 3.0),
            bl.TLearnerModel(net("c", 5), net("t", 6), 1.0, 3.0))


SCORING = {
    "slearner.base_ctr": lambda s, t, X: s.base_ctr(X),
    "slearner.outcome_prob": lambda s, t, X: s.outcome_prob(X, 2.0),
    "slearner.unit_uplift_scores": lambda s, t, X: s.unit_uplift_scores(X),
    "tlearner.base_ctr": lambda s, t, X: t.base_ctr(X),
    "tlearner.treated_prob": lambda s, t, X: t.treated_prob(X, 2.0),
    "tlearner.outcome_prob": lambda s, t, X: t.outcome_prob(X, 2.0),
    "tlearner.unit_uplift_scores": lambda s, t, X: t.unit_uplift_scores(X),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", SCORING)
def test_scoring_names_the_nonfinite_feature(entry, bad):
    X = np.ones((4, 5))
    X[2, 3] = bad
    with pytest.raises(DataFormatError, match="row 2: feature 3"):
        SCORING[entry](*untrained_learners(), X)


@pytest.mark.parametrize("entry", SCORING)
def test_scoring_builds_no_tape(monkeypatch, entry):
    # the learners score through the autodiff.mlp kernel: no tape, no node
    monkeypatch.setattr(ad, "Tape", lambda: pytest.fail("scoring built a tape"))
    assert SCORING[entry](*untrained_learners(), np.ones((4, 5))).shape == (4,)


# ---------------------------------------------------------------------------
# the training loss: one tape node a batch
# ---------------------------------------------------------------------------

def tiny_fit_case():
    """A (5, 4, 1) logit net, seeded, and 40 rows of 5 inputs with labels."""
    rng = np.random.default_rng(17)
    net = ad.init_mlp(rng, "net", (5, 4, 1))
    return net, rng.standard_normal((40, 5)), rng.integers(0, 2, size=40)


def fit_batch_loss(monkeypatch, net, inputs, labels):
    """The batch loss that ``_fit_binary_mlp`` hands the training loop, taken
    before any step."""
    captured = []
    monkeypatch.setattr(ad, "minibatch_adam", lambda params, n, batch_loss, train, rng:
                        captured.append(batch_loss))
    bl._fit_binary_mlp(net, inputs, labels, quick_cfg(), np.random.default_rng(0))
    return captured[0]


def test_a_learner_batch_records_at_most_1_node(monkeypatch):
    # the loss, whose parents are the net's weights
    batch_loss = fit_batch_loss(monkeypatch, *tiny_fit_case())
    tape = ad.Tape()
    loss, _ = batch_loss(np.arange(16), tape)
    assert loss is tape.nodes[-1] and loss.value.shape == ()
    assert len(tape.nodes) <= 1


def test_the_one_node_loss_against_finite_differences(monkeypatch):
    # the node reads the net's logits, so this checks the sigmoid's
    # derivative inside its vjp along with the cross-entropy's
    net, inputs, labels = tiny_fit_case()
    batch_loss = fit_batch_loss(monkeypatch, net, inputs, labels)
    rows = np.arange(3, 19)
    assert finite_diff_check(lambda tape: batch_loss(rows, tape)[0], ad.mlp_params(net),
                             eps=1e-6) < 1e-6


def test_fit_binary_mlp_trains_as_the_two_node_reference_loss():
    # one epoch of four batches; the reference sums per-element cross-entropy
    # nodes, the loss the learners trained on before it became one node
    cfg = ExperimentConfig(train=TrainConfig(epochs=1, batch=10, seed=0))
    fitted, inputs, labels = tiny_fit_case()
    reference = tiny_fit_case()[0]
    start = [p.values.copy() for p in ad.mlp_params(fitted)]
    bl._fit_binary_mlp(fitted, inputs, labels, cfg, np.random.default_rng(5))
    y_col = labels.reshape(-1, 1).astype(np.float64)

    def reference_loss(rows, tape):
        p = sigmoid(tape, ad.mlp_forward(reference, inputs[rows], tape))
        return total(tape, binary_cross_entropy(tape, y_col[rows], p)), None

    ad.minibatch_adam(ad.mlp_params(reference), len(inputs), reference_loss, cfg.train,
                      np.random.default_rng(5))
    for got, want, before in zip(ad.mlp_params(fitted), ad.mlp_params(reference), start):
        assert not np.array_equal(got.values, before)
        assert got.values.dtype == want.values.dtype
        assert np.array_equal(got.values, want.values)
