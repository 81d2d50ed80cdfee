"""The three benchmark workloads.

A workload is set up several times (``setup`` is timed and traced,
``verify_setup`` is neither) and then runs whole rounds (``round`` is timed
and traced, ``verify_round`` checks its outputs and is neither). Round r
repeats round r - distinct exactly, so a run checks that repeated work gives
bit-identical results; the quality figures are the mean over the
``distinct`` models of the first rounds (or set-ups), one per training seed,
which keeps them a fixed function of the workload seed.

Every time a workload reports is taken with a ``HostClock``: adjusted for
the host's speed, and without the reference timings between intervals.

The seed reaches the program only through ``SynSpec.seed`` and
``train.seed``. Every library call goes through the module attribute the
tracer rebinds (``htenet.train``, ``allocator.decide``, ...).
"""
from __future__ import annotations

import dataclasses
import gc
import math
from time import perf_counter_ns

import numpy as np
from scipy.stats import spearmanr

import checks
from unimvt import allocator, baselines, config, datagen, htenet, metrics
from unimvt.errors import (ConfigError, DataFormatError, MetricUndefinedError,
                           NumericError, UsageError)

LIBRARY_ERRORS = (ConfigError, DataFormatError, MetricUndefinedError, NumericError, UsageError)

GRID = allocator.AllocationGrid(0.5, 4.0, 0.5)
GRID_VALUES = 0.5 * np.arange(1, 9)   # the same grid, written out for the brute force
VALUE_PER_CLICK = 60.0
THRESHOLD = 1.5
DECISION_MODE = "additive"
# a batch workload ends each round by serving this many test users with the
# arm it just trained, which keeps its decision stage under a second
SERVED_USERS = {"train-syn3": 1000, "baselines-syn1": 4000}
# users served between two reference timings of the host clock
CHUNK = 100


class RoundFailed(Exception):
    """A library call of the round raised; the rest of the round is skipped."""


class Ops:
    """Counts the library calls the rounds attempt and the ones that raise."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except LIBRARY_ERRORS as exc:
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__qualname__', fn)}: {exc!r}")
            raise RoundFailed from exc


def syn_spec(preset: str, seed: int) -> datagen.SynSpec:
    return dataclasses.replace(datagen.PRESETS[preset], seed=seed)


def train_config(seed: int, k: int, epochs: int) -> config.ExperimentConfig:
    cfg = config.default_config()
    cfg.train.epochs = epochs
    cfg.train.seed = 1000 * seed + k
    return cfg


def rmse(a, b) -> float:
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


class Workload:
    name = ""
    distinct = 3   # models per run, one per training seed k = 0, 1, 2
    epochs = 2   # per training call; the default config's 6 where it is cheap enough

    def __init__(self, seed: int, workdir, clock) -> None:
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.ops = Ops()
        self.failures: list[str] = []
        self.quality: dict[int, dict] = {}     # distinct index -> quality figures
        self.reference: dict[int, dict] = {}   # distinct index -> README figures

    def verify_setup(self, k: int) -> None:
        pass

    def record_quality(self, r: int, quality: dict, reference: dict) -> None:
        k = r % self.distinct
        if k in self.quality:
            if (self.quality[k], self.reference[k]) != (quality, reference):
                self.failures.append(f"round {r} is not bit-identical to round {k}")
        else:
            self.quality[k], self.reference[k] = quality, reference

    def serve(self, users, score) -> dict:
        """Closed loop, one client: score one user, then ``decide``, user by user.

        Users are served in chunks of ``CHUNK``; each chunk's latencies are
        adjusted by the host clock's factor for that chunk. The loop starts
        from a collected heap, as a serving process would, not one full of
        the garbage of a training that came before it.
        """
        gc.collect()
        n = users.shape[0]
        latency_ns = np.zeros(n, dtype=np.int64)
        issue = np.zeros(n, dtype=bool)
        q_star = np.zeros(n)
        preds = []
        factor = np.zeros(n)
        for lo in range(0, n, CHUNK):
            self.clock.begin()
            for i in range(lo, min(lo + CHUNK, n)):
                t0 = perf_counter_ns()
                pred = score(users[i])
                dec = self.ops(allocator.decide, pred, GRID, VALUE_PER_CLICK, THRESHOLD,
                               mode=DECISION_MODE)
                latency_ns[i] = perf_counter_ns() - t0
                preds.append(pred)
                issue[i], q_star[i] = dec.issue, dec.q_star
            factor[lo:lo + CHUNK] = self.clock.factor()
        latency_s = latency_ns * 1e-9 * factor
        return {"latency_s": latency_s, "decide_wall_s": float(latency_s.sum()),
                "issue": issue, "q_star": q_star, "preds": preds}

    def check_decisions(self, res) -> None:
        p0 = np.array([p.p0_hat for p in res["preds"]])
        eta = np.array([p.eta_hat for p in res["preds"]])
        self.failures += checks.check_decisions(res["issue"], res["q_star"], p0, eta,
                                                GRID_VALUES, VALUE_PER_CLICK, THRESHOLD,
                                                self.name)

    def check_predict(self, r: int, preds, batch) -> None:
        """Every field of a single-row ``predict`` matches its ``predict_batch`` row."""
        for key in ("p0_hat", "pt_hat", "t_hat", "eta_hat", "tau_hat"):
            single = np.array([getattr(p, key) for p in preds])
            gap = np.max(np.abs(single - batch[key][: len(preds)]))
            if not gap <= 1e-12:
                self.failures.append(f"round {r}: predict {key} is {gap} from predict_batch")


class TrainSyn3(Workload):
    """Offline path: read the CSVs, train UniMVT, score the RCT test split."""

    name = "train-syn3"

    def __init__(self, seed, workdir, clock) -> None:
        super().__init__(seed, workdir, clock)
        self.train_csv = workdir / "syn3-train.csv"
        self.test_csv = workdir / "syn3-test.csv"

    def setup(self, k: int) -> dict:
        _, setup_s = self.clock.time(self.write_inputs)
        return {"setup_s": setup_s}

    def write_inputs(self) -> None:
        train, test = datagen.generate(syn_spec("syn3", self.seed))
        datagen.save_csv(train, self.train_csv)
        datagen.save_csv(test, self.test_csv)

    def load(self):
        return self.ops(datagen.load_csv, self.train_csv), self.ops(datagen.load_csv, self.test_csv)

    def score(self, model, test):
        ops = self.ops
        X, w, t, y, p0, eta = ops(datagen.dataset_arrays, test)
        pred = ops(htenet.predict_batch, model, X)
        ctrl = w == 0
        auc = ops(metrics.auc, y[ctrl], pred["p0_hat"][ctrl])
        logloss = ops(metrics.logloss, y[ctrl], pred["p0_hat"][ctrl])
        qini = ops(metrics.cs_qini, pred["eta_hat"], test)
        return dict(test=(X, w, t, y, p0, eta), pred=pred, auc=auc, logloss=logloss, qini=qini)

    def round(self, r: int) -> dict:
        ops, clock = self.ops, self.clock
        cfg = train_config(self.seed, r % self.distinct, self.epochs)
        (train, test), load_s = clock.time(self.load)
        (model, history), train_s = clock.time(ops, htenet.train, train, cfg)
        scored, score_s = clock.time(self.score, model, test)
        out = self.serve(scored["test"][0][: SERVED_USERS[self.name]],
                         lambda x: ops(htenet.predict, model, x))
        return dict(out, **scored, wall_s=load_s + train_s + score_s, train_s=train_s,
                    rows_epochs=len(train) * cfg.train.epochs,
                    train=train, model=model, history=history)

    def verify_round(self, r: int, res: dict) -> None:
        X, w, t, y, p0, eta = res["test"]
        pred, model, f = res["pred"], res["model"], self.failures
        ctrl = w == 0
        quality = {
            "base_ctr_rmse": rmse(pred["p0_hat"], p0),
            "control_auc": res["auc"],
            "control_logloss": res["logloss"],
        }
        reference = {
            "uplift_corr": float(spearmanr(pred["eta_hat"], eta).statistic),
            "cs_qini": res["qini"],
            "cs_qini_oracle": metrics.cs_qini(eta, (t, y)),
            "issue_rate": float(res["issue"].mean()),
        }
        if not all(math.isfinite(v) for rec in res["history"] for v in rec.values()):
            f.append("loss history is not finite")
        f += checks.check_prediction_ranges(pred, model.hte.t_min, model.hte.t_max, self.name)
        _, w_tr, _, y_tr, _, _ = datagen.dataset_arrays(res["train"])
        constant = rmse(y_tr[w_tr == 0].mean(), p0)
        if not quality["base_ctr_rmse"] < constant:
            f.append(f"base_ctr_rmse {quality['base_ctr_rmse']} does not beat "
                     f"the constant predictor's {constant}")
        if not reference["uplift_corr"] > 0:
            f.append(f"uplift_corr {reference['uplift_corr']} is not positive")
        f += checks.check_auc(y[ctrl], pred["p0_hat"][ctrl], res["auc"], self.name)
        f += checks.check_cs_qini(pred["eta_hat"], t, y, res["qini"], self.name)
        self.check_predict(r, res["preds"], pred)
        self.check_decisions(res)
        self.record_quality(r, quality, reference)


class ServeSyn3(Workload):
    """Online path: one client, per request ``predict`` then ``decide``."""

    name = "serve-syn3"
    # one model per set-up; round r serves with model r mod distinct

    def __init__(self, seed, workdir, clock) -> None:
        super().__init__(seed, workdir, clock)
        self.models = {}
        self.batch = {}
        self.decisions = {}

    def setup(self, k: int) -> dict:
        clock = self.clock
        (train, test), generate_s = clock.time(datagen.generate, syn_spec("syn3", self.seed))
        cfg = train_config(self.seed, k, self.epochs)
        (model, _), train_s = clock.time(htenet.train, train, cfg)
        path = self.workdir / f"model{k}.txt"
        loaded, io_s = clock.time(self.round_trip, model, path)
        self.models[k] = (model, loaded)
        self.test = test
        return {"setup_s": generate_s + train_s + io_s, "train_s": train_s,
                "rows_epochs": len(train) * cfg.train.epochs}

    @staticmethod
    def round_trip(model, path):
        htenet.save_model(model, path)
        return htenet.load_model(path)

    def verify_setup(self, k: int) -> None:
        model, loaded = self.models[k]
        X, w, t, y, p0, eta = datagen.dataset_arrays(self.test)
        self.X = X
        saved = htenet.predict_batch(model, X)
        pred = htenet.predict_batch(loaded, X)
        for key, value in saved.items():
            if not np.array_equal(value, pred[key]):
                self.failures.append(f"model {k}: loaded model's {key} differs from the saved one's")
        self.models[k] = loaded
        self.batch[k] = pred
        ctrl = w == 0
        self.quality[k] = {
            "base_ctr_rmse": rmse(pred["p0_hat"], p0),
            "control_auc": metrics.auc(y[ctrl], pred["p0_hat"][ctrl]),
            "control_logloss": metrics.logloss(y[ctrl], pred["p0_hat"][ctrl]),
        }
        self.reference[k] = {"uplift_corr": float(spearmanr(pred["eta_hat"], eta).statistic)}

    def round(self, r: int) -> dict:
        model, ops = self.models[r % self.distinct], self.ops
        out = self.serve(self.X, lambda x: ops(htenet.predict, model, x))
        return dict(out, wall_s=out["decide_wall_s"])

    def verify_round(self, r: int, res: dict) -> None:
        k = r % self.distinct
        issue, q_star, f = res["issue"], res["q_star"], self.failures
        self.check_predict(r, res["preds"], self.batch[k])
        self.check_decisions(res)
        key = (issue.tobytes(), q_star.tobytes())
        if self.decisions.setdefault(k, key) != key:
            f.append(f"round {r}: decisions differ from round {k}'s")
        if issue.all() or not issue.any():
            f.append(f"round {r}: issued {issue.sum()} of {issue.size} coupons; "
                     "the rule must both issue and withhold")
        self.reference[k]["issue_rate"] = float(issue.mean())


class BaselinesSyn1(Workload):
    """The S-/T-Learner arms: same tape and Adam, no DCR, no HTE net."""

    name = "baselines-syn1"
    # the default 6 epochs: at 2 the T-Learner's base_ctr_rmse spread 0.26
    # across ten seeds, at 6 it converges and varies with the data alone
    epochs = 6

    def __init__(self, seed, workdir, clock) -> None:
        super().__init__(seed, workdir, clock)
        self.train_csv = workdir / "syn1-train.csv"
        self.test_csv = workdir / "syn1-test.csv"

    def setup(self, k: int) -> dict:
        _, setup_s = self.clock.time(self.write_inputs)
        return {"setup_s": setup_s}

    def write_inputs(self) -> None:
        self.generated = datagen.generate(syn_spec("syn1", self.seed))
        for ds, path in zip(self.generated, (self.train_csv, self.test_csv)):
            datagen.save_csv(ds, path)

    def load(self):
        return self.ops(datagen.load_csv, self.train_csv), self.ops(datagen.load_csv, self.test_csv)

    def fit(self, train, cfg):
        return (self.ops(baselines.train_slearner, train, cfg),
                self.ops(baselines.train_tlearner, train, cfg))

    def score(self, slearner, tlearner, test):
        ops = self.ops
        X, w, t, y, p0, eta = ops(datagen.dataset_arrays, test)
        s_uplift = ops(slearner.unit_uplift_scores, X)
        t_base = ops(tlearner.base_ctr, X)
        t_uplift = ops(tlearner.unit_uplift_scores, X)
        ctrl = w == 0
        return dict(test=(X, w, t, y, p0, eta), t_base=t_base, s_uplift=s_uplift,
                    t_uplift=t_uplift,
                    auc=ops(metrics.auc, y[ctrl], t_base[ctrl]),
                    logloss=ops(metrics.logloss, y[ctrl], t_base[ctrl]),
                    s_qini=ops(metrics.cs_qini, s_uplift, test),
                    t_qini=ops(metrics.cs_qini, t_uplift, test))

    def round(self, r: int) -> dict:
        ops, clock = self.ops, self.clock
        cfg = train_config(self.seed, r % self.distinct, self.epochs)
        (train, test), load_s = clock.time(self.load)
        (slearner, tlearner), train_s = clock.time(self.fit, train, cfg)
        scored, score_s = clock.time(self.score, slearner, tlearner, test)
        X = scored["test"][0]

        def score(x):
            # the T-Learner's uplift is per unit of normalized dose, which spans
            # [t_min, t_max]; f_T(x, t_max) - f_C(x) over t_max is per unit of dose
            p0 = ops(tlearner.base_ctr, x)[0]
            eta = ops(tlearner.unit_uplift_scores, x)[0] / tlearner.t_max
            return htenet.Prediction(float(p0), 0.0, 0.0, float(eta), 0.0)

        out = self.serve(X[: SERVED_USERS[self.name]], score)
        # S-Learner and T-Learner each see every training row once per epoch
        return dict(out, **scored, wall_s=load_s + train_s + score_s, train_s=train_s,
                    rows_epochs=2 * len(train) * cfg.train.epochs, loaded=(train, test))

    def verify_round(self, r: int, res: dict) -> None:
        X, w, t, y, p0, eta = res["test"]
        f = self.failures
        for split, got, want in zip(("train", "test"), res["loaded"], self.generated):
            got, want = datagen.dataset_arrays(got), datagen.dataset_arrays(want)
            if not all(np.array_equal(a, b) for a, b in zip(got, want)):
                f.append(f"load_csv(save_csv(ds)) changes the {split} arrays")
        _, w_tr, _, y_tr, _, _ = datagen.dataset_arrays(res["loaded"][0])
        ctrl = w == 0
        quality = {
            "base_ctr_rmse": rmse(res["t_base"], p0),
            "control_auc": res["auc"],
            "control_logloss": res["logloss"],
        }
        constant = rmse(y_tr[w_tr == 0].mean(), p0)
        if not quality["base_ctr_rmse"] < constant:
            f.append(f"T-Learner base_ctr_rmse {quality['base_ctr_rmse']} does not beat "
                     f"the constant predictor's {constant}")
        f += checks.check_auc(y[ctrl], res["t_base"][ctrl], res["auc"], self.name)
        f += checks.check_cs_qini(res["t_uplift"], t, y, res["t_qini"], self.name)
        self.check_decisions(res)
        reference = {
            "uplift_corr_slearner": float(spearmanr(res["s_uplift"], eta).statistic),
            "uplift_corr_tlearner": float(spearmanr(res["t_uplift"], eta).statistic),
            "cs_qini_slearner": res["s_qini"],
            "cs_qini_tlearner": res["t_qini"],
            "cs_qini_oracle": metrics.cs_qini(eta, (t, y)),
            "issue_rate": float(res["issue"].mean()),
        }
        self.record_quality(r, quality, reference)


WORKLOADS = {w.name: w for w in (TrainSyn3, ServeSyn3, BaselinesSyn1)}
