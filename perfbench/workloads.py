"""The four benchmark workloads: inputs, the timed call, and the output check.

Every workload follows one shape. `setup(seed)` builds the inputs from the
seed alone. `passes(state)` yields lists of ops; a run measures whole passes
until its time is up. `run_op` is the timed region and calls the public ttlr
API through module attributes, so an installed tracer sees every call.
`check` verifies one op's output with the functions captured below at import
time, which the tracer never replaces, so checking stays out of the layer
numbers.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np
from scipy import sparse

import ttlr
from ttlr import analysis, cli, data, experiment, model

# Untraced references for checks and reference generation.
_rows_to_csv = experiment.rows_to_csv
_load_model = model.load_model
_save_model = model.save_model
_predict = model.predict


def _shuffled_passes(items: list, rng):
    """Endless passes over every item, each pass in a fresh seeded order."""
    while True:
        yield [items[k] for k in rng.permutation(len(items))]


class CvSweep:
    """Criterion-9 protocol shape: one op is one sweep repetition (4 cells).

    A pass runs both experiment seeds of a fixed pool of two, whose rows the
    reference file holds, in an order drawn from the run seed. Repetitions
    differ by about 20% in cost, so a seed-drawn handful would move run time
    by more than the bound. A pass takes about 11 s, so a 15 s run holds two.
    """

    name = "cv_sweep"
    METHODS = ("plain_lr", "ttlr(0.6,1.6)")
    LEVELS = (0.0, 0.3)
    SIZES = {
        "full": {"per_class": 1000, "folds": 5, "lambdas": 13, "pool": 2},
        "smoke": {"per_class": 20, "folds": 2, "lambdas": 3, "pool": 2},
    }

    def __init__(self, size: str):
        self.cfg = self.SIZES[size]

    def spec(self, exp_seed: int):
        cfg = self.cfg
        return experiment.ExperimentSpec(
            methods=self.METHODS,
            noise_kind="outlier",
            noise_levels=self.LEVELS,
            noise_sigma=10.0,
            cv=experiment.CrossValSpec(
                folds=cfg["folds"],
                lambda_grid=experiment.default_lambda_grid(cfg["lambdas"]),
            ),
            repetitions=1,
            seed=exp_seed,
            data=experiment.SyntheticSpec(
                train_per_class=cfg["per_class"], test_per_class=cfg["per_class"]
            ),
        )

    def setup(self, seed: int, workdir: str):
        specs = [(k, self.spec(k)) for k in range(self.cfg["pool"])]
        return {"specs": specs, "rng": np.random.default_rng(seed)}

    def passes(self, state):
        return _shuffled_passes(state["specs"], state["rng"])

    def run_op(self, state, op):
        return experiment.run_experiment(op[1])

    @staticmethod
    def _rows(rows):
        return [[r.method, r.noise_level, r.lam, r.accuracy] for r in rows]

    def check(self, state, op, rows, ref):
        want = ref["rows"][str(op[0])]
        got = self._rows(rows)
        ok = len(got) == len(want) and all(
            g[0] == w[0] and g[1] == w[1] and g[2] == w[2]
            and abs(g[3] - w[3]) <= ref["accuracy_tol"]
            for g, w in zip(got, want)
        )
        accuracy = float(np.mean([r.accuracy for r in rows]))
        return ok, accuracy, _rows_to_csv(rows).encode()

    def make_reference(self, workdir: str):
        rows = {
            str(k): self._rows(experiment.run_experiment(self.spec(k)))
            for k in range(self.cfg["pool"])
        }
        # 10 of the 2000 test points; lambda must match exactly
        return {"accuracy_tol": 0.005, "rows": rows}


class LargeFit:
    """One ttlr(0.6,1.6) fit on dense Gaussian classes with outlier rows.

    The class means are fixed; the seed draws the samples and the outliers.
    The fit runs a fixed iteration budget, so its time measures the cost of
    the iterations rather than how many a given sample needs.
    """

    name = "large_fit"
    TEMPS = (0.6, 1.6)
    LAM = 1e-4
    GEOMETRY_SEED = 20240917
    SIZES = {
        "full": {"per_class": 5000, "test_per_class": 1000, "dim": 50,
                 "classes": 10, "max_iters": 30, "accuracy_floor": 0.6},
        "smoke": {"per_class": 50, "test_per_class": 100, "dim": 20,
                  "classes": 3, "max_iters": 10, "accuracy_floor": 0.4},
    }

    def __init__(self, size: str):
        self.cfg = self.SIZES[size]

    def setup(self, seed: int, workdir: str):
        cfg = self.cfg
        means = np.random.default_rng(self.GEOMETRY_SEED).normal(
            0.0, 0.3, size=(cfg["classes"], cfg["dim"])
        )
        train_seed, test_seed, noise_seed = (
            int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(3)
        )
        train = data.synth_gaussians(cfg["per_class"], means, seed=train_seed)
        train = data.inject_outlier_noise(train, 10.0, 0.2, noise_seed)
        test = data.synth_gaussians(cfg["test_per_class"], means, seed=test_seed)
        optimizer = ttlr.OptimizerConfig(max_iters=cfg["max_iters"])
        return {"train": train, "test": test, "optimizer": optimizer}

    def passes(self, state):
        i = 0
        while True:
            yield [i]
            i += 1

    def run_op(self, state, op):
        config = model.FitConfig(seed=op, optimizer=state["optimizer"])
        fitted = model.fit(state["train"], self.TEMPS, self.LAM, config)
        proba = model.predict_proba(fitted, state["test"].X)
        accuracy = float(np.mean(np.argmax(proba, axis=1) + 1 == state["test"].y))
        return proba, accuracy

    def check(self, state, op, out, ref):
        proba, accuracy = out
        sums_ok = float(np.abs(proba.sum(axis=1) - 1.0).max()) <= ref["sum_tol"]
        ok = sums_ok and accuracy >= ref["accuracy_floor"]
        return ok, accuracy, proba.tobytes()

    def make_reference(self, workdir: str):
        # chance is 1/classes; the full fit reaches about 0.66
        return {"sum_tol": 1e-12, "accuracy_floor": self.cfg["accuracy_floor"]}


class BayesOracle:
    """Criterion-7 multiclass Bayes checks at ttlr(0.6,1.6).

    The panel is drawn from the criterion-7 stream of posteriors: the 24 of
    its first 27 that converge in a few ms, each checked four times per
    pass, and its first 11 checks whose chart search stops once at its
    2000-iteration cap (about 2 s each), once. Two checks of the stream's
    first 100 cap a second search too and take 10-13 s; they are left out
    (stream indices 21 and 46), as either alone would fill a run. With 11
    of 107 ops capped, `op_tail_s` (ten samples beyond it) reads a capped
    check and `op_p50_s` the middle of 96 converging ones. The seed
    shuffles the order of each pass.
    """

    name = "bayes_oracle"
    TEMPS = (0.6, 1.6)
    STREAM_SEED = 20240503
    SIZES = {
        "full": {"converging": tuple(k for k in range(27) if k not in (12, 21, 26)),
                 "repeats": 4,
                 "capped": (12, 26, 36, 53, 55, 57, 58, 63, 72, 75, 112)},
        "smoke": {"converging": (0, 1, 2), "repeats": 1, "capped": ()},
    }

    def __init__(self, size: str):
        self.cfg = self.SIZES[size]

    def setup(self, seed: int, workdir: str):
        cfg = self.cfg
        rng = np.random.default_rng(self.STREAM_SEED)
        stream = []
        for _ in range(max(cfg["converging"] + cfg["capped"]) + 1):
            c = int(rng.integers(3, 6))
            p = rng.dirichlet(np.ones(c))
            p = np.clip(p, 1e-3, None)
            stream.append(p / p.sum())
        keys = cfg["converging"] * cfg["repeats"] + cfg["capped"]
        return {"panel": [(k, stream[k]) for k in keys],
                "rng": np.random.default_rng(seed),
                "temps": ttlr.TemperaturePair(*self.TEMPS)}

    def passes(self, state):
        return _shuffled_passes(state["panel"], state["rng"])

    def run_op(self, state, op):
        return analysis.bayes_multiclass_check(op[1], state["temps"])

    def check(self, state, op, chk, ref):
        ok = chk.max_deviation <= ref["deviation_tol"] and chk.argmax_preserved
        return ok, float(ok), chk.a_star.tobytes()

    def make_reference(self, workdir: str):
        return {"deviation_tol": 1e-4}


class FileTrainPredict:
    """`ttlr train` then `ttlr predict` in-process on sparse LIBSVM files.

    A fixed class structure (each class owns a random set of informative
    features) is sampled per pool entry; 20% of training labels are redrawn
    uniformly and the test labels are clean. A pass trains on every entry of
    the pool, whose predictions the reference file holds, in an order drawn
    from the run seed; with a seed-drawn subset, run time moved by about
    15% between seeds, as fits on different samples need different numbers
    of iterations.
    """

    name = "file_train_predict"
    T1, T2, LAM = "0.8", "0.6", "1e-4"
    WORLD_SEED = 20241017
    SIZES = {
        "full": {"train": 10000, "test": 2500, "dim": 5000, "classes": 10,
                 "nnz": 30, "informative": 8, "pool": 3},
        "smoke": {"train": 200, "test": 60, "dim": 60, "classes": 3,
                  "nnz": 6, "informative": 3, "pool": 2},
    }

    def __init__(self, size: str):
        self.cfg = self.SIZES[size]
        world = np.random.default_rng(self.WORLD_SEED)
        # 40 informative feature ids per class, shared by every pool entry
        self.owned = world.integers(0, self.cfg["dim"], size=(self.cfg["classes"], 40))

    def _sample(self, rng, n: int, noise: float):
        cfg = self.cfg
        y = rng.integers(1, cfg["classes"] + 1, size=n)
        k_inf, k = cfg["informative"], cfg["nnz"]
        cols = np.empty((n, k), dtype=np.int64)
        cols[:, :k_inf] = self.owned[y - 1][
            np.arange(n)[:, None], rng.integers(0, self.owned.shape[1], size=(n, k_inf))
        ]
        cols[:, k_inf:] = rng.integers(0, cfg["dim"], size=(n, k - k_inf))
        # integer thousandths, so the text form parses back to the same doubles
        milli = rng.integers(1, 1001, size=(n, k))
        X = sparse.csr_array(
            (milli.ravel(), (np.repeat(np.arange(n), k), cols.ravel())),
            shape=(n, cfg["dim"]),
        )
        X.sum_duplicates()
        X = sparse.csr_array((X.data / 1000.0, X.indices, X.indptr), shape=X.shape)
        labels = y.copy()
        flip = rng.random(n) < noise
        labels[flip] = rng.integers(1, cfg["classes"] + 1, size=int(flip.sum()))
        return X, labels, y

    @staticmethod
    def _write(path: str, X, labels) -> None:
        tokens = [f"{j}:{v!r}" for j, v in zip((X.indices + 1).tolist(), X.data.tolist())]
        bounds = X.indptr.tolist()
        with open(path, "w", encoding="utf-8") as fh:
            for i, label in enumerate(labels.tolist()):
                fh.write(f"{label} {' '.join(tokens[bounds[i]:bounds[i + 1]])}\n")

    def _entry(self, k: int, workdir: str):
        cfg = self.cfg
        rng = np.random.default_rng([self.WORLD_SEED, k])
        X_train, noisy, _ = self._sample(rng, cfg["train"], 0.2)
        X_test, _, y_test = self._sample(rng, cfg["test"], 0.0)
        paths = {name: os.path.join(workdir, f"{name}-{k}")
                 for name in ("train", "test", "model", "pred", "roundtrip")}
        self._write(paths["train"], X_train, noisy)
        self._write(paths["test"], X_test, y_test)
        return {"key": k, "paths": paths, "X_test": X_test, "y_test": y_test}

    def setup(self, seed: int, workdir: str):
        entries = [self._entry(k, workdir) for k in range(self.cfg["pool"])]
        return {"entries": entries, "rng": np.random.default_rng(seed)}

    def passes(self, state):
        return _shuffled_passes(state["entries"], state["rng"])

    def run_op(self, state, entry):
        p = entry["paths"]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc_train = cli.main([
                "train", "--data", p["train"], "--t1", self.T1, "--t2", self.T2,
                "--lambda", self.LAM, "--seed", "0", "--out", p["model"],
            ])
            rc_predict = cli.main([
                "predict", "--model", p["model"], "--data", p["test"], "--out", p["pred"],
            ])
        return rc_train, rc_predict, sink.getvalue()

    def _predictions(self, entry) -> str:
        with open(entry["paths"]["pred"], encoding="utf-8") as fh:
            return fh.read()

    def check(self, state, entry, out, ref):
        rc_train, rc_predict, log = out
        if rc_train != 0 or rc_predict != 0:
            raise RuntimeError(f"ttlr exited {rc_train}/{rc_predict}: {log.strip()}")
        text = self._predictions(entry)
        preds = np.array([int(v) for v in text.split()])
        want = np.array([int(v) for v in ref["predictions"][str(entry["key"])].split()])
        mismatch = preds.size != want.size or int(np.sum(preds != want)) > (
            ref["max_mismatch_frac"] * want.size
        )
        # save/load round trip of the trained model predicts identically
        fitted = _load_model(entry["paths"]["model"])
        X = entry["X_test"][:, : fitted.dim]
        _save_model(fitted, entry["paths"]["roundtrip"])
        again = _load_model(entry["paths"]["roundtrip"])
        same = (
            np.array_equal(fitted.W, again.W)
            and np.array_equal(_predict(again, X), preds)
            and np.array_equal(_predict(fitted, X), preds)
        )
        accuracy = float(np.mean(preds == entry["y_test"]))
        with open(entry["paths"]["model"], "rb") as fh:
            digest_bytes = text.encode() + fh.read()
        return (not mismatch) and same, accuracy, digest_bytes

    def make_reference(self, workdir: str):
        predictions = {}
        for k in range(self.cfg["pool"]):
            entry = self._entry(k, workdir)
            rc = self.run_op(None, entry)
            if rc[:2] != (0, 0):
                raise RuntimeError(f"reference run failed: {rc[2]}")
            predictions[str(k)] = self._predictions(entry)
        return {"max_mismatch_frac": 0.001, "predictions": predictions}


WORKLOADS = {w.name: w for w in (CvSweep, LargeFit, BayesOracle, FileTrainPredict)}
