"""Benchmark workloads and their deterministic synthetic Mulan datasets.

Each workload is a dataset shape plus the `run_cv` configuration it is run
with. The dataset is generated from the workload seed alone (numpy only, no
project code), written as ARFF + XML, and handed to the program as files, so
ARFF parsing is part of every measured run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# run_cv settings shared by every workload.
CV_SEED = 7
THETA_MAX = 10.0
THETA_MIN_ECCRU3 = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    label_fracs: tuple[float, ...]
    integer_features: int  # leading columns holding small integer codes
    methods: tuple[str, ...]
    c: int
    repeats: int
    folds: int
    n_jobs: int

    @property
    def q(self) -> int:
        return len(self.label_fracs)

    def cv_options(self) -> dict:
        """Keyword arguments for chainbalance.experiment.ExperimentConfig."""
        return {
            "methods": self.methods,
            "c": self.c,
            "theta_max": THETA_MAX,
            "theta_min": THETA_MIN_ECCRU3 if "ECCRU3" in self.methods else None,
            "repeats": self.repeats,
            "folds": self.folds,
            "seed": CV_SEED,
            "n_jobs": self.n_jobs,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="yeast-chains",
            n=2417,
            d=103,
            # Cardinality ~3.9; per-label ImR from ~1 (0.5) to ~70 (0.014).
            label_fracs=(
                0.75, 0.72, 0.50, 0.42, 0.30, 0.28, 0.25,
                0.20, 0.17, 0.12, 0.07, 0.05, 0.03, 0.014,
            ),
            integer_features=0,
            methods=("ECC", "ECCRU", "ECCRU3"),
            c=2,
            repeats=1,
            folds=2,
            n_jobs=1,
        ),
        Workload(
            name="scene-wide-2jobs",
            n=2407,
            d=294,
            # Cardinality ~1.07.
            label_fracs=(0.18, 0.15, 0.16, 0.18, 0.22, 0.18),
            integer_features=0,
            methods=("BR", "ECCRU", "ECCRU3"),
            c=10,
            repeats=1,
            folds=2,
            n_jobs=2,
        ),
        Workload(
            name="flags-protocol",
            n=194,
            d=19,
            # Cardinality ~3.4, as in the flags colour labels.
            label_fracs=(0.81, 0.47, 0.51, 0.43, 0.75, 0.27, 0.13),
            integer_features=12,
            methods=("BR", "BRUS", "EBRUS", "ECC", "ECCRU", "ECCRU2", "ECCRU3"),
            c=10,
            repeats=5,
            folds=2,
            n_jobs=1,
        ),
    )
}


def generate(workload: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Features (n, d) and 0/1 labels (n, q) for a workload seed.

    Labels threshold noisy latent scores at exact quantiles, so every label
    has round(frac * n) positives whatever the seed. A shared factor
    correlates the labels, and each label's latent score leaks into a few
    feature columns with noise, so trees must grow deep to fit.
    """
    gen = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    n, d, q = workload.n, workload.d, workload.q
    shared = gen.normal(size=(n, 1))
    latent = 0.5 * shared + gen.normal(size=(n, q))
    labels = np.zeros((n, q), dtype=np.int8)
    for j, frac in enumerate(workload.label_fracs):
        positives = max(1, round(frac * n))
        scores = latent[:, j] + gen.normal(scale=0.8, size=n)
        labels[np.argsort(-scores, kind="stable")[:positives], j] = 1

    features = gen.normal(size=(n, d))
    for col in range(d):
        if col % 3 == 0:
            features[:, col] += latent[:, (col // 3) % q]
    ints = workload.integer_features
    if ints:
        levels = 2 + np.arange(ints) % 9  # 2 to 10 distinct codes
        codes = np.floor((features[:, :ints] + 3.0) / 6.0 * levels)
        features[:, :ints] = np.clip(codes, 0, levels - 1)
    # Six decimals, as Mulan's published files carry.
    features[:, ints:] = np.round(features[:, ints:], 6)
    return features, labels


def describe(labels: np.ndarray) -> dict:
    """n, q, label cardinality and maximum per-label ImR of a label matrix."""
    ones = labels.sum(axis=0).astype(np.int64)
    zeros = labels.shape[0] - ones
    minority = np.minimum(ones, zeros)
    majority = np.maximum(ones, zeros)
    return {
        "n": int(labels.shape[0]),
        "q": int(labels.shape[1]),
        "cardinality": float(labels.sum(axis=1).mean()),
        "max_imr": float((majority / minority).max()),
    }


def write_mulan(
    directory: Path, name: str, features: np.ndarray, labels: np.ndarray, integer_features: int
) -> tuple[Path, Path]:
    """Write dense ARFF + Mulan XML; returns (arff, xml) paths."""
    d, q = features.shape[1], labels.shape[1]
    lines = [f"@relation {name}", ""]
    lines += [f"@attribute x{i} numeric" for i in range(d)]
    lines += [f"@attribute L{j} {{0,1}}" for j in range(q)]
    lines += ["", "@data"]
    fmt = ",".join(
        ["%d"] * integer_features + ["%.6f"] * (d - integer_features) + ["%d"] * q
    )
    table = np.hstack([features, labels.astype(np.float64)])
    lines += [fmt % tuple(row) for row in table.tolist()]
    arff = directory / f"{name}.arff"
    xml = directory / f"{name}.xml"
    arff.write_text("\n".join(lines) + "\n")
    xml.write_text(
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<labels xmlns="http://mulan.sourceforge.net/labels">\n'
        + "".join(f'  <label name="L{j}"></label>\n' for j in range(q))
        + "</labels>\n"
    )
    return arff, xml
