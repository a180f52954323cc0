"""Token-redundancy experiment: masking and blind-input controls.

Masking zeroes a seeded random subset of caller-supplied candidate rows
(for example sky-region tokens) at a percentage rate; the blind control
replaces every token with i.i.d. standard-normal noise. The PRNG is
pinned to numpy's PCG64 seeded via SeedSequence so runs replicate
across platforms: candidates are sorted, shuffled once, and the first
floor(rate/100 * count) of the permutation are zeroed.

run_mask_experiment turns a list of configurations into report rows in
a fixed order (blind control first, then ascending rates). Each row
derives its own seed from the experiment seed and the row id, so rows
may run in any order or in parallel without changing results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .interactor import ViewFeatureSet
from .jsontypes import check_fields
from .matrix import Matrix

__all__ = [
    "METRIC_COLUMNS",
    "CSV_HEADER",
    "MaskSpec",
    "MaskRunRow",
    "MaskExperimentConfig",
    "apply_token_mask",
    "blind_input",
    "derive_row_seed",
    "run_mask_experiment",
    "rows_to_csv",
    "token_stats_downstream",
]

METRIC_COLUMNS = ("MAE", "ACC", "mAP", "BLEU")
CSV_HEADER = "Exp,Mask Rate,MAE,ACC,mAP,BLEU"


@dataclass(frozen=True)
class MaskSpec:
    """Which rows may be masked, how many, and with what seed."""

    candidate_indices: Mapping[str, Sequence[int]]
    rate: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0 <= self.rate <= 100:
            raise ValueError("rate must be an integer percentage in [0, 100]")


def _check_candidates(features: ViewFeatureSet, spec: MaskSpec) -> None:
    names = set(features.view_names)
    unknown = sorted(set(spec.candidate_indices) - names)
    if unknown:
        raise ValueError(f"candidate views not in the feature set: {unknown}")
    for view, rows in zip(features.view_names, features.token_counts):
        for idx in spec.candidate_indices.get(view, ()):
            if not 0 <= idx < rows:
                raise ValueError(
                    f"view {view!r}: candidate index {idx} outside 0..{rows - 1}"
                )


def _view_generator(seed: int, view_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        (seed, view_index))))


def apply_token_mask(features: ViewFeatureSet, spec: MaskSpec) -> ViewFeatureSet:
    """Zero a seeded sample of candidate rows; everything else is bitwise
    untouched.

    Per view, exactly floor(rate/100 * candidate_count) rows are zeroed:
    the sorted candidate list is permuted by PCG64(SeedSequence((seed,
    view_index))) and the permutation's prefix is taken.
    """
    _check_candidates(features, spec)
    new_views: list[Matrix] = []
    for view_index, (name, view) in enumerate(
        zip(features.view_names, features.views)
    ):
        candidates = sorted(set(spec.candidate_indices.get(name, ())))
        n_mask = (spec.rate * len(candidates)) // 100
        if n_mask == 0:
            new_views.append(view)
            continue
        rng = _view_generator(spec.seed, view_index)
        order = rng.permutation(len(candidates))
        chosen = [candidates[i] for i in order[:n_mask]]
        data = np.array(view.data, copy=True)
        data[chosen, :] = 0.0
        new_views.append(Matrix(data))
    return ViewFeatureSet(views=tuple(new_views), view_names=features.view_names)


def blind_input(features: ViewFeatureSet, seed: int = 0) -> ViewFeatureSet:
    """Replace every token with standard-normal noise, shapes preserved."""
    new_views = tuple(
        Matrix(_view_generator(seed, i).standard_normal(view.shape))
        for i, view in enumerate(features.views)
    )
    return ViewFeatureSet(views=new_views, view_names=features.view_names)


def derive_row_seed(seed: int, row_id: str) -> int:
    """Stable per-row seed: first 8 bytes of sha256('{seed}:{row_id}')."""
    digest = hashlib.sha256(f"{seed}:{row_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class MaskExperimentConfig:
    rates: tuple[int, ...] = (0, 10, 30, 50)
    blind: bool = True
    seed: int = 0
    candidate_indices: Mapping[str, Sequence[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self)
        rates = tuple(sorted(self.rates))
        if len(set(rates)) != len(rates):
            raise ValueError("rates must be distinct")
        if any(not 0 <= r <= 100 for r in rates):
            raise ValueError("rates must lie in [0, 100]")
        object.__setattr__(self, "rates", rates)


@dataclass(frozen=True)
class MaskRunRow:
    exp: str
    mode: str
    rate: int | None
    metrics: Mapping[str, float] | None
    error: str = ""

    @property
    def failed(self) -> bool:
        return self.metrics is None


Downstream = Callable[[ViewFeatureSet], Mapping[str, float]]


def run_mask_experiment(
    cfg: MaskExperimentConfig, features: ViewFeatureSet, downstream: Downstream
) -> list[MaskRunRow]:
    """One row per configuration: blind control first, then ascending rates.

    The downstream closure maps a feature set to the four metric
    columns. A downstream exception marks that row failed and the run
    continues; any other row is unaffected because every row reseeds
    from (seed, row id).
    """
    plan: list[tuple[str, int | None]] = []
    if cfg.blind:
        plan.append(("blind", None))
    plan.extend(("mask", r) for r in cfg.rates)

    rows: list[MaskRunRow] = []
    for n, (mode, rate) in enumerate(plan, start=1):
        row_id = "blind" if mode == "blind" else f"rate-{rate}"
        row_seed = derive_row_seed(cfg.seed, row_id)
        exp = f"Exp.{n}"
        try:
            if mode == "blind":
                masked = blind_input(features, seed=row_seed)
            else:
                masked = apply_token_mask(
                    features,
                    MaskSpec(
                        candidate_indices=cfg.candidate_indices,
                        rate=rate,
                        seed=row_seed,
                    ),
                )
            metrics = dict(downstream(masked))
            missing = [c for c in METRIC_COLUMNS if c not in metrics]
            if missing:
                raise ValueError(f"downstream omitted metric columns {missing}")
            rows.append(MaskRunRow(exp=exp, mode=mode, rate=rate,
                                   metrics=metrics))
        except Exception as err:  # noqa: BLE001 - row isolation is the contract
            rows.append(
                MaskRunRow(exp=exp, mode=mode, rate=rate, metrics=None,
                           error=str(err))
            )
    return rows


def rows_to_csv(rows: Sequence[MaskRunRow]) -> str:
    """Table-shaped CSV; failed rows carry FAILED in every metric cell."""
    lines = [CSV_HEADER]
    for row in rows:
        rate_cell = "-" if row.rate is None else str(row.rate)
        if row.failed:
            cells = ["FAILED"] * len(METRIC_COLUMNS)
        else:
            cells = [f"{row.metrics[c]:.4f}" for c in METRIC_COLUMNS]
        lines.append(",".join([row.exp, rate_cell, *cells]))
    return "\n".join(lines) + "\n"


def token_stats_downstream(features: ViewFeatureSet) -> dict[str, float]:
    """Stand-in evaluation producing the four columns from raw tokens.

    Real metric values need a trained model; this closure gives the
    harness something deterministic and mask-sensitive to aggregate:
    MAE is the mean absolute token value, ACC the percentage of rows
    with any nonzero entry, mAP the percentage of positive entries, and
    BLEU a bounded transform of MAE. Useful for demos and plumbing
    tests only.
    """
    all_data = np.concatenate([v.data for v in features.views], axis=0)
    mae = float(np.mean(np.abs(all_data)))
    nonzero_rows = int(np.count_nonzero(np.any(all_data != 0.0, axis=1)))
    acc = 100.0 * nonzero_rows / all_data.shape[0]
    positive = 100.0 * float(np.count_nonzero(all_data > 0.0)) / all_data.size
    bleu = 100.0 * float(np.exp(-mae))
    return {"MAE": mae, "ACC": acc, "mAP": positive, "BLEU": bleu}
