"""Desk-scale end-to-end validation of real-vs-synthetic task-vector transfer.

The analog world: each domain owns a disjoint block of classes whose Gaussian
class means share a per-domain offset; "synthetic" samples pass through a
fixed affine channel (per-coordinate scale and bias, drawn once per channel
variant), while "real" samples keep the identity channel but carry extra
noise. A plain softmax classifier stands in for the model; it serializes to a
two-tensor checkpoint ("linear.weight", "linear.bias") so the exact
weight-arithmetic code path used on real checkpoints is exercised here.

The protocol per seed: pretrain on pooled source real+synthetic data,
fine-tune copies on source-real and source-synthetic, fine-tune the
pretrained model on target-synthetic, form the real-minus-synthetic task
vector, and measure target-real error across a scaling-factor grid.
Everything is a pure function of (specs, seeds).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import TrainingDivergedError, ValidationError
from .sweep_harness import DEFAULT_LAMBDA_GRID, validate_lambda_grid
from .tensor_store import TensorMap
from .vector_ops import (
    Provenance,
    TaskVector,
    apply_task_vector,
    compute_task_vector,
    ensemble_average,
)

# Stream tags for deriving independent generator streams from one seed.
_STRUCTURE_STREAM = 0
_BASE_NOISE_STREAM = 1
_EXTRA_NOISE_STREAM = 2
_CHANNEL_STREAM = 3

WEIGHT_TENSOR = "linear.weight"
BIAS_TENSOR = "linear.bias"


@dataclass(frozen=True)
class ConditionShift:
    """What separates the synthetic channel from the real one.

    The synthetic condition's per-coordinate affine transform is
    scale = channel_gain * (1 + channel_scale * u), bias = channel_bias_scale * v
    with u, v drawn once per channel variant; a gain below 1 models a damped
    (compressed) synthetic channel. extra_noise_stddev is noise the real
    condition adds on top of the shared base noise. The identity setting
    (gain 1, everything else 0) makes the two conditions bit-identical under
    equal seeds.
    """

    channel_gain: float = 0.5
    channel_scale: float = 0.25
    channel_bias_scale: float = 0.6
    extra_noise_stddev: float = 1.0

    def __post_init__(self):
        if self.channel_gain <= 0:
            raise ValidationError("channel_gain must be positive")
        for name in ("channel_scale", "channel_bias_scale", "extra_noise_stddev"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")


ZERO_SHIFT = ConditionShift(1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ToyDataSpec:
    """Distribution parameters for the toy domains.

    Domains are "source_0" .. "source_{k-1}" and "target"; domain i owns
    classes [i * num_classes_per_domain, (i+1) * num_classes_per_domain).
    Generation is a pure function of (spec fields, domain, condition, split).
    """

    num_classes_per_domain: int = 10
    feature_dim: int = 32
    num_source_domains: int = 1
    class_mean_scale: float = 0.8
    domain_offset_scale: float = 0.4
    base_noise_stddev: float = 0.85
    condition_shift: ConditionShift = ConditionShift()
    samples_per_class: int = 32
    channel_variant: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes_per_domain < 2:
            raise ValidationError("num_classes_per_domain must be at least 2")
        if self.feature_dim < 1 or self.num_source_domains < 1 or self.samples_per_class < 1:
            raise ValidationError("dims, domain count, and samples_per_class must be positive")
        if self.base_noise_stddev < 0 or self.class_mean_scale < 0 or self.domain_offset_scale < 0:
            raise ValidationError("scales and stddevs must be non-negative")

    @property
    def num_classes_total(self) -> int:
        return (self.num_source_domains + 1) * self.num_classes_per_domain

    def domain_labels(self) -> list[str]:
        return [f"source_{i}" for i in range(self.num_source_domains)] + ["target"]


@dataclass(frozen=True)
class ToyDataset:
    features: np.ndarray  # [n, feature_dim] float64
    labels: np.ndarray  # [n] int64

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64).view()
        labels = np.asarray(self.labels, dtype=np.int64).view()
        if features.ndim != 2 or labels.ndim != 1 or features.shape[0] != labels.shape[0]:
            raise ValidationError(
                f"features must be [n, dim] and labels [n], got {features.shape} "
                f"and {labels.shape}"
            )
        features.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def _domain_index(spec: ToyDataSpec, domain: str) -> int:
    if domain == "target":
        return spec.num_source_domains
    if domain.startswith("source_"):
        try:
            index = int(domain[len("source_"):])
        except ValueError:
            index = -1
        if 0 <= index < spec.num_source_domains:
            return index
    raise ValidationError(
        f"unknown domain {domain!r}; expected 'target' or 'source_0'..'source_"
        f"{spec.num_source_domains - 1}'"
    )


def _structure(spec: ToyDataSpec) -> tuple[np.ndarray, np.ndarray]:
    """Class means and domain offsets, drawn once and shared across conditions.

    Every domain reuses one base constellation of num_classes_per_domain
    means; domains differ only by their offset vector (and own disjoint label
    blocks), so class j of any domain is the shared mean j plus that domain's
    offset.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _STRUCTURE_STREAM]))
    base = rng.standard_normal((spec.num_classes_per_domain, spec.feature_dim))
    base = base * spec.class_mean_scale
    offsets = rng.standard_normal((spec.num_source_domains + 1, spec.feature_dim))
    offsets = offsets * spec.domain_offset_scale
    means = np.tile(base, (spec.num_source_domains + 1, 1))
    return means, offsets


def _channel(spec: ToyDataSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate scale and bias of the synthetic channel for this variant.

    The channel is the identity of the synthesis system, so it depends on
    channel_variant (and the shift magnitudes) but not on the data seed:
    re-seeded experiments face the same synthetic channel.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([_CHANNEL_STREAM, spec.channel_variant])
    )
    shift = spec.condition_shift
    scale = shift.channel_gain * (
        1.0 + shift.channel_scale * rng.standard_normal(spec.feature_dim)
    )
    bias = shift.channel_bias_scale * rng.standard_normal(spec.feature_dim)
    return scale, bias


def generate_toy_data(spec: ToyDataSpec, domain: str, condition: str, split: str) -> ToyDataset:
    """Draw a class-balanced labeled dataset for (domain, condition, split).

    The base noise stream depends on (seed, domain, split) but not on the
    condition, so with a zero condition shift the real and synthetic datasets
    of a domain are bit-identical.
    """
    if condition not in ("real", "synthetic"):
        raise ValidationError(f"condition must be 'real' or 'synthetic', got {condition!r}")
    if split not in ("train", "eval"):
        raise ValidationError(f"split must be 'train' or 'eval', got {split!r}")
    dom = _domain_index(spec, domain)
    split_code = 0 if split == "train" else 1
    means, offsets = _structure(spec)
    first_class = dom * spec.num_classes_per_domain
    labels = np.repeat(
        np.arange(first_class, first_class + spec.num_classes_per_domain, dtype=np.int64),
        spec.samples_per_class,
    )
    base = means[labels] + offsets[dom]
    n = labels.shape[0]
    noise_rng = np.random.default_rng(
        np.random.SeedSequence([spec.seed, _BASE_NOISE_STREAM, dom, split_code])
    )
    base_noise = noise_rng.standard_normal((n, spec.feature_dim)) * spec.base_noise_stddev
    if condition == "synthetic":
        scale, bias = _channel(spec)
        features = (base * scale + bias) + base_noise
    else:
        extra_rng = np.random.default_rng(
            np.random.SeedSequence([spec.seed, _EXTRA_NOISE_STREAM, dom, split_code])
        )
        extra = extra_rng.standard_normal((n, spec.feature_dim))
        features = base + base_noise + spec.condition_shift.extra_noise_stddev * extra
    return ToyDataset(features=features, labels=labels)


def concat_datasets(datasets: Sequence[ToyDataset]) -> ToyDataset:
    if not datasets:
        raise ValidationError("cannot concatenate zero datasets")
    return ToyDataset(
        features=np.concatenate([d.features for d in datasets], axis=0),
        labels=np.concatenate([d.labels for d in datasets], axis=0),
    )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 30
    batch_size: int = 32
    l2_penalty: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs < 0 or self.batch_size < 1:
            raise ValidationError("learning_rate and batch_size must be positive, epochs >= 0")
        if self.l2_penalty < 0:
            raise ValidationError("l2_penalty must be non-negative")


@dataclass(frozen=True)
class ToyModel:
    """Softmax classifier: logits = x @ weights.T + bias."""

    weights: np.ndarray  # [num_classes_total, feature_dim] float64
    bias: np.ndarray  # [num_classes_total] float64

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValidationError(
                f"weights must be [classes, dim] and bias [classes], got {w.shape} and {b.shape}"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @classmethod
    def zeros(cls, num_classes: int, feature_dim: int) -> "ToyModel":
        return cls(np.zeros((num_classes, feature_dim)), np.zeros(num_classes))

    def logits(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights.T + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        # argmax takes the first maximum, i.e. ties break to the lowest class.
        return np.argmax(self.logits(features), axis=1)

    def to_tensor_map(self) -> TensorMap:
        return TensorMap({WEIGHT_TENSOR: self.weights, BIAS_TENSOR: self.bias})

    @classmethod
    def from_tensor_map(cls, tmap: TensorMap) -> "ToyModel":
        return cls(np.asarray(tmap[WEIGHT_TENSOR]), np.asarray(tmap[BIAS_TENSOR]))


def _loss_and_grads(
    weights: np.ndarray,
    bias: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    l2_penalty: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy plus 0.5 * l2 * ||W||^2 (bias unpenalized)."""
    n = features.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught by the caller
        logits = features @ weights.T + bias
        shift = logits.max(axis=1, keepdims=True)
        exp = np.exp(logits - shift)
        denom = exp.sum(axis=1, keepdims=True)
        log_probs = (logits - shift) - np.log(denom)
        nll = -float(log_probs[np.arange(n), labels].mean())
        loss = nll + 0.5 * l2_penalty * float(np.sum(weights * weights))
        grad_logits = exp / denom
        grad_logits[np.arange(n), labels] -= 1.0
        grad_logits /= n
        grad_w = grad_logits.T @ features + l2_penalty * weights
        grad_b = grad_logits.sum(axis=0)
    return loss, grad_w, grad_b


def training_loss(model: ToyModel, data: ToyDataset, l2_penalty: float = 0.0) -> float:
    loss, _, _ = _loss_and_grads(model.weights, model.bias, data.features, data.labels, l2_penalty)
    return loss


def loss_gradients(
    model: ToyModel, data: ToyDataset, l2_penalty: float = 0.0
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus analytic gradients w.r.t. weights and bias."""
    return _loss_and_grads(model.weights, model.bias, data.features, data.labels, l2_penalty)


def train(init: ToyModel, data: ToyDataset, config: TrainConfig) -> ToyModel:
    """Minibatch gradient descent from init; shuffling is fixed per (seed, epoch).

    Zero epochs returns init unchanged. A non-finite loss aborts with the
    epoch and batch where training diverged.
    """
    if len(data) == 0:
        raise ValidationError("cannot train on an empty dataset")
    if data.features.shape[1] != init.weights.shape[1]:
        raise ValidationError(
            f"feature dim {data.features.shape[1]} does not match model dim "
            f"{init.weights.shape[1]}"
        )
    if int(data.labels.max()) >= init.weights.shape[0] or int(data.labels.min()) < 0:
        raise ValidationError("labels fall outside the model's class range")
    weights = init.weights.copy()
    bias = init.bias.copy()
    n = len(data)
    for epoch in range(config.epochs):
        order = np.random.default_rng(
            np.random.SeedSequence([config.seed, epoch])
        ).permutation(n)
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            loss, grad_w, grad_b = _loss_and_grads(
                weights, bias, data.features[idx], data.labels[idx], config.l2_penalty
            )
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite training loss {loss!r} at epoch {epoch}, batch {batch_index}",
                    epoch=epoch,
                    batch=batch_index,
                )
            weights -= config.learning_rate * grad_w
            bias -= config.learning_rate * grad_b
    return ToyModel(weights, bias)


def evaluate_error(model: ToyModel, data: ToyDataset) -> float:
    """Fraction of argmax mispredictions; ties resolve to the lowest class."""
    if len(data) == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    return float(np.mean(model.predict(data.features) != data.labels))


@dataclass(frozen=True)
class SeedOutcome:
    seed_index: int
    baseline_error: float
    lambda_errors: tuple[tuple[float, float], ...]
    best_lambda: float
    best_error: float
    relative_reduction: float  # percent; positive means the adapted model is better

    def to_json_obj(self) -> dict:
        return {
            "seed_index": self.seed_index,
            "baseline_error": self.baseline_error,
            "errors_by_lambda": [[lam, err] for lam, err in self.lambda_errors],
            "best_lambda": self.best_lambda,
            "best_error": self.best_error,
            "relative_reduction": self.relative_reduction,
        }


@dataclass(frozen=True)
class ProtocolReport:
    protocol: str  # "single" | "ensemble"
    lambda_grid: tuple[float, ...]
    num_source_domains: int
    outcomes: tuple[SeedOutcome, ...]

    @property
    def mean_baseline_error(self) -> float:
        return float(np.mean([o.baseline_error for o in self.outcomes]))

    @property
    def mean_best_error(self) -> float:
        return float(np.mean([o.best_error for o in self.outcomes]))

    @property
    def mean_relative_reduction(self) -> float:
        return float(np.mean([o.relative_reduction for o in self.outcomes]))

    @property
    def stderr_relative_reduction(self) -> float:
        values = [o.relative_reduction for o in self.outcomes]
        if len(values) < 2:
            return 0.0
        return float(np.std(values, ddof=1) / math.sqrt(len(values)))

    def to_json_obj(self) -> dict:
        return {
            "protocol": self.protocol,
            "lambda_grid": list(self.lambda_grid),
            "num_source_domains": self.num_source_domains,
            "num_seeds": len(self.outcomes),
            "seeds": [o.to_json_obj() for o in self.outcomes],
            "summary": {
                "mean_baseline_error": self.mean_baseline_error,
                "mean_best_error": self.mean_best_error,
                "mean_relative_reduction": self.mean_relative_reduction,
                "stderr_relative_reduction": self.stderr_relative_reduction,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":")) + "\n"

    def to_csv(self) -> str:
        lines = ["seed_index,lambda,error"]
        for outcome in self.outcomes:
            for lam, err in outcome.lambda_errors:
                lines.append(f"{outcome.seed_index},{lam!r},{err!r}")
        return "\n".join(lines) + "\n"


def _derived_seed(base: int, index: int) -> int:
    return int(np.random.SeedSequence([base, index]).generate_state(1, np.uint64)[0])


def _source_data(spec: ToyDataSpec, domain: str, condition: str) -> ToyDataset:
    return generate_toy_data(spec, domain, condition, "train")


def _pretrain(spec: ToyDataSpec, config: TrainConfig) -> ToyModel:
    pooled = concat_datasets(
        [
            _source_data(spec, f"source_{j}", condition)
            for j in range(spec.num_source_domains)
            for condition in ("real", "synthetic")
        ]
    )
    init = ToyModel.zeros(spec.num_classes_total, spec.feature_dim)
    return train(init, pooled, config)


def _curve_outcome(
    seed_index: int,
    target_model: ToyModel,
    tau: TaskVector,
    eval_data: ToyDataset,
    grid: tuple[float, ...],
) -> SeedOutcome:
    baseline = evaluate_error(target_model, eval_data)
    target_map = target_model.to_tensor_map()
    adapted = (ToyModel.from_tensor_map(apply_task_vector(target_map, tau, lam)) for lam in grid)
    curve = tuple((lam, evaluate_error(model, eval_data)) for lam, model in zip(grid, adapted))
    best_lam, best_err = curve[0]
    for lam, err in curve[1:]:  # ascending grid; strict < keeps the smaller lambda on ties
        if err < best_err:
            best_lam, best_err = lam, err
    reduction = 100.0 * (baseline - best_err) / baseline if baseline > 0 else 0.0
    return SeedOutcome(
        seed_index=seed_index,
        baseline_error=baseline,
        lambda_errors=curve,
        best_lambda=best_lam,
        best_error=best_err,
        relative_reduction=reduction,
    )


def _condition_vector(
    parent: ToyModel,
    spec: ToyDataSpec,
    config: TrainConfig,
    domains: Sequence[str],
    label: str,
) -> TaskVector:
    """Fine-tune parent on the pooled real and on the pooled synthetic train
    sets of domains; the task vector is real minus synthetic."""
    real_model, syn_model = (
        train(parent, concat_datasets([_source_data(spec, d, condition) for d in domains]),
              config)
        for condition in ("real", "synthetic")
    )
    return compute_task_vector(
        real_model.to_tensor_map(),
        syn_model.to_tensor_map(),
        Provenance(label, "real", f"synthetic_v{spec.channel_variant}"),
    )


def build_domain_task_vectors(
    spec: ToyDataSpec,
    config: TrainConfig,
    pretrained: ToyModel | None = None,
) -> list[TaskVector]:
    """One real-minus-synthetic task vector per source domain, from a shared
    pretrained parent."""
    parent = pretrained if pretrained is not None else _pretrain(spec, config)
    return [_condition_vector(parent, spec, config, [d], d) for d in spec.domain_labels()[:-1]]


def _run_protocol(
    data_spec: ToyDataSpec,
    train_config: TrainConfig,
    lambda_grid: Sequence[float],
    num_seeds: int,
    *,
    ensemble: bool,
    num_vectors: int | None = None,
) -> ProtocolReport:
    grid = validate_lambda_grid(lambda_grid)
    if num_seeds < 1:
        raise ValidationError("num_seeds must be positive")
    if num_vectors is not None and not 1 <= num_vectors <= data_spec.num_source_domains:
        raise ValidationError(
            f"num_vectors must lie in 1..{data_spec.num_source_domains}, got {num_vectors}"
        )
    outcomes = []
    for index in range(num_seeds):
        spec = replace(data_spec, seed=_derived_seed(data_spec.seed, index))
        config = replace(train_config, seed=_derived_seed(train_config.seed, index))
        parent = _pretrain(spec, config)
        target_model = train(parent, generate_toy_data(spec, "target", "synthetic", "train"),
                             config)
        sources = spec.domain_labels()[:-1]
        if ensemble:
            tau = ensemble_average(
                [_condition_vector(parent, spec, config, [d], d) for d in sources[:num_vectors]]
            )
        else:
            tau = _condition_vector(parent, spec, config, sources, "source")
        eval_data = generate_toy_data(spec, "target", "real", "eval")
        outcomes.append(_curve_outcome(index, target_model, tau, eval_data, grid))
    return ProtocolReport(
        protocol="ensemble" if ensemble else "single",
        lambda_grid=grid,
        num_source_domains=data_spec.num_source_domains,
        outcomes=tuple(outcomes),
    )


def run_adaptation_protocol(
    data_spec: ToyDataSpec,
    train_config: TrainConfig,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    num_seeds: int = 10,
) -> ProtocolReport:
    """Full pipeline with one pooled task vector over all source domains."""
    return _run_protocol(data_spec, train_config, lambda_grid, num_seeds, ensemble=False)


def run_ensemble_protocol(
    data_spec: ToyDataSpec,
    train_config: TrainConfig,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    num_seeds: int = 10,
    *,
    num_vectors: int | None = None,
) -> ProtocolReport:
    """Full pipeline with per-domain task vectors averaged at application time.

    ``num_vectors`` limits the ensemble to the first that many domain vectors
    (only those are trained) while keeping the rest of the world (pretraining
    pool, target model) fixed, which isolates the effect of ensemble size.
    With one source domain this reduces exactly to the pooled protocol.
    """
    return _run_protocol(
        data_spec, train_config, lambda_grid, num_seeds, ensemble=True,
        num_vectors=num_vectors,
    )
