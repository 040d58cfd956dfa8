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
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .errors import TrainingDivergedError, ValidationError
from .sweep_harness import DEFAULT_LAMBDA_GRID, best_point, relative_wer, validate_lambda_grid
from .tensor_store import TensorMap
from .vector_ops import (
    Provenance,
    TaskVector,
    apply_task_vector,
    compute_task_vector,
    ensemble_average,
    require_count,
    require_finite_real,
)

# Stream tags for deriving independent generator streams from one seed.
_STRUCTURE_STREAM = 0
_BASE_NOISE_STREAM = 1
_EXTRA_NOISE_STREAM = 2
_CHANNEL_STREAM = 3

WEIGHT_TENSOR = "linear.weight"
BIAS_TENSOR = "linear.bias"


def _bounded(default, low, above=False):
    """A dataclass field with ``default`` whose value must be a finite number,
    an integer if ``default`` is one, of at least ``low``, or a float above
    ``low`` if ``above`` is set; the bound is kept in the field's metadata,
    where :func:`_check_bounds` and the CLI read it."""
    return field(default=default, metadata={"low": low, "above": above})


def _check_bounds(instance) -> None:
    """A ValidationError naming the first bounded field of ``instance`` whose
    value is not an integer of at least its bound where the default is one
    (:func:`require_count`), or else not finite or outside its bound."""
    for f in fields(instance):
        if "low" in f.metadata:
            value, low, above = getattr(instance, f.name), f.metadata["low"], f.metadata["above"]
            if type(f.default) is int:
                require_count(value, f.name, low)
            elif require_finite_real(value, f.name) < low or above and value == low:
                raise ValidationError(f"{f.name} must be a number {'>' if above else '>='} {low},"
                                      f" got {value!r}")


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

    channel_gain: float = _bounded(0.5, 0, above=True)
    channel_scale: float = _bounded(0.25, 0)
    channel_bias_scale: float = _bounded(0.6, 0)
    extra_noise_stddev: float = _bounded(1.0, 0)

    def __post_init__(self):
        _check_bounds(self)


ZERO_SHIFT = ConditionShift(1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ToyDataSpec:
    """Distribution parameters for the toy domains.

    Domains are "source_0" .. "source_{k-1}" and "target"; domain i owns
    classes [i * num_classes_per_domain, (i+1) * num_classes_per_domain).
    Generation is a pure function of (spec fields, domain, condition, split).
    """

    num_classes_per_domain: int = _bounded(10, 2)
    feature_dim: int = _bounded(32, 1)
    num_source_domains: int = _bounded(1, 1)
    class_mean_scale: float = _bounded(0.8, 0)
    domain_offset_scale: float = _bounded(0.4, 0)
    base_noise_stddev: float = _bounded(0.85, 0)
    condition_shift: ConditionShift = ConditionShift()
    samples_per_class: int = _bounded(32, 1)
    channel_variant: int = _bounded(0, 0)
    seed: int = _bounded(0, 0)

    def __post_init__(self):
        _check_bounds(self)
        if not isinstance(self.condition_shift, ConditionShift):
            raise ValidationError(
                f"condition_shift must be a ConditionShift, got {self.condition_shift!r}")

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
    labels = spec.domain_labels()
    if domain not in labels:
        raise ValidationError(
            f"unknown domain {domain!r}; expected 'target' or 'source_0'..'source_"
            f"{spec.num_source_domains - 1}'"
        )
    return labels.index(domain)


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
    learning_rate: float = _bounded(0.1, 0, above=True)
    epochs: int = _bounded(30, 0)
    batch_size: int = _bounded(32, 1)
    l2_penalty: float = _bounded(1e-4, 0)
    seed: int = _bounded(0, 0)

    def __post_init__(self):
        _check_bounds(self)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy plus 0.5 * l2 * ||W||^2 (bias unpenalized)
    of M models stacked on axis 0.

    weights [M, classes, dim], bias [M, classes], features [M, n, dim] and
    labels [M, n] give losses [M] and gradients shaped like weights and bias.
    Every matmul and reduction runs per model slice in the order a lone model's
    would, so each model's numbers do not depend on the others.
    """
    m, n = labels.shape
    rows, cols = np.arange(m)[:, None], np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught by the caller
        logits = features @ weights.transpose(0, 2, 1) + bias[:, None, :]
        shifted = logits - logits.max(axis=2, keepdims=True)
        exp = np.exp(shifted)
        denom = exp.sum(axis=2, keepdims=True)
        # The labels' log-probabilities, as shifted - log(denom) gives them, and
        # their mean, as .mean(axis=1) gives it.
        log_probs = shifted[rows, cols, labels] - np.log(denom[:, :, 0])
        nll = -(log_probs.sum(axis=1) / n)
        loss = nll + 0.5 * l2_penalty * (weights * weights).reshape(m, -1).sum(axis=1)
        grad_logits = exp / denom
        grad_logits[rows, cols, labels] -= 1.0
        grad_logits /= n
        grad_w = grad_logits.transpose(0, 2, 1) @ features + l2_penalty * weights
        grad_b = grad_logits.sum(axis=1)
    return loss, grad_w, grad_b


def training_loss(model: ToyModel, data: ToyDataset, l2_penalty: float = 0.0) -> float:
    loss, _, _ = loss_gradients(model, data, l2_penalty)
    return loss


def loss_gradients(
    model: ToyModel, data: ToyDataset, l2_penalty: float = 0.0
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus analytic gradients w.r.t. weights and bias."""
    loss, grad_w, grad_b = _loss_and_grads(
        model.weights[None], model.bias[None], data.features[None], data.labels[None], l2_penalty
    )
    return float(loss[0]), grad_w[0], grad_b[0]


def _train_lockstep(
    inits: Sequence[ToyModel],
    features: np.ndarray,
    labels: np.ndarray,
    configs: Sequence[TrainConfig],
) -> list[ToyModel | TrainingDivergedError]:
    """Train M independent models in one minibatch gradient-descent loop.

    Model m starts from inits[m] and trains on features[m] ([n, dim]) and
    labels[m] ([n]), shuffled per (configs[m].seed, epoch); the configs may
    differ only in their seeds. Each step updates all M models with one NumPy
    call per op, and each result is bit-identical to training that model
    alone. A model whose loss turns non-finite gets, in place of its model,
    the TrainingDivergedError its lone run would raise; the others train on.
    """
    config = configs[0]
    if any(replace(c, seed=config.seed) != config for c in configs):
        raise ValidationError("models trained together must share all settings but the seed")
    weights = np.stack([init.weights for init in inits])
    bias = np.stack([init.bias for init in inits])
    num_models, n = labels.shape
    if n == 0:
        raise ValidationError("cannot train on an empty dataset")
    if features.shape[2] != weights.shape[2]:
        raise ValidationError(
            f"feature dim {features.shape[2]} does not match model dim {weights.shape[2]}"
        )
    if int(labels.max()) >= weights.shape[1] or int(labels.min()) < 0:
        raise ValidationError("labels fall outside the model's class range")
    flat_features = features.reshape(num_models * n, -1)
    flat_labels = labels.reshape(-1)
    offsets = np.arange(num_models)[:, None] * n
    diverged: dict[int, TrainingDivergedError] = {}
    # A diverged model keeps stepping on non-finite weights until all have diverged.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = offsets + np.stack([
                np.random.default_rng(np.random.SeedSequence([c.seed, epoch])).permutation(n)
                for c in configs
            ])
            for batch_index, start in enumerate(range(0, n, config.batch_size)):
                idx = order[:, start:start + config.batch_size]
                loss, grad_w, grad_b = _loss_and_grads(
                    weights, bias, flat_features[idx], flat_labels[idx], config.l2_penalty
                )
                if not np.isfinite(loss).all():
                    for m in np.flatnonzero(~np.isfinite(loss)).tolist():
                        diverged.setdefault(m, TrainingDivergedError(
                            f"non-finite training loss {float(loss[m])!r} at epoch {epoch}, "
                            f"batch {batch_index}",
                            epoch=epoch,
                            batch=batch_index,
                        ))
                    if len(diverged) == num_models:
                        return [diverged[m] for m in range(num_models)]
                weights -= config.learning_rate * grad_w
                bias -= config.learning_rate * grad_b
    return [diverged[m] if m in diverged else ToyModel(weights[m], bias[m])
            for m in range(num_models)]


def _trained(result: ToyModel | TrainingDivergedError) -> ToyModel:
    if isinstance(result, TrainingDivergedError):
        raise result
    return result


def train(init: ToyModel, data: ToyDataset, config: TrainConfig) -> ToyModel:
    """Minibatch gradient descent from init; shuffling is fixed per (seed, epoch).

    Zero epochs returns init unchanged. A non-finite loss aborts with the
    epoch and batch where training diverged.
    """
    result, = _train_lockstep([init], data.features[None], data.labels[None], [config])
    return _trained(result)


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


def _stack_train_sets(
    models: Sequence[Sequence[tuple[ToyDataSpec, str, str]]],
) -> tuple[np.ndarray, np.ndarray]:
    """Each model's concatenated (spec, domain, condition) train sets, stacked
    into features [M, n, dim] and labels [M, n].

    The stack is filled one model at a time, so no list of data sets is held
    beside it.
    """
    features = labels = None
    for m, parts in enumerate(models):
        data = concat_datasets([generate_toy_data(*part, "train") for part in parts])
        if features is None:
            features = np.empty((len(models), *data.features.shape))
            labels = np.empty((len(models), len(data)), dtype=np.int64)
        features[m], labels[m] = data.features, data.labels
    return features, labels


def _pretrain_all(
    specs: Sequence[ToyDataSpec], configs: Sequence[TrainConfig]
) -> list[ToyModel | TrainingDivergedError]:
    """Every world's parent, trained from the zero model on its pooled source
    real and synthetic train sets, in one lockstep run."""
    features, labels = _stack_train_sets([
        [(spec, f"source_{j}", condition)
         for j in range(spec.num_source_domains) for condition in ("real", "synthetic")]
        for spec in specs
    ])
    init = ToyModel.zeros(specs[0].num_classes_total, specs[0].feature_dim)
    return _train_lockstep([init] * len(specs), features, labels, configs)


def _pretrain(spec: ToyDataSpec, config: TrainConfig) -> ToyModel:
    return _trained(_pretrain_all([spec], [config])[0])


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
    best_lam, best_err = best_point(curve)
    reduction = relative_wer(baseline, best_err) if baseline > 0 else 0.0
    return SeedOutcome(
        seed_index=seed_index,
        baseline_error=baseline,
        lambda_errors=curve,
        best_lambda=best_lam,
        best_error=best_err,
        relative_reduction=reduction,
    )


def _condition_vectors(
    parent: ToyModel,
    spec: ToyDataSpec,
    config: TrainConfig,
    groups: dict[str, Sequence[str]],
) -> list[TaskVector]:
    """Fine-tune parent on the pooled real and on the pooled synthetic train
    sets of each named domain group, all in one lockstep run; each group's
    task vector, named after it, is real minus synthetic."""
    features, labels = _stack_train_sets([
        [(spec, domain, condition) for domain in domains]
        for domains in groups.values() for condition in ("real", "synthetic")
    ])
    runs = _train_lockstep([parent] * len(labels), features, labels, [config] * len(labels))
    # Unwrapped pair by pair, so a failure surfaces where one-at-a-time training raised it.
    return [
        compute_task_vector(
            _trained(real).to_tensor_map(),
            _trained(syn).to_tensor_map(),
            Provenance(name, "real", f"synthetic_v{spec.channel_variant}"),
        )
        for name, real, syn in zip(groups, runs[0::2], runs[1::2])
    ]


def build_domain_task_vectors(spec: ToyDataSpec, config: TrainConfig) -> list[TaskVector]:
    """One real-minus-synthetic task vector per source domain, from a shared
    pretrained parent."""
    sources = spec.domain_labels()[:-1]
    return _condition_vectors(_pretrain(spec, config), spec, config, {d: [d] for d in sources})


def _run_protocol(
    data_spec: ToyDataSpec,
    train_config: TrainConfig,
    lambda_grid: Sequence[float],
    num_seeds: int,
    protocol: str,
    groups: dict[str, Sequence[str]],
) -> ProtocolReport:
    """Per seed, the mean of the task vectors of the named domain groups
    (see :func:`_condition_vectors`) adapts the target model."""
    grid = validate_lambda_grid(lambda_grid)
    require_count(num_seeds, "num_seeds", 1)
    specs = [replace(data_spec, seed=_derived_seed(data_spec.seed, i)) for i in range(num_seeds)]
    configs = [replace(train_config, seed=_derived_seed(train_config.seed, i))
               for i in range(num_seeds)]
    parents = _pretrain_all(specs, configs)
    outcomes = []
    for index, (spec, config, parent) in enumerate(zip(specs, configs, parents)):
        parent = _trained(parent)  # a seed's failure surfaces after earlier seeds' stages
        target_model = train(parent, generate_toy_data(spec, "target", "synthetic", "train"),
                             config)
        tau = ensemble_average(_condition_vectors(parent, spec, config, groups))
        eval_data = generate_toy_data(spec, "target", "real", "eval")
        outcomes.append(_curve_outcome(index, target_model, tau, eval_data, grid))
    return ProtocolReport(
        protocol=protocol,
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
    groups = {"source": data_spec.domain_labels()[:-1]}
    return _run_protocol(data_spec, train_config, lambda_grid, num_seeds, "single", groups)


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
    if (num_vectors is not None
            and require_count(num_vectors, "num_vectors", 1) > data_spec.num_source_domains):
        raise ValidationError(
            f"num_vectors must lie in 1..{data_spec.num_source_domains}, got {num_vectors}"
        )
    sources = data_spec.domain_labels()[:-1][:num_vectors]
    return _run_protocol(data_spec, train_config, lambda_grid, num_seeds, "ensemble",
                         {d: [d] for d in sources})
