"""Toy data generator, softmax trainer, and the end-to-end adaptation protocol."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from synvec import toy_experiment
from synvec.errors import TrainingDivergedError, ValidationError
from synvec.tensor_store import read_checkpoint, write_checkpoint
from synvec.toy_experiment import (
    ZERO_SHIFT,
    ConditionShift,
    ToyDataSpec,
    ToyDataset,
    ToyModel,
    TrainConfig,
    build_domain_task_vectors,
    concat_datasets,
    evaluate_error,
    generate_toy_data,
    loss_gradients,
    run_adaptation_protocol,
    run_ensemble_protocol,
    train,
    training_loss,
)
from synvec.vector_ops import apply_task_vector, compute_task_vector, save_task_vector


def small_spec(**kw):
    defaults = dict(samples_per_class=8, num_classes_per_domain=3, feature_dim=6)
    defaults.update(kw)
    return ToyDataSpec(**defaults)


def quick_config(**kw):
    defaults = dict(epochs=5, seed=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


# --- generator ---


def test_zero_shift_makes_conditions_identical():
    spec = small_spec(condition_shift=ZERO_SHIFT)
    real = generate_toy_data(spec, "source_0", "real", "train")
    syn = generate_toy_data(spec, "source_0", "synthetic", "train")
    assert real.features.tobytes() == syn.features.tobytes()
    assert np.array_equal(real.labels, syn.labels)


def test_generation_is_deterministic():
    spec = small_spec()
    a = generate_toy_data(spec, "target", "real", "eval")
    b = generate_toy_data(spec, "target", "real", "eval")
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.labels, b.labels)


def test_zero_noise_identity_condition_gives_exact_means():
    spec = small_spec(
        base_noise_stddev=0.0,
        condition_shift=ConditionShift(1.0, 0.0, 0.0, 0.0),
    )
    data = generate_toy_data(spec, "source_0", "real", "train")
    # every sample within a class is identical: class mean + domain offset
    for label in np.unique(data.labels):
        rows = data.features[data.labels == label]
        assert np.all(rows == rows[0])


def test_splits_and_domains_differ():
    spec = small_spec()
    train_split = generate_toy_data(spec, "target", "real", "train")
    eval_split = generate_toy_data(spec, "target", "real", "eval")
    assert train_split.features.tobytes() != eval_split.features.tobytes()
    other_domain = generate_toy_data(spec, "source_0", "real", "train")
    assert not np.array_equal(other_domain.labels, train_split.labels)


def test_target_labels_use_last_block():
    spec = small_spec(num_source_domains=2)
    data = generate_toy_data(spec, "target", "synthetic", "train")
    assert data.labels.min() == 2 * spec.num_classes_per_domain
    assert data.labels.max() == 3 * spec.num_classes_per_domain - 1


def test_unknown_domain_and_condition_rejected():
    spec = small_spec()
    with pytest.raises(ValidationError):
        generate_toy_data(spec, "source_1", "real", "train")  # only source_0 exists
    with pytest.raises(ValidationError):
        generate_toy_data(spec, "target", "augmented", "train")
    with pytest.raises(ValidationError):
        generate_toy_data(spec, "target", "real", "test")


@pytest.mark.parametrize("domain", ["source_9", "target2", "source_01", "source_+1", "source_ 1"])
def test_unknown_domain_label_rejected(domain):
    with pytest.raises(ValidationError, match="unknown domain"):
        generate_toy_data(small_spec(num_source_domains=3), domain, "real", "train")


@pytest.mark.parametrize("cls, field, value", [
    (ToyDataSpec, "class_mean_scale", math.inf),
    (ToyDataSpec, "base_noise_stddev", math.nan),
    (ConditionShift, "extra_noise_stddev", math.inf),
    (TrainConfig, "learning_rate", math.nan),
    (TrainConfig, "l2_penalty", math.inf),
    (ToyDataSpec, "channel_variant", -1),
    (ToyDataSpec, "seed", -1),
    (TrainConfig, "seed", -1),
    (ToyDataSpec, "feature_dim", 2.5),
    (TrainConfig, "epochs", 2.0),
    (ToyDataSpec, "condition_shift", None),
])
def test_toy_parameters_outside_their_bounds_are_validation_errors(cls, field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        cls(**{field: value})


def test_channel_is_shared_across_seeds_within_variant():
    base = small_spec(base_noise_stddev=0.0)
    a = generate_toy_data(dataclasses.replace(base, seed=1), "source_0", "synthetic", "train")
    b = generate_toy_data(dataclasses.replace(base, seed=2), "source_0", "synthetic", "train")
    # different worlds, but the same affine channel: different feature values
    assert a.features.tobytes() != b.features.tobytes()
    variant = generate_toy_data(
        dataclasses.replace(base, channel_variant=1, seed=1), "source_0", "synthetic", "train"
    )
    same_variant = generate_toy_data(
        dataclasses.replace(base, seed=1), "source_0", "synthetic", "train"
    )
    assert variant.features.tobytes() != same_variant.features.tobytes()


# --- model and training ---


def test_zero_epochs_returns_init_unchanged():
    spec = small_spec()
    data = generate_toy_data(spec, "source_0", "real", "train")
    init = ToyModel.zeros(spec.num_classes_total, spec.feature_dim)
    out = train(init, data, quick_config(epochs=0))
    assert np.array_equal(out.weights, init.weights)
    assert np.array_equal(out.bias, init.bias)


def test_linearly_separable_set_reaches_zero_training_error():
    rng = np.random.default_rng(5)
    n = 60
    features = np.concatenate(
        [rng.normal(-4, 0.3, size=(n, 2)), rng.normal(4, 0.3, size=(n, 2))]
    )
    labels = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    data = ToyDataset(features=features, labels=labels)
    model = train(ToyModel.zeros(2, 2), data, TrainConfig())
    assert evaluate_error(model, data) == 0.0


@pytest.mark.parametrize("features, labels, message", [
    (np.zeros((0, 3)), np.zeros(0), "cannot train on an empty dataset"),
    (np.zeros((2, 4)), np.zeros(2), "feature dim 4 does not match model dim 3"),
    (np.zeros((2, 3)), np.array([0, 2]), "labels fall outside the model's class range"),
    (np.zeros((2, 3)), np.array([-1, 0]), "labels fall outside the model's class range"),
], ids=["empty", "feature dim", "label too large", "negative label"])
def test_train_refuses_data_that_does_not_fit_the_model(features, labels, message):
    with pytest.raises(ValidationError) as exc:
        train(ToyModel.zeros(2, 3), ToyDataset(features=features, labels=labels), TrainConfig())
    assert str(exc.value) == message


def test_analytic_gradient_matches_finite_differences(rng):
    # 3 classes, 4 dims, central differences with a 1e-4 step
    features = rng.standard_normal((12, 4))
    labels = rng.integers(0, 3, size=12).astype(np.int64)
    data = ToyDataset(features=features, labels=labels)
    model = ToyModel(rng.standard_normal((3, 4)) * 0.4, rng.standard_normal(3) * 0.2)
    l2 = 1e-3
    _, grad_w, grad_b = loss_gradients(model, data, l2)
    step = 1e-4

    def numeric(get, put):
        flat = get().copy().reshape(-1)
        grads = np.zeros_like(flat)
        for i in range(flat.size):
            for sign in (1.0, -1.0):
                bumped = flat.copy()
                bumped[i] += sign * step
                grads[i] += sign * training_loss(put(bumped.reshape(get().shape)), data, l2)
        return grads / (2 * step)

    numeric_w = numeric(lambda: model.weights,
                        lambda w: ToyModel(w, model.bias)).reshape(model.weights.shape)
    numeric_b = numeric(lambda: model.bias, lambda b: ToyModel(model.weights, b))
    assert np.max(np.abs(grad_w - numeric_w)) <= 1e-5
    assert np.max(np.abs(grad_b - numeric_b)) <= 1e-5


def test_training_reduces_loss():
    spec = small_spec()
    data = generate_toy_data(spec, "source_0", "real", "train")
    init = ToyModel.zeros(spec.num_classes_total, spec.feature_dim)
    config = quick_config()
    trained = train(init, data, config)
    assert training_loss(trained, data, config.l2_penalty) <= \
        training_loss(init, data, config.l2_penalty)


def test_divergence_reports_epoch_and_batch():
    # lr * l2 >> 1 multiplies the weights every step until they overflow
    spec = small_spec(class_mean_scale=50.0, base_noise_stddev=0.0)
    data = generate_toy_data(spec, "source_0", "real", "train")
    with pytest.raises(TrainingDivergedError) as exc:
        train(ToyModel.zeros(spec.num_classes_total, spec.feature_dim), data,
              TrainConfig(learning_rate=1e12, epochs=60))
    assert exc.value.epoch is not None and exc.value.batch is not None


def _model_digest(model):
    return hashlib.sha256(model.weights.tobytes() + model.bias.tobytes()).hexdigest()


def _train_cases():
    spec_a = small_spec(seed=3)
    spec_b = small_spec(seed=4, samples_per_class=11)
    rng = np.random.default_rng(9)
    init = ToyModel(rng.standard_normal((6, 6)) * 0.3, rng.standard_normal(6) * 0.1)
    return {
        "one_batch": (ToyModel.zeros(6, 6), generate_toy_data(spec_a, "source_0", "real", "train"),
                      TrainConfig(epochs=5, seed=1)),
        "last_batch_of_one": (ToyModel.zeros(6, 6),
                              generate_toy_data(spec_b, "target", "synthetic", "train"),
                              TrainConfig(epochs=3, batch_size=8, l2_penalty=0.0, seed=7)),
        "random_init": (init, generate_toy_data(spec_a, "target", "real", "train"),
                        TrainConfig(epochs=4, batch_size=5, l2_penalty=1e-2, seed=2)),
    }


@pytest.mark.parametrize(
    "case, digest",
    [
        ("one_batch", "b3c078255c7ac1fc1300b6372627fcaabdaeaed69bb58a385fccad7b9ea18941"),
        ("last_batch_of_one", "3343f41f7b670b97023b566d0821843f814903f017e10af9ba1f55c4ba671a8e"),
        ("random_init", "62c83f6147a962e2cc39bd29d1aa0f4851c6b390e07dc1d911641f93a3d28c02"),
    ],
)
def test_train_golden_digest(case, digest):
    # Pinned weight and bias bytes: one batch, a last batch of one sample, a random init.
    # Like the pretrain and domain-vector pins, they need numpy's AVX-512 exp and log and
    # the OpenBLAS F64 matmul kernel they were pinned with (README: bit-stable per host).
    assert _model_digest(train(*_train_cases()[case])) == digest


def test_pretrain_golden_digest():
    from synvec.toy_experiment import _pretrain

    # Needs AVX-512 exp and log and the pinning OpenBLAS matmul kernel (as the train pins).
    assert _model_digest(_pretrain(*_three_domain_args())) == (
        "f8e1a580a3c99018e006a659a3ab5234935fe8d5f1e45b221ea51644ef9a3da6"
    )


def _diverging_data(scale):
    # Zero features leave the weights at zero; otherwise lr * l2 = 3 doubles
    # them every step, so a smaller scale overflows later.
    rng = np.random.default_rng(1)
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1], dtype=np.int64)
    return ToyDataset(features=scale * rng.standard_normal((8, 4)), labels=labels)


DIVERGING_CONFIG = TrainConfig(learning_rate=1.0, l2_penalty=3.0, epochs=600, batch_size=4,
                               seed=5)


@pytest.mark.parametrize("scale, epoch", [(1e-150, 506), (1.0, 257)])
def test_divergence_point_is_pinned(scale, epoch):
    with pytest.raises(TrainingDivergedError) as exc:
        train(ToyModel.zeros(3, 4), _diverging_data(scale), DIVERGING_CONFIG)
    assert (exc.value.epoch, exc.value.batch) == (epoch, 0)
    assert str(exc.value) == f"non-finite training loss inf at epoch {epoch}, batch 0"


def test_training_is_deterministic():
    spec = small_spec()
    data = generate_toy_data(spec, "source_0", "synthetic", "train")
    init = ToyModel.zeros(spec.num_classes_total, spec.feature_dim)
    a = train(init, data, quick_config())
    b = train(init, data, quick_config())
    assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


# --- evaluation ---


def test_true_logit_model_has_zero_error(rng):
    # identity weights on one-hot features produce the true one-hot logits
    labels = rng.integers(0, 4, size=40).astype(np.int64)
    onehot_features = np.eye(4)[labels]
    model = ToyModel(np.eye(4), np.zeros(4))
    assert evaluate_error(model, ToyDataset(features=onehot_features, labels=labels)) == 0.0


def test_zero_model_on_balanced_data():
    # labels 0..9 balanced, 2000 samples; argmax ties resolve to class 0
    spec = ToyDataSpec(samples_per_class=200)
    data = generate_toy_data(spec, "source_0", "real", "eval")
    assert len(data) == 2000
    model = ToyModel.zeros(spec.num_classes_total, spec.feature_dim)
    assert evaluate_error(model, data) == pytest.approx(0.9, abs=0.05)


def test_training_improves_over_init():
    spec = small_spec()
    data = generate_toy_data(spec, "source_0", "real", "train")
    init = ToyModel.zeros(spec.num_classes_total, spec.feature_dim)
    trained = train(init, data, quick_config())
    assert evaluate_error(trained, data) <= evaluate_error(init, data)


def test_empty_dataset_rejected():
    model = ToyModel.zeros(3, 2)
    data = ToyDataset(features=np.empty((0, 2)), labels=np.empty(0, dtype=np.int64))
    with pytest.raises(ValidationError):
        evaluate_error(model, data)


def test_tensor_map_round_trip_preserves_model(rng):
    model = ToyModel(rng.standard_normal((4, 3)), rng.standard_normal(4))
    back = ToyModel.from_tensor_map(model.to_tensor_map())
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.bias, model.bias)


# --- protocols ---


def fast_protocol_args():
    spec = small_spec(samples_per_class=12)
    config = quick_config(epochs=8)
    return spec, config


def test_zero_only_grid_gives_exactly_zero_reduction():
    spec, config = fast_protocol_args()
    report = run_adaptation_protocol(spec, config, lambda_grid=(0.0,), num_seeds=2)
    for outcome in report.outcomes:
        assert outcome.best_lambda == 0.0
        assert outcome.best_error == outcome.baseline_error
        assert outcome.relative_reduction == 0.0


def test_protocol_reports_are_deterministic():
    spec, config = fast_protocol_args()
    a = run_adaptation_protocol(spec, config, num_seeds=2)
    b = run_adaptation_protocol(spec, config, num_seeds=2)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_zero_gap_reduction_is_exactly_zero_every_seed():
    spec = small_spec(condition_shift=ZERO_SHIFT, samples_per_class=12)
    report = run_adaptation_protocol(spec, quick_config(epochs=8), num_seeds=4)
    assert all(o.relative_reduction == 0.0 for o in report.outcomes)
    assert report.mean_relative_reduction == 0.0


def test_ensemble_with_one_domain_equals_single_protocol():
    spec, config = fast_protocol_args()
    single = run_adaptation_protocol(spec, config, num_seeds=3)
    ensemble = run_ensemble_protocol(spec, config, num_seeds=3)
    for a, b in zip(single.outcomes, ensemble.outcomes):
        assert a.baseline_error == b.baseline_error
        assert a.lambda_errors == b.lambda_errors
        assert a.best_lambda == b.best_lambda


def test_ensemble_num_vectors_validated():
    spec, config = fast_protocol_args()
    with pytest.raises(ValidationError):
        run_ensemble_protocol(spec, config, num_seeds=1, num_vectors=2)


def test_serialized_models_reproduce_protocol_point(tmp_path):
    # Interface identity: pushing the models through the container changes nothing.
    spec, config = fast_protocol_args()
    from synvec.toy_experiment import _pretrain

    parent = _pretrain(spec, config)
    target = train(parent, generate_toy_data(spec, "target", "synthetic", "train"), config)
    real_s = train(parent, generate_toy_data(spec, "source_0", "real", "train"), config)
    syn_s = train(parent, generate_toy_data(spec, "source_0", "synthetic", "train"), config)
    tau = compute_task_vector(real_s.to_tensor_map(), syn_s.to_tensor_map())
    eval_data = generate_toy_data(spec, "target", "real", "eval")

    direct = ToyModel.from_tensor_map(
        apply_task_vector(target.to_tensor_map(), tau, 0.5)
    )
    target_path = tmp_path / "target.st"
    write_checkpoint(target.to_tensor_map(), target_path)
    reloaded = ToyModel.from_tensor_map(
        apply_task_vector(read_checkpoint(target_path), tau, 0.5)
    )
    assert evaluate_error(direct, eval_data) == evaluate_error(reloaded, eval_data)
    assert np.array_equal(direct.weights, reloaded.weights)


def test_domain_vectors_carry_provenance():
    spec = small_spec(num_source_domains=2, samples_per_class=10)
    vectors = build_domain_task_vectors(spec, quick_config(epochs=4))
    assert [v.provenance.source_domain_label for v in vectors] == ["source_0", "source_1"]
    assert all(v.provenance.syn_condition_label == "synthetic_v0" for v in vectors)


def _three_domain_args():
    spec = small_spec(num_source_domains=3, samples_per_class=12, num_classes_per_domain=4,
                      feature_dim=8)
    return spec, quick_config(epochs=8)


@pytest.mark.parametrize(
    "num_vectors, digest",
    [
        ("single", "39bace276e86decbc4fbc39c466e31b4b9e7eb7c95dc4560ec1c4e03a89410ea"),
        (1, "c96e9851fbafba469cccb73f903f2543341311fb9d88e5887155d90b4366e59e"),
        (2, "57c32c19fdb60b6b1518ab2ca74d274fbd491518285cb48a36a686ad6a03eb8c"),
        (3, "1d01a09fdb61a95bf988425fb59f1d30ba489e385791aee631ab15177625b4c1"),
        (None, "1d01a09fdb61a95bf988425fb59f1d30ba489e385791aee631ab15177625b4c1"),
    ],
)
def test_protocol_report_golden_digest(num_vectors, digest):
    # Pinned output bytes; k = 3 and None average the same three vectors.
    spec, config = _three_domain_args()
    if num_vectors == "single":
        report = run_adaptation_protocol(spec, config, num_seeds=2)
    else:
        report = run_ensemble_protocol(spec, config, num_seeds=2, num_vectors=num_vectors)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def test_domain_task_vectors_golden_digest(tmp_path):
    # Needs AVX-512 exp and log and the pinning OpenBLAS matmul kernel (as the train pins).
    spec, config = _three_domain_args()
    h = hashlib.sha256()
    for i, tau in enumerate(build_domain_task_vectors(spec, config)):
        path = tmp_path / f"tau_{i}.st"
        save_task_vector(tau, path)
        h.update(path.read_bytes())
    assert h.hexdigest() == (
        "54f3f932c53e46ffc310e9e44dab683f599944868efbeb1cc0a95a31fd345255"
    )


def _record_lockstep_runs(monkeypatch, inject=None):
    """Record the model count of every lockstep run; inject(run_index, results) may
    replace results to simulate a failure."""
    runs = []
    real_lockstep = toy_experiment._train_lockstep

    def recording_lockstep(inits, features, labels, configs):
        runs.append(len(inits))
        results = real_lockstep(inits, features, labels, configs)
        return inject(len(runs) - 1, results) if inject else results

    monkeypatch.setattr(toy_experiment, "_train_lockstep", recording_lockstep)
    return runs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ensemble_protocol_trains_only_the_vectors_it_averages(monkeypatch, k):
    # Per seed: the pretrain, the target fine-tune, and a real and a synthetic
    # fine-tune for each of the k averaged domains. One run pretrains every
    # seed; per seed, one run fine-tunes the target and one the 2k conditions.
    runs = _record_lockstep_runs(monkeypatch)
    spec, config = _three_domain_args()
    run_ensemble_protocol(spec, config, lambda_grid=(0.0, 0.5), num_seeds=2, num_vectors=k)
    assert sum(runs) == 2 * (2 + 2 * k)
    assert len(runs) == 1 + 2 * 2


def test_lockstep_models_equal_training_each_alone():
    # Mixed data seeds, shuffle seeds and inits, one shared n; 13 samples
    # with batch 4 end every epoch on a batch of one.
    rng = np.random.default_rng(3)
    datasets = [
        generate_toy_data(small_spec(seed=s, samples_per_class=13, num_classes_per_domain=2),
                          "source_0", c, "train")
        for s, c in [(1, "real"), (2, "synthetic"), (3, "real")]
    ]
    inits = [ToyModel.zeros(4, 6), ToyModel(rng.standard_normal((4, 6)), rng.standard_normal(4)),
             ToyModel.zeros(4, 6)]
    configs = [TrainConfig(epochs=3, batch_size=4, l2_penalty=1e-2, seed=s) for s in (7, 8, 7)]
    results = toy_experiment._train_lockstep(
        inits, np.stack([d.features for d in datasets]), np.stack([d.labels for d in datasets]),
        configs,
    )
    for init, data, config, result in zip(inits, datasets, configs, results):
        assert _model_digest(result) == _model_digest(train(init, data, config))


def test_lockstep_divergence_matches_training_each_alone():
    # [ok, diverges late, diverges early]: each entry is what training the model
    # alone gives, so callers that unwrap in order raise the late (lower-index) one.
    datasets = [_diverging_data(scale) for scale in (0.0, 1e-150, 1.0)]
    init = ToyModel.zeros(3, 4)
    results = toy_experiment._train_lockstep(
        [init] * 3, np.stack([d.features for d in datasets]),
        np.stack([d.labels for d in datasets]), [DIVERGING_CONFIG] * 3,
    )
    assert _model_digest(results[0]) == _model_digest(train(init, datasets[0], DIVERGING_CONFIG))
    for data, result in zip(datasets[1:], results[1:]):
        assert isinstance(result, TrainingDivergedError)
        with pytest.raises(TrainingDivergedError) as alone:
            train(init, data, DIVERGING_CONFIG)
        assert (result.epoch, result.batch, str(result)) == \
            (alone.value.epoch, alone.value.batch, str(alone.value))
    assert (results[1].epoch, results[2].epoch) == (506, 257)


def test_lockstep_rejects_models_with_different_settings():
    data = generate_toy_data(small_spec(), "source_0", "real", "train")
    with pytest.raises(ValidationError):
        toy_experiment._train_lockstep(
            [ToyModel.zeros(6, 6)] * 2, np.stack([data.features] * 2),
            np.stack([data.labels] * 2), [quick_config(), quick_config(epochs=6)],
        )


def _fail_last_model(*run_indices):
    def inject(index, results):
        if index in run_indices:
            results = [*results[:-1], TrainingDivergedError(f"injected {index}", epoch=1, batch=0)]
        return results
    return inject


@pytest.mark.parametrize("failing_runs, raised", [((0,), "injected 0"), ((0, 2), "injected 2")])
def test_protocol_raises_failures_in_serial_order(monkeypatch, failing_runs, raised):
    # Runs: 0 pretrains both seeds; 1 and 2 are seed 0's target and
    # conditions. Seed 1's failed pretrain (the last model of run 0) is raised
    # only after seed 0's stages, and a failure there comes first, as it did
    # when every model was trained one at a time.
    runs = _record_lockstep_runs(monkeypatch, inject=_fail_last_model(*failing_runs))
    spec, config = _three_domain_args()
    with pytest.raises(TrainingDivergedError, match=raised):
        run_ensemble_protocol(spec, config, lambda_grid=(0.0,), num_seeds=2, num_vectors=2)
    assert runs == [2, 1, 4]


def test_report_json_shape():
    spec, config = fast_protocol_args()
    report = run_adaptation_protocol(spec, config, lambda_grid=(0.0, 0.5), num_seeds=2)
    obj = report.to_json_obj()
    assert obj["protocol"] == "single"
    assert obj["lambda_grid"] == [0.0, 0.5]
    assert obj["num_seeds"] == 2
    assert set(obj["summary"]) == {
        "mean_baseline_error",
        "mean_best_error",
        "mean_relative_reduction",
        "stderr_relative_reduction",
    }
    assert all(0.0 <= o["baseline_error"] <= 1.0 for o in obj["seeds"])


def test_concat_datasets_validates():
    with pytest.raises(ValidationError):
        concat_datasets([])
