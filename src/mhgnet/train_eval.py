"""Loss, optimizer, schedules, metrics, training loop, and ablation harness."""

from __future__ import annotations

import csv
import math
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .clusterer import ClusterAssignment
from .data import DataBundle, Scaler, TrafficSeries, WindowedDataset, make_bundle
from .errors import ConfigError, DivergenceError, MetricsError
from .model import ForecastModel, ModelConfig, apply_variant
from .numcore import Parameter, SplitRng, Tensor, abs_, no_grad, slice_axis, sum_

MASK_THRESHOLD = 1e-4  # readings at or below this magnitude are sentinels
ADAM_BETAS = (0.9, 0.999)  # decay rates of the first and second moments
ADAM_EPS = 1e-8  # added to the second moment's root
ADAM_WEIGHT_DECAY = 1e-5  # L2 coefficient added to every gradient


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsReport:
    """Masked MAE/RMSE/MAPE, overall and per forecast step."""

    mae: float
    rmse: float
    mape: float  # percent
    horizon_mae: list[float]
    horizon_rmse: list[float]
    horizon_mape: list[float]
    mask_count: int


def masked_metrics(pred: np.ndarray, target: np.ndarray) -> MetricsReport:
    """Metrics over entries where |target| exceeds the zero-sentinel threshold.

    ``pred`` and ``target`` must have identical shapes with the forecast
    step on axis 1; values are expected in native (inverse-scaled) units.
    Per-horizon slots with an empty mask come back as nan.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ConfigError(f"shape mismatch: {pred.shape} vs {target.shape}")
    mask = np.abs(target) > MASK_THRESHOLD
    count = int(mask.sum())
    if count == 0:
        raise MetricsError("all target entries are masked; metrics undefined")
    diff = np.abs(pred - target)
    mae, rmse, mape = _errors(diff, target, mask)
    per_step = [_errors(diff[:, h], target[:, h], mask[:, h]) for h in range(pred.shape[1])]
    h_mae, h_rmse, h_mape = (list(col) for col in zip(*per_step))
    return MetricsReport(mae, rmse, mape, h_mae, h_rmse, h_mape, mask_count=count)


def _errors(diff: np.ndarray, target: np.ndarray, mask: np.ndarray) -> tuple[float, float, float]:
    """MAE, RMSE and MAPE (percent) over the masked entries; nan when none are."""
    if not mask.any():
        return float("nan"), float("nan"), float("nan")
    d = diff[mask]
    return (
        float(d.mean()),
        float(np.sqrt((d ** 2).mean())),
        float((d / np.abs(target[mask])).mean() * 100.0),
    )


def masked_mae_loss(pred_scaled: Tensor, target: np.ndarray, scaler: Scaler) -> Tensor:
    """Differentiable masked MAE in native units over the visible horizon."""
    mask = (np.abs(target) > MASK_THRESHOLD).astype(np.float64)
    count = float(mask.sum())
    if count == 0.0:
        raise MetricsError("all target entries are masked; loss undefined")
    pred = pred_scaled * scaler.std + scaler.mean
    return sum_(abs_(pred - Tensor(target)) * Tensor(mask)) / count


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with L2 weight decay: ``ADAM_WEIGHT_DECAY * w`` joins the gradient
    before the moments (not AdamW's decoupled decay), so a parameter with no
    task gradient still moves by about lr * sign(w) per step."""

    def __init__(self, params: list[Parameter], lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self._m = [np.zeros_like(p.tensor.data) for p in params]
        self._v = [np.zeros_like(p.tensor.data) for p in params]

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        b1, b2 = ADAM_BETAS
        self.step_count += 1
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            t = p.tensor
            grad = t.grad if t.grad is not None else np.zeros_like(t.data)
            grad = grad + ADAM_WEIGHT_DECAY * t.data
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            t.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# schedules


@dataclass
class Schedule:
    """Warm-up plus curriculum settings for multi-horizon training."""

    warmup_epochs: int = 20
    curriculum_length: int = 3
    max_horizon: int = 12
    base_lr: float = 0.006

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.warmup_epochs < 0:
            raise ConfigError("warmup_epochs must be >= 0")
        if self.curriculum_length < 1:
            raise ConfigError("curriculum_length must be >= 1")
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.base_lr}")


def curriculum_horizon(epoch: int, s: Schedule) -> int:
    """Supervised horizon for an epoch: floor at 1 during warm-up, then one
    extra step every ``curriculum_length`` epochs, capped at the full horizon."""
    if epoch < s.warmup_epochs:
        return 1
    return min(s.max_horizon, 2 + (epoch - s.warmup_epochs) // s.curriculum_length)


def learning_rate(epoch: int, s: Schedule) -> float:
    """The base rate, ramped linearly across the warm-up epochs."""
    if s.warmup_epochs > 0:
        return s.base_lr * min(1.0, (epoch + 1) / s.warmup_epochs)
    return s.base_lr


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochRecord:
    epoch: int
    horizon: int
    lr: float
    train_mae: float
    val_mae: float
    val_rmse: float
    val_mape: float
    seconds: float


@dataclass
class TrainResult:
    log: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_val_mae: float = float("inf")
    best_state: dict[str, np.ndarray] | None = None
    best_assignment: ClusterAssignment | None = None


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")


def _batched(n: int, batch_size: int, order: np.ndarray | None = None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, batch_size):
        yield idx[start : start + batch_size]


def predict(
    model: ForecastModel, data: WindowedDataset, scaler: Scaler, batch_size: int = 64
) -> np.ndarray:
    """Inverse-scaled forecasts [windows, T_f, N, 1] for a whole split (eval
    mode, no graph); an empty split gives an empty array."""
    _check_batch_size(batch_size)
    model.eval_mode()
    if len(data) == 0:
        return np.empty((0, model.cfg.t_f, model.cfg.n, 1))
    outputs = []
    with no_grad():
        for idx in _batched(len(data), batch_size):
            x = scaler.apply(data.inputs[idx][..., :1])
            pred = model.forward(x, data.tod_index[idx], data.dow_index[idx])
            outputs.append(scaler.invert(pred.data))
    return np.concatenate(outputs, axis=0)


def evaluate(
    model: ForecastModel, data: WindowedDataset, scaler: Scaler, batch_size: int = 64
) -> MetricsReport:
    pred = predict(model, data, scaler, batch_size)
    return masked_metrics(pred, data.targets)


def _diagnostics(model: ForecastModel, epoch: int, batch: int) -> str:
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged norm reads inf or nan
        norms = ", ".join(
            f"{p.name}={float(np.linalg.norm(p.tensor.data)):.3e}"
            for p in model.parameters()[:8]
        )
    return f"epoch={epoch} batch={batch} param_norms: {norms}"


def _first_diverged(model: ForecastModel) -> str | None:
    """The name of the first parameter whose sum of squares is not finite, if any.

    That sum is finite only when every value is finite and no larger than
    about 1e154 in magnitude; beyond that the next forward overflows.
    """
    for p in model.parameters():
        values = p.tensor.data.ravel()
        if not np.isfinite(values @ values):
            return p.name
    return None


def train(
    model: ForecastModel,
    data: DataBundle,
    schedule: Schedule,
    epochs: int,
    batch_size: int = 64,
    log_path=None,
) -> TrainResult:
    """Adam training with per-epoch cluster refresh and best-val tracking.

    ``log_path`` is rewritten after every epoch, so a run that stops early
    keeps the log of the epochs it finished.
    """
    _check_batch_size(batch_size)
    result = TrainResult()
    if epochs <= 0:
        return result
    optimizer = Adam(model.parameters(), lr=schedule.base_lr)
    shuffle_rng = SplitRng(model.cfg.seed).child("shuffle")

    for epoch in range(epochs):
        started = time.perf_counter()
        model.refresh_clusters(data.train, data.scaler)
        horizon = curriculum_horizon(epoch, schedule)
        lr = learning_rate(epoch, schedule)
        order = shuffle_rng.child(str(epoch)).permutation(len(data.train))

        model.train_mode()
        batch_losses = []
        for batch_no, idx in enumerate(_batched(len(data.train), batch_size, order)):
            x = data.scaler.apply(data.train.inputs[idx][..., :1])
            pred = model.forward(x, data.train.tod_index[idx], data.train.dow_index[idx])
            target = data.train.targets[idx][:, :horizon]
            loss = masked_mae_loss(slice_axis(pred, 1, 0, horizon), target, data.scaler)
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(
                    f"non-finite loss {value}: {_diagnostics(model, epoch, batch_no)}"
                )
            model.zero_grad()
            loss.backward()
            with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                optimizer.step(lr)
                diverged = _first_diverged(model)
            if diverged is not None:
                raise DivergenceError(
                    f"parameter {diverged} has a non-finite sum of squares after the Adam step: "
                    f"{_diagnostics(model, epoch, batch_no)}"
                )
            batch_losses.append(value)

        report = evaluate(model, data.val, data.scaler, batch_size)
        record = EpochRecord(
            epoch=epoch,
            horizon=horizon,
            lr=lr,
            train_mae=float(np.mean(batch_losses)),
            val_mae=report.mae,
            val_rmse=report.rmse,
            val_mape=report.mape,
            seconds=time.perf_counter() - started,
        )
        result.log.append(record)
        if log_path is not None:
            write_log(result.log, log_path)
        if not np.isfinite(report.mae):
            raise DivergenceError(
                f"non-finite val MAE {report.mae}: {_diagnostics(model, epoch, batch_no)}"
            )
        if report.mae < result.best_val_mae:
            result.best_val_mae = report.mae
            result.best_epoch = epoch
            result.best_state = model.store.state()
            result.best_assignment = model.assignment
    return result


def write_log(log: list[EpochRecord], path) -> None:
    """One CSV row per epoch, one column per :class:`EpochRecord` field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(EpochRecord))
        writer.writerows(astuple(r) for r in log)


# ---------------------------------------------------------------------------
# ablation harness

def run_ablation(
    variant: str,
    cfg: ModelConfig,
    series: TrafficSeries,
    schedule: Schedule,
    epochs: int,
    batch_size: int = 64,
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
) -> tuple[MetricsReport, TrainResult]:
    """Train a structural variant from scratch and report test metrics."""
    var_cfg = apply_variant(cfg, variant)
    bundle = make_bundle(series, var_cfg.t_h, var_cfg.t_f, ratios)
    model = ForecastModel(var_cfg)
    result = train(model, bundle, schedule, epochs, batch_size)
    if result.best_state is not None:
        model.store.load_state(result.best_state)
        model.set_assignment(result.best_assignment)
    report = evaluate(model, bundle.test, bundle.scaler, batch_size)
    return report, result
