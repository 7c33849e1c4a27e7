"""Loss, optimizer, schedules, metrics, training loop, and ablation harness."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .clusterer import ClusterAssignment
from .data import DataBundle, Scaler, TrafficSeries, WindowedDataset, make_bundle
from .errors import ConfigError, DivergenceError, MetricsError
from .model import ForecastModel, ModelConfig, apply_variant
from .numcore import Parameter, SplitRng, Tensor, abs_, no_grad, sum_, take

MASK_THRESHOLD = 1e-4  # readings at or below this magnitude are sentinels


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
    mae = float(diff[mask].mean())
    rmse = float(np.sqrt((diff[mask] ** 2).mean()))
    mape = float((diff[mask] / np.abs(target[mask])).mean() * 100.0)

    h_mae, h_rmse, h_mape = [], [], []
    for h in range(pred.shape[1]):
        m = mask[:, h]
        if not m.any():
            h_mae.append(float("nan"))
            h_rmse.append(float("nan"))
            h_mape.append(float("nan"))
            continue
        d = diff[:, h][m]
        h_mae.append(float(d.mean()))
        h_rmse.append(float(np.sqrt((d ** 2).mean())))
        h_mape.append(float((d / np.abs(target[:, h][m])).mean() * 100.0))
    return MetricsReport(
        mae=mae,
        rmse=rmse,
        mape=mape,
        horizon_mae=h_mae,
        horizon_rmse=h_rmse,
        horizon_mape=h_mape,
        mask_count=count,
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
    """Adam with decoupled weight decay added to the gradient before moments."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        weight_decay: float = 1e-5,
        eps: float = 1e-8,
        betas: tuple[float, float] = (0.9, 0.999),
    ):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.eps = eps
        self.betas = betas
        self.step_count = 0
        self._m = [np.zeros_like(p.tensor.data) for p in params]
        self._v = [np.zeros_like(p.tensor.data) for p in params]

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        b1, b2 = self.betas
        self.step_count += 1
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            t = p.tensor
            grad = t.grad if t.grad is not None else np.zeros_like(t.data)
            if self.weight_decay:
                grad = grad + self.weight_decay * t.data
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            t.data = t.data - lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# ---------------------------------------------------------------------------
# schedules


@dataclass
class Schedule:
    """Warm-up plus curriculum settings for multi-horizon training."""

    warmup_epochs: int = 20
    curriculum_length: int = 3
    max_horizon: int = 12
    base_lr: float = 0.006
    lr_ramp: bool = True  # ramp lr linearly across the warm-up epochs
    horizon_floor: bool = True  # pin the supervised horizon to 1 during warm-up

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.warmup_epochs < 0:
            raise ConfigError("warmup_epochs must be >= 0")
        if self.curriculum_length < 1:
            raise ConfigError("curriculum_length must be >= 1")


def curriculum_horizon(epoch: int, s: Schedule) -> int:
    """Supervised horizon for an epoch: floor at 1 during warm-up, then one
    extra step every ``curriculum_length`` epochs, capped at the full horizon."""
    if s.horizon_floor:
        if epoch < s.warmup_epochs:
            return 1
        grown = 2 + (epoch - s.warmup_epochs) // s.curriculum_length
    else:
        grown = 1 + epoch // s.curriculum_length
    return min(s.max_horizon, grown)


def learning_rate(epoch: int, s: Schedule) -> float:
    if s.lr_ramp and s.warmup_epochs > 0:
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


def _batched(n: int, batch_size: int, order: np.ndarray | None = None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, batch_size):
        yield idx[start : start + batch_size]


def predict(
    model: ForecastModel, data: WindowedDataset, scaler: Scaler, batch_size: int = 64
) -> np.ndarray:
    """Inverse-scaled forecasts for a whole split (eval mode, no graph)."""
    model.eval_mode()
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
    norms = ", ".join(
        f"{p.name}={float(np.linalg.norm(p.tensor.data)):.3e}"
        for p in model.parameters()[:8]
    )
    return f"epoch={epoch} batch={batch} param_norms: {norms}"


def train(
    model: ForecastModel,
    data: DataBundle,
    schedule: Schedule,
    epochs: int,
    batch_size: int = 64,
    log_path=None,
) -> TrainResult:
    """Adam training with per-epoch cluster refresh and best-val tracking."""
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
            loss = masked_mae_loss(_first_steps(pred, horizon), target, data.scaler)
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(
                    f"non-finite loss {value}: {_diagnostics(model, epoch, batch_no)}"
                )
            model.zero_grad()
            loss.backward()
            optimizer.step(lr)
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
        if report.mae < result.best_val_mae:
            result.best_val_mae = report.mae
            result.best_epoch = epoch
            result.best_state = model.store.state()
            result.best_assignment = model.assignment

    if log_path is not None:
        write_log(result.log, log_path)
    return result


def _first_steps(pred: Tensor, horizon: int) -> Tensor:
    if horizon >= pred.shape[1]:
        return pred
    return take(pred, np.arange(horizon), axis=1)


def write_log(log: list[EpochRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "horizon", "lr", "train_mae", "val_mae", "val_rmse", "val_mape", "seconds"]
        )
        for r in log:
            writer.writerow(
                [r.epoch, r.horizon, r.lr, r.train_mae, r.val_mae, r.val_rmse, r.val_mape, r.seconds]
            )


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
