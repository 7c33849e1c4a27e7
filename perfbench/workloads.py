"""Workloads of the mhgnet benchmark and the phases every run goes through.

A run of a training workload (``main == "train"``) sets the model up, trains
it for a fixed number of epochs, writes the best state to a checkpoint and
loads it into a fresh model, then serves the test windows: rounds of
one-window forecasts in a closed loop (one client, B=1), each round followed
by a batched ``predict`` (B=64) over the same windows. A run of the serving
workload (``main == "serve"``) has the model trained in a child process
(trainer.py) and only loads its checkpoint and serves, for all of
``--seconds``. Training is fixed work, so ``val_mae`` repeats exactly for a
seed. Every run reports every metric; the workloads differ in shape and in
which phase dominates their time. BENCHMARK.json gives the reason for each.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from mhgnet import data, model, train_eval
from mhgnet.data import DataBundle

import spans
from reference import (
    BULK_SENSITIVITY,
    IMPORT_REFERENCE_S,
    LATENCY_SENSITIVITY,
    SETUP_SENSITIVITY,
    TAIL_SENSITIVITY,
    TRAIN_SENSITIVITY,
    Reference,
    import_seconds,
    slowdown,
)

T_H = T_F = 12
PATTERNS = 3  # node types planted by data.synthesize
EVAL_BATCH = 64
SETUP_REPEATS = 7  # cold set-ups timed for setup_s, each in a fresh interpreter
MIN_ONLINE_CALLS = 1000  # four rounds at least, for the median round's p99
MIN_BATCH_REPEATS = 3
ROUND_CALLS = 250  # one-window forecasts between two batched predicts
BRACKET_SAMPLES = 10  # reference samples before and after each pass of a traced run


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    days: int
    batch_size: int
    epochs: int
    # "train": trains and serves in the measured process; per-layer timings
    # are per train step. "serve": trained in a child process, the measured
    # process loads the checkpoint and serves; timings are per forecast.
    main: str
    train_windows: int | None = None  # cap on training windows; None keeps all
    val_windows: int | None = None
    test_windows: int | None = None  # whole batches, so every batched call is B=64
    min_online_calls: int = MIN_ONLINE_CALLS
    setup_repeats: int = SETUP_REPEATS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_small",
            nodes=24,
            days=7,
            batch_size=64,
            epochs=6,
            main="train",
            test_windows=6 * EVAL_BATCH,
        ),
        Workload(
            name="train_large",
            nodes=300,
            days=2,
            batch_size=16,
            epochs=4,
            main="train",
            train_windows=128,
            val_windows=48,
            test_windows=EVAL_BATCH,
        ),
        Workload(
            name="forecast_online",
            nodes=300,
            days=2,
            batch_size=16,
            epochs=3,
            main="serve",
            train_windows=64,
            val_windows=48,
            test_windows=EVAL_BATCH,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """Tiny shapes that run the whole path in a few seconds."""
    return replace(
        w,
        nodes=6,
        days=2,
        batch_size=8,
        epochs=2,
        train_windows=24,
        val_windows=16,
        test_windows=12,
        min_online_calls=24,
        setup_repeats=2,
    )


class Checks:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)

    def merge(self, attempted: int, failed: int, messages: list[str]) -> None:
        """Add the checks a child process made."""
        self.attempted += attempted
        self.failed += failed
        self.messages = (self.messages + messages)[:10]


# ---------------------------------------------------------------------------
# set-up


def _cap(split, limit: int | None):
    return split if limit is None else split.slice(slice(0, min(limit, len(split))))


def model_config(w: Workload) -> model.ModelConfig:
    # The seed picks the inputs only; the model keeps the default init seed,
    # so the learned clustering, and with it the work per step, varies little.
    return model.ModelConfig(n=w.nodes, t_h=T_H, t_f=T_F)


def set_up(
    w: Workload,
    seed: int,
    workdir: Path,
    checks: Checks | None = None,
    trained: Path | None = None,
):
    """Synthesize and window the series, build the model, and load a checkpoint.

    Without ``trained``, the fresh model is written to a checkpoint and loaded
    back; with it, the trained checkpoint is loaded into the fresh model.
    """
    series = data.synthesize(w.nodes, w.days, PATTERNS, seed)
    full = data.make_bundle(series, T_H, T_F)
    bundle = DataBundle(
        train=_cap(full.train, w.train_windows),
        val=_cap(full.val, w.val_windows),
        test=_cap(full.test, w.test_windows),
        scaler=full.scaler,
    )
    net = model.ForecastModel(model_config(w))
    if trained is None:
        checkpoint_round_trip(net, workdir / "setup.mhgc", checks)
    else:
        model.restore(net, trained)
    return bundle, net


def state_digest(net) -> str:
    """Digest of the parameters as a checkpoint stores them (f32) and the assignment."""
    h = hashlib.sha256()
    for name, values in sorted(net.store.state().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(values, dtype=np.float32).tobytes())
    h.update(np.asarray(net.assignment.types, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def checkpoint_round_trip(net, path: Path, checks: Checks | None = None):
    """Save ``net`` and load the file into a fresh model, as a server would."""
    state = net.store.state()
    model.save_checkpoint(path, state, net.assignment)
    fresh = model.ForecastModel(net.cfg)
    model.restore(fresh, path)
    if checks is not None:
        loaded = fresh.store.state()
        same = loaded.keys() == state.keys() and all(
            np.array_equal(loaded[k], state[k].astype(np.float32).astype(np.float64))
            for k in state
        )
        same = same and np.array_equal(fresh.assignment.types, net.assignment.types)
        checks.check(same, f"checkpoint {path.name} did not load back what was saved")
    return fresh


def timed_cold_set_ups(
    w: Workload, seed: int, workdir: Path, smoke_mode: bool, trained: Path | None
) -> tuple[list[float], list[float]]:
    """Full cold set-ups, each in a fresh interpreter (imports included).

    Returns the raw seconds of each and the machine slowdown around it: the
    import reference, run before and after every set-up, against its
    reference time (see reference.py).
    """
    probe = Path(__file__).with_name("setup_probe.py")
    cmd = [sys.executable, str(probe), "--workload", w.name, "--seed", str(seed)]
    cmd += ["--workdir", str(workdir)] + (["--smoke"] if smoke_mode else [])
    cmd += ["--trained", str(trained)] if trained is not None else []
    seconds, slowdowns = [], []
    before = import_seconds(workdir)
    for _ in range(w.setup_repeats):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        seconds.append(float(out.stdout.split()[-1]))
        after = import_seconds(workdir)
        factor = (before + after) / 2.0 / IMPORT_REFERENCE_S
        slowdowns.append(factor**SETUP_SENSITIVITY)
        before = after
    return seconds, slowdowns


# ---------------------------------------------------------------------------
# training


@contextmanager
def recording_losses(reference: Reference | None):
    """Collect the value of every training loss ``train`` computes, and when.

    With a ``reference``, a reference sample may follow each loss.
    """
    losses: list[float] = []
    marks: list[float] = []
    original = train_eval.masked_mae_loss

    def recorder(*args, **kwargs):
        loss = original(*args, **kwargs)
        marks.append(time.perf_counter())
        losses.append(float(loss.data))
        if reference is not None:
            reference.maybe_sample()
        return loss

    train_eval.masked_mae_loss = recorder
    try:
        yield losses, marks
    finally:
        train_eval.masked_mae_loss = original


def schedule() -> train_eval.Schedule:
    # A one-epoch warm-up lets a run of a few epochs move the weights and
    # the supervised horizon; the default 20-epoch ramp would barely train.
    return train_eval.Schedule(warmup_epochs=1, curriculum_length=1, max_horizon=T_F)


@dataclass
class Training:
    seconds: float  # wall time of train(), reference samples taken out
    slowdown: float  # machine slowdown against the reference speed meanwhile
    windows: int
    val_mae: float
    losses: list[float]
    step_seconds: float  # median time between consecutive losses, i.e. one step


def run_training(
    w: Workload, bundle: DataBundle, net, checks: Checks, reference: Reference | None = None
) -> Training:
    taken = len(reference.samples) if reference is not None else 0
    spent = reference.spent if reference is not None else 0.0
    with recording_losses(reference) as (losses, marks):
        started = time.perf_counter()
        result = train_eval.train(net, bundle, schedule(), w.epochs, w.batch_size)
        seconds = time.perf_counter() - started
    factor = 1.0
    if reference is not None:
        seconds -= reference.spent - spent
        factor = slowdown(reference.samples[taken:], TRAIN_SENSITIVITY)
    for i, value in enumerate(losses):
        checks.check(np.isfinite(value), f"train loss {i} is {value}")
    checks.check(
        np.isfinite(result.best_val_mae) and result.best_state is not None,
        f"best val MAE is {result.best_val_mae}",
    )
    if result.best_state is not None:
        net.store.load_state(result.best_state)
        net.set_assignment(result.best_assignment)
    step_seconds = float(np.median(np.diff(marks))) if len(marks) > 1 else seconds
    return Training(
        seconds, factor, w.epochs * len(bundle.train), result.best_val_mae, losses, step_seconds
    )


def train_in_child(
    w: Workload, seed: int, checkpoint: Path, smoke_mode: bool, checks: Checks
) -> tuple[Training, str]:
    """Train in a fresh interpreter that writes ``checkpoint``; see trainer.py.

    Returns the child's training figures and the digest of the state it saved.
    """
    trainer = Path(__file__).with_name("trainer.py")
    cmd = [sys.executable, str(trainer), "--workload", w.name, "--seed", str(seed)]
    cmd += ["--checkpoint", str(checkpoint)] + (["--smoke"] if smoke_mode else [])
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=170)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    checks.merge(result["attempted"], result["failed"], result["messages"])
    return Training(**result["training"]), result["state_sha256"]


# ---------------------------------------------------------------------------
# serving


def _forecast_ok(pred: np.ndarray, batch: int, nodes: int) -> bool:
    return pred.shape == (batch, T_F, nodes, 1) and bool(np.isfinite(pred).all())


@dataclass
class Serving:
    latencies: np.ndarray  # seconds per one-window forecast
    latency_slowdowns: np.ndarray  # machine slowdown during each, at sensitivity 1
    batch_seconds: np.ndarray  # seconds per batched predict over the test windows
    batch_slowdowns: np.ndarray
    windows: int
    test_mae: float
    batch_gap_max: float  # largest |B=1 - B=64| forecast difference, native units


def serve(
    w: Workload,
    bundle: DataBundle,
    net,
    budget: float,
    checks: Checks,
    reference: Reference | None = None,
    tracer=None,
) -> Serving:
    """Rounds of one-window forecasts, each round followed by one batched predict.

    The one-window forecasts form a closed loop with one client: the next
    window is sent when the last forecast returns, cycling over the test
    windows. The batched ``predict`` covers all test windows at B=64 and must
    repeat bit for bit. Interleaving spreads both measurements over the whole
    serving time, so a slow stretch of the machine weighs on them alike.
    Serving lasts ``budget`` seconds, and at least ``min_online_calls``
    forecasts, one cycle over the windows and ``MIN_BATCH_REPEATS`` batches.
    With a ``reference``, every round's timings carry the slowdown measured
    by the reference samples taken during that round.
    """
    test, scaler = bundle.test, bundle.scaler
    n = len(test)
    first_cycle = np.empty((n, T_F, w.nodes, 1))
    latencies: list[float] = []
    latency_slowdowns: list[float] = []
    batch_seconds: list[float] = []
    batch_slowdowns: list[float] = []
    batched = None
    until = time.perf_counter() + budget
    while (
        len(latencies) < max(w.min_online_calls, n)
        or len(batch_seconds) < MIN_BATCH_REPEATS
        or time.perf_counter() < until
    ):
        if tracer is not None:
            tracer.phase = "serve"
        taken = len(reference.samples) if reference is not None else 0
        for _ in range(ROUND_CALLS):
            if reference is not None:
                reference.maybe_sample()
            j = len(latencies) % n
            started = time.perf_counter()
            pred = train_eval.predict(net, test.slice(slice(j, j + 1)), scaler, batch_size=1)
            latencies.append(time.perf_counter() - started)
            checks.check(_forecast_ok(pred, 1, w.nodes), f"one-window forecast {j} is malformed")
            if len(latencies) <= n:
                first_cycle[j] = pred[0]

        if tracer is not None:
            tracer.phase = "batch"
        started = time.perf_counter()
        pred = train_eval.predict(net, test, scaler, batch_size=EVAL_BATCH)
        batch_seconds.append(time.perf_counter() - started)
        samples = reference.samples[taken:] if reference is not None else []
        latency_slowdowns.extend(
            [slowdown(samples, 1.0) if samples else 1.0] * ROUND_CALLS
        )
        batch_slowdowns.append(slowdown(samples, BULK_SENSITIVITY) if samples else 1.0)
        ok = _forecast_ok(pred, n, w.nodes)
        if batched is None:
            batched = pred
        else:
            ok = ok and np.array_equal(pred, batched)
        checks.check(ok, "batched forecast is malformed or differs from the first one")

    return Serving(
        latencies=np.asarray(latencies),
        latency_slowdowns=np.asarray(latency_slowdowns),
        batch_seconds=np.asarray(batch_seconds),
        batch_slowdowns=np.asarray(batch_slowdowns),
        windows=n,
        test_mae=train_eval.masked_metrics(batched, test.targets).mae,
        batch_gap_max=float(np.max(np.abs(first_cycle - batched))),
    )


# ---------------------------------------------------------------------------
# runs


def round_p99(latencies_ms: np.ndarray) -> float:
    """Median over serving rounds of each round's 99th-percentile latency.

    A stretch of machine stalls inflates the p99 of the rounds it falls in,
    not the median round, so this tail figure repeats from run to run where
    the p99 of the whole run does not.
    """
    rounds = latencies_ms.reshape(-1, ROUND_CALLS)
    return float(np.median(np.percentile(rounds, 99, axis=1)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def loss_digest(losses: list[float]) -> str:
    return hashlib.sha256(np.asarray(losses, dtype=np.float64).tobytes()).hexdigest()[:16]


def run_untraced(w: Workload, seed: int, seconds: float, workdir: Path, smoke_mode: bool):
    """End-to-end metrics, with no wrapper installed but the loss recorder.

    A training workload trains in this process; the serving workload has a
    child process train and write the checkpoint, and its training figures
    are the child's. Timings are scaled to the reference machine speed (see
    reference.py); the report keeps the raw figures and the slowdowns.
    """
    checks = Checks()
    trained = None
    if w.main == "serve":
        trained = workdir / "trained.mhgc"
        training, trained_digest = train_in_child(w, seed, trained, smoke_mode, checks)
    setup_seconds, setup_slowdowns = timed_cold_set_ups(w, seed, workdir, smoke_mode, trained)
    bundle, net = set_up(w, seed, workdir, checks, trained)

    reference = Reference()
    measure_start = time.perf_counter()
    if trained is None:
        training = run_training(w, bundle, net, checks, reference)
        served = checkpoint_round_trip(net, workdir / "trained.mhgc", checks)
    else:
        served = net
        checks.check(
            state_digest(served) == trained_digest,
            "served model differs from the checkpoint the trainer wrote",
        )
    budget = seconds - (time.perf_counter() - measure_start)
    serving = serve(w, bundle, served, budget, checks, reference)

    setup_scaled = [t / f for t, f in zip(setup_seconds, setup_slowdowns)]
    raw_ms = 1000.0 * serving.latencies
    median_ms = raw_ms / serving.latency_slowdowns**LATENCY_SENSITIVITY
    tail_ms = raw_ms / serving.latency_slowdowns**TAIL_SENSITIVITY
    batch_seconds = serving.batch_seconds / serving.batch_slowdowns
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "train_windows_per_s": (training.windows * training.slowdown / training.seconds, "1/s"),
        "val_mae": (training.val_mae, "native"),
        "forecast_ms_p50": (float(np.percentile(median_ms, 50)), "ms"),
        "forecast_ms_p99": (round_p99(tail_ms), "ms"),
        "eval_windows_per_s": (serving.windows / float(np.median(batch_seconds)), "1/s"),
        "test_mae": (serving.test_mae, "native"),
    }
    report = {
        "raw": {
            "setup_s": statistics.median(setup_seconds),
            "train_windows_per_s": training.windows / training.seconds,
            "forecast_ms_p50": float(np.percentile(raw_ms, 50)),
            "forecast_ms_p99": round_p99(raw_ms),
            "forecast_ms_p99_whole_run": float(np.percentile(raw_ms, 99)),
            "eval_windows_per_s": serving.windows / float(np.median(serving.batch_seconds)),
        },
        "slowdown": {
            "setup": statistics.median(setup_slowdowns),
            "train": training.slowdown,
            "serve": float(np.median(serving.latency_slowdowns)),
        },
        "setup_seconds": setup_seconds,
        "setup_slowdowns": setup_slowdowns,
        "trained_in": "child process" if trained is not None else "this process",
        "train_steps": len(training.losses),
        "train_seconds": training.seconds,
        "loss_trace_sha256": loss_digest(training.losses),
        "online_calls": len(serving.latencies),
        "batched_repeats": len(serving.batch_seconds),
        "batch_gap_max": serving.batch_gap_max,
    }
    return metrics, report, checks


def run_traced(w: Workload, seed: int, seconds: float, workdir: Path):
    """Per-layer metrics from a traced pass, checked against untraced ones.

    Three passes train a fresh model with the same seed: untraced, traced,
    untraced again. Their loss traces, ``val_mae`` and ``test_mae`` must
    agree bit for bit: that is the rerun determinism check and shows that
    the wrappers change no result. ``trace.overhead_frac`` compares the
    traced pass with the untraced pass after it, so that neither is the
    process's first, which warms it up (a first pass ran a fifth slower than
    the later ones in one ``train_large`` run, though not in another). Each
    pass's median step time is scaled by the machine slowdown that reference
    samples taken right before and after it show; the raw figures and the
    slowdowns are in the report.
    Even the serving workload trains in this process here, since its
    per-step spans come from it.
    """
    checks = Checks()
    reference = Reference()

    def bracketed(net, tracer_phase: str | None = None) -> tuple[Training, float]:
        taken = len(reference.samples)
        for _ in range(BRACKET_SAMPLES):
            reference.sample()
        if tracer_phase is not None:
            tracer.phase = tracer_phase
        training = run_training(w, bundle, net, checks)
        for _ in range(BRACKET_SAMPLES):
            reference.sample()
        return training, slowdown(reference.samples[taken:], TRAIN_SENSITIVITY)

    tracer = spans.Tracer()
    tracer.install()
    try:
        bundle, plain_net = set_up(w, seed, workdir, checks)
    finally:
        tracer.uninstall()

    plain, plain_slowdown = bracketed(plain_net)
    plain_served = checkpoint_round_trip(plain_net, workdir / "plain.mhgc", checks)
    plain_pred = train_eval.predict(plain_served, bundle.test, bundle.scaler, EVAL_BATCH)
    plain_test_mae = train_eval.masked_metrics(plain_pred, bundle.test.targets).mae

    net = model.ForecastModel(model_config(w))
    tracer.install()
    try:
        measure_start = time.perf_counter()
        traced, traced_slowdown = bracketed(net, "train")
        tracer.phase = "load"
        served = checkpoint_round_trip(net, workdir / "traced.mhgc", checks)
        checkpoint_bytes = (workdir / "traced.mhgc").stat().st_size
        tracer.phase = "serve"
        budget = seconds - (time.perf_counter() - measure_start)
        serving = serve(w, bundle, served, budget, checks, tracer=tracer)
    finally:
        tracer.uninstall()
    warm, warm_slowdown = bracketed(model.ForecastModel(model_config(w)))

    checks.check(
        traced.losses == plain.losses == warm.losses,
        "traced and untraced training gave different loss traces",
    )
    checks.check(traced.val_mae == plain.val_mae, "traced val_mae differs from untraced")
    checks.check(serving.test_mae == plain_test_mae, "traced test_mae differs from untraced")

    main_calls = len(traced.losses) if w.main == "train" else len(serving.latencies)
    metrics = spans.layer_metrics(tracer, w.main, main_calls)
    metrics["model.checkpoint_bytes"] = (float(checkpoint_bytes), "bytes")
    metrics["model.batch_gap_max"] = (serving.batch_gap_max, "native")
    warm_step = warm.step_seconds / warm_slowdown
    traced_step = traced.step_seconds / traced_slowdown
    metrics["trace.overhead_frac"] = (traced_step / warm_step - 1.0, "ratio")
    report = {
        "train_steps": len(traced.losses),
        "first_train_seconds": plain.seconds,
        "traced_train_seconds": traced.seconds,
        "untraced_train_seconds": warm.seconds,
        "first_step_ms": 1000.0 * plain.step_seconds,
        "traced_step_ms": 1000.0 * traced.step_seconds,
        "untraced_step_ms": 1000.0 * warm.step_seconds,
        "first_slowdown": plain_slowdown,
        "traced_slowdown": traced_slowdown,
        "untraced_slowdown": warm_slowdown,
        "raw_overhead_frac": traced.step_seconds / warm.step_seconds - 1.0,
        "loss_trace_sha256": loss_digest(traced.losses),
        "val_mae": traced.val_mae,
        "test_mae": serving.test_mae,
        "online_calls": len(serving.latencies),
        "per_layer_timings_are_per": "train step" if w.main == "train" else "one-window forecast",
    }
    return metrics, report, checks
