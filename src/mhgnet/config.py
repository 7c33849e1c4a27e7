"""Flat `key = value` run configuration with strict round-tripping.

A run configuration is a :class:`ModelConfig`, a :class:`Schedule` and the
training-loop settings; the file keys and their defaults come from those
dataclasses. Unknown keys and invalid values are rejected with their line
number; values render with full precision so ``parse(render(cfg)) == cfg``
holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .data import read_utf8
from .errors import ConfigError
from .model import ModelConfig
from .train_eval import Schedule


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    schedule: Schedule = field(default_factory=Schedule)
    epochs: int = 100
    batch_size: int = 64
    train_ratio: float = 0.6
    val_ratio: float = 0.2
    test_ratio: float = 0.2

    def validate(self) -> None:
        self.model.validate()
        self.schedule.validate()
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        for name in ("train_ratio", "val_ratio", "test_ratio"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def ratios(self) -> tuple[float, float, float]:
        return (self.train_ratio, self.val_ratio, self.test_ratio)

    def to_model_config(self, n: int, steps_per_day: int) -> ModelConfig:
        """The model for a series of ``n`` nodes, which a nonzero ``n`` key must match."""
        if self.model.n not in (0, n):
            raise ConfigError(f"config n = {self.model.n} does not match the series' {n} nodes")
        return replace(self.model, n=n, steps_per_day=steps_per_day)

    def to_schedule(self) -> Schedule:
        return replace(self.schedule, max_horizon=self.model.t_f)


# Schedule fields whose file key reads differently.
_RENAMED = {"base_lr": "lr"}
# Retired keys and the one value they held; older run directories still list them.
_RETIRED = {
    "refresh_per_batch": False,
    "rnn_width_multiplier": 1,
    "warmup_lr_ramp": True,
    "warmup_horizon_floor": True,
}
# Not keys: they come from the data file and from t_f.
_DERIVED = {"steps_per_day", "max_horizon"}


def _key_table() -> dict[str, tuple[str | None, str]]:
    """File key -> (RunConfig section holding it, or None for its own fields; field)."""
    table = {}
    for f in fields(RunConfig):
        if f.name in ("model", "schedule"):
            for sub in fields(f.default_factory):
                if sub.name not in _DERIVED:
                    table[_RENAMED.get(sub.name, sub.name)] = (f.name, sub.name)
        else:
            table[f.name] = (None, f.name)
    return table


_KEYS = _key_table()


def _owner(cfg: RunConfig, section: str | None):
    return cfg if section is None else getattr(cfg, section)


def _parse_value(key: str, kind: type, raw: str, lineno: int):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in _RETIRED:
            old = _RETIRED[key]
            if _parse_value(key, type(old), raw, lineno) != old:
                raise ConfigError(
                    f"line {lineno}: key {key!r} was retired; "
                    f"only '{key} = {str(old).lower()}' is accepted"
                )
            continue
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section, name = _KEYS[key]
        owner = _owner(cfg, section)
        setattr(owner, name, _parse_value(key, type(getattr(owner, name)), raw, lineno))
        try:  # every check reads one field, so the first line that fails is at fault
            cfg.validate()
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return cfg


def render_config(cfg: RunConfig) -> str:
    lines = []
    for key, (section, name) in _KEYS.items():
        value = getattr(_owner(cfg, section), name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    """Parse a UTF-8 config file; malformed content raises ConfigError with its line."""
    return parse_config(read_utf8(path, ConfigError))
