"""Experiment configuration: typed sections, flat dotted-key text files, and
deterministic dumps.

Config files and CLI overrides use ``section.key = value`` lines (keys are
case-insensitive, ``#`` starts a comment, so string values hold no ``#`` or
line break). Every key has a default; unknown keys are rejected.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError
from .mppi import MppiConfig
from .sim import PlantParams, TrackSpec


def _check_at_least(section: str, obj, low: int, *names: str) -> None:
    for name in names:
        value = getattr(obj, name)
        if value < low:
            raise ConfigError(f"{section}.{name} must be >= {low}, got {value!r}")


@dataclass
class ModelSection:
    h: int = 4
    b: int = 5
    hidden: list = field(default_factory=lambda: [64, 64])
    mode: str = "probabilistic"
    activation: str = "tanh"
    var_min: float = 1e-6
    var_max: float = 10.0

    def __post_init__(self) -> None:
        _check_at_least("model", self, 1, "h", "b")


@dataclass
class TrainSection:
    epochs: int = 200
    batch: int = 256
    lr: float = 1e-3
    split_ratio: float = 0.7
    bootstrap: bool = True

    def __post_init__(self) -> None:
        _check_at_least("train", self, 1, "batch")
        if not self.lr > 0:
            raise ConfigError(f"train.lr must be > 0, got {self.lr!r}")
        if not 0 < self.split_ratio < 1:
            raise ConfigError(
                f"train.split_ratio must be in (0, 1), got {self.split_ratio!r}")


@dataclass
class MppiSection:
    k: int = 512
    t: int = 25
    lam: float = 1.0
    sigma: list = field(default_factory=lambda: [0.3, 0.3])
    smoothing: str = "moving_average"
    smoothing_window: int = 3


@dataclass
class CostsSection:
    w_track: float = 2.0
    w_speed: float = 0.5
    w_ctrl: float = 0.1
    w_unc: float = 5.0
    jrd_threshold: str = "auto"  # "auto" = 95th percentile of training-set jrd
    penalty_big: float = 1000.0
    v_target: float = 8.0

    def __post_init__(self) -> None:
        _check_at_least("costs", self, 0, "w_track", "w_speed", "w_ctrl",
                        "w_unc", "penalty_big")
        if self.jrd_threshold == "auto":
            return
        try:
            finite = math.isfinite(float(self.jrd_threshold))
        except ValueError:
            finite = False
        if not finite:
            raise ConfigError("costs.jrd_threshold must be auto or a finite "
                              f"number, got {self.jrd_threshold!r}")


@dataclass
class ExploreSection:
    n_rounds: int = 10
    steps_per_round: int = 600
    warmup_steps: int = 150
    retrain_epochs: int = 100
    policy: str = "explore"  # or "random"
    eval_seconds: float = 240.0

    def __post_init__(self) -> None:
        _check_at_least("explore", self, 0, "steps_per_round", "warmup_steps")


@dataclass
class CollectSection:
    minutes: float = 7.0
    episode_seconds: float = 40.0
    rate: float = 10.0
    mix: str = "zigzag:1,high_speed:1,slide:1"


@dataclass
class DeploySection:
    laps: int = 2
    max_steps: int = 1500
    v_start: float = 4.0

    def __post_init__(self) -> None:
        _check_at_least("deploy", self, 0, "max_steps")
        _check_at_least("deploy", self, 1, "laps")


@dataclass
class IoSection:
    out: str = "runs/out"
    data: str = ""
    checkpoint: str = ""


@dataclass
class ExperimentConfig:
    seed: int = 0
    # Higher linear drag than the bare plant default so full throttle tops out
    # near 20 m/s, keeping exploration inside a kart-realistic envelope.
    plant: PlantParams = field(default_factory=lambda: PlantParams(drag=40.0))
    track: TrackSpec = field(default_factory=TrackSpec)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    mppi: MppiSection = field(default_factory=MppiSection)
    costs: CostsSection = field(default_factory=CostsSection)
    explore: ExploreSection = field(default_factory=ExploreSection)
    collect: CollectSection = field(default_factory=CollectSection)
    deploy: DeploySection = field(default_factory=DeploySection)
    io: IoSection = field(default_factory=IoSection)

    # -- derived builders ---------------------------------------------------

    def plant_params(self) -> PlantParams:
        """A copy of the plant section. set_key assigns fields one at a
        time, so PlantParams checks the final values here."""
        return replace(self.plant)

    def track_spec(self) -> TrackSpec:
        return replace(self.track)

    def mppi_config(self, seed: int) -> MppiConfig:
        m = self.mppi
        return MppiConfig(k=m.k, horizon=m.t, lam=m.lam, sigma=tuple(m.sigma),
                          seed=seed, smoothing=m.smoothing,
                          smoothing_window=m.smoothing_window)


_KEY_ALIASES = {"lambda": "lam"}


def _sections(cfg: ExperimentConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "seed"}


def _convert(value: str, default):
    """Parse ``value`` as the type of the key's default; a list key takes
    its element type from the default's first element."""
    value = value.strip()
    if isinstance(default, bool):
        low = value.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"not a finite number: {value!r}")
        return number
    if isinstance(default, (list, tuple)):
        items = [v for v in value.split(",") if v.strip()]
        return type(default)(_convert(v, default[0]) for v in items)
    return value


def set_key(cfg: ExperimentConfig, dotted: str, value: str) -> None:
    key = dotted.strip().lower()
    parts = key.split(".")
    if len(parts) == 1:
        if parts[0] == "seed":
            cfg.seed = int(value)
            return
        raise ConfigError(f"unknown config key {dotted!r}")
    if len(parts) != 2:
        raise ConfigError(f"config keys are section.name, got {dotted!r}")
    section_name, field_name = parts
    field_name = _KEY_ALIASES.get(field_name, field_name)
    sections = _sections(cfg)
    if section_name not in sections:
        raise ConfigError(f"unknown config section {section_name!r} in {dotted!r}")
    section = sections[section_name]
    f = next((f for f in fields(section) if f.name == field_name), None)
    if f is None:
        raise ConfigError(f"unknown config key {dotted!r}")
    # the type comes from the default, which an emptied list keeps
    default = f.default if f.default_factory is MISSING else f.default_factory()
    try:
        converted = _convert(value, default)
    except ValueError as e:
        raise ConfigError(f"bad value for {dotted!r}: {e}") from e
    # config.txt is parsed line by line with "#" comments, so a string
    # holding either would not read back as itself
    if isinstance(converted, str) and ("#" in converted
                                       or len(converted.splitlines()) > 1):
        raise ConfigError(f"{dotted!r} may hold no '#' or line break, "
                          f"got {converted!r}")
    setattr(section, field_name, converted)


def parse_config_text(text: str, cfg: ExperimentConfig | None = None,
                      source: str = "<config>") -> ExperimentConfig:
    cfg = cfg or ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        set_key(cfg, key, value)
    return cfg


def load_config(path=None, overrides=()) -> ExperimentConfig:
    """Defaults, then an optional config file, then key=value overrides."""
    cfg = ExperimentConfig()
    if path:
        text = Path(path).read_text()
        cfg = parse_config_text(text, cfg, source=str(path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        set_key(cfg, key, value)
    # set_key assigns one field at a time, so these sections check their
    # final values here, as plant_params() does for the plant
    for section in (cfg.model, cfg.train, cfg.costs, cfg.explore, cfg.deploy):
        replace(section)
    return cfg


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return ",".join(_format_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def dump_config(cfg: ExperimentConfig) -> str:
    """Deterministic flat dump; re-parsing it reproduces the config exactly."""
    lines = [f"seed = {cfg.seed}"]
    for section_name, section in sorted(_sections(cfg).items()):
        for f in sorted(fields(section), key=lambda f: f.name):
            lines.append(
                f"{section_name}.{f.name} = {_format_value(getattr(section, f.name))}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()[:16]
