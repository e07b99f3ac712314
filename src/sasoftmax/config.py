"""Flat experiment configuration: one dataclass covering data generation,
training, and experiment orchestration. A command sets the keys it reads
from a key=value text file; any other key there is rejected.

ExperimentConfig extends TrainConfig, so a config (or `replace(cfg,
variant=..., seed=...)`) is passed to `train` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .core import atomic_write
from .data import SynthConfig
from .errors import ContractViolation
from .trainer import TrainConfig


@dataclass
class ExperimentConfig(TrainConfig):
    # synthetic data
    num_identities: int = 60
    samples_per_identity_per_modality: int = 20
    input_dim: int = 32
    modality_gap: float = 1.2
    noise_sigma: float = 0.25
    data_seed: int = 1
    shared_offset: bool = False
    train_fraction: float = 2.0 / 3.0  # 40 train / 20 test at the default size
    split_seed: int = 7
    seed: int = 1  # the CLI's training seed; TrainConfig's default is 0
    # experiment orchestration
    seeds: str = "1,2,3"

    def __post_init__(self):
        super().__post_init__()
        # a malformed or negative seed fails here, before any output
        seeds = [("data_seed", self.data_seed), ("split_seed", self.split_seed)]
        for name, value in seeds + [("seeds", s) for s in self.seed_list()]:
            if value < 0:
                raise ContractViolation(f"{name} must be non-negative, got {value}")

    def synth_config(self) -> SynthConfig:
        """Every SynthConfig field by name; its `seed` is our `data_seed`."""
        values = {f.name: getattr(self, f.name) for f in fields(SynthConfig) if f.name != "seed"}
        return SynthConfig(seed=self.data_seed, **values)

    def seed_list(self) -> list[int]:
        return list(coerce(self.seeds, (), "seeds"))


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def coerce(raw: str, like, name: str):
    """Parse `raw` into the type of `like` (a field's default value). Tuples
    are comma-separated ints, "" being the empty tuple. `name` labels the
    error: a flag, a key, or `file:line: key`."""
    try:
        if isinstance(like, bool):
            low = raw.strip().lower()
            if low not in _TRUE + _FALSE:
                raise ValueError
            return low in _TRUE
        if isinstance(like, tuple):
            return tuple(int(v) for v in raw.split(",")) if raw.strip() else ()
        return type(like)(raw)
    except ValueError:
        kind = "comma-separated ints" if isinstance(like, tuple) else type(like).__name__
        raise ContractViolation(f"{name}: expected {kind}, got {raw!r}") from None


def load_config_file(path, keys: dict) -> dict:
    """The values set by a file's key=value lines ('#' starts a comment); `keys`
    maps each key the caller reads to its default, and any other is rejected."""
    overrides = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{path} is not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractViolation(f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ContractViolation(f"{path}:{lineno}: unknown key {key!r} for this command")
        overrides[key] = coerce(raw, keys[key], f"{path}:{lineno}: {key}")
    return overrides


def save_config_file(cfg: ExperimentConfig, path, keys) -> None:
    with atomic_write(path) as fh:
        for key in sorted(keys):
            value = getattr(cfg, key)
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            fh.write(f"{key} = {value}\n")

