"""Flat experiment configuration: one dataclass covering data generation,
training, and evaluation, readable from a key=value text file with every key
overridable by a command-line flag. Unknown keys are rejected.

ExperimentConfig extends TrainConfig, so a config (or `replace(cfg,
variant=..., seed=...)`) is passed to `train` directly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from .data import SynthConfig
from .errors import ContractViolation
from .evaluation import Direction
from .trainer import TrainConfig

DIRECTIONS = tuple(d.value for d in Direction) + ("both",)


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
    direction: str = "both"  # vis2nir | nir2vis | both

    def __post_init__(self):
        super().__post_init__()
        self.seed_list()  # a malformed seed list fails here, before any output
        if self.direction not in DIRECTIONS:
            raise ContractViolation(
                f"direction: expected one of {', '.join(DIRECTIONS)}, got {self.direction!r}"
            )

    def synth_config(self) -> SynthConfig:
        """Every SynthConfig field by name; its `seed` is our `data_seed`."""
        values = {f.name: getattr(self, f.name) for f in fields(SynthConfig) if f.name != "seed"}
        return SynthConfig(seed=self.data_seed, **values)

    def seed_list(self) -> list[int]:
        return list(_coerce(self.seeds, (), "seeds"))


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _coerce(raw: str, like, name: str):
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


def load_config_file(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Read key=value lines ('#' starts a comment); unknown keys are rejected."""
    cfg = base if base is not None else ExperimentConfig()
    overrides = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ContractViolation(f"{path}:{lineno}: expected key=value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ContractViolation(f"{path}:{lineno}: unknown key {key!r}")
            overrides[key] = _coerce(raw, _DEFAULTS[key], f"{path}:{lineno}: {key}")
    return replace(cfg, **overrides)


def save_config_file(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        for key, value in sorted(asdict(cfg).items()):
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            fh.write(f"{key} = {value}\n")


def apply_overrides(cfg: ExperimentConfig, pairs: dict) -> ExperimentConfig:
    """Apply CLI overrides (already typed) onto a config."""
    unknown = set(pairs) - set(_DEFAULTS)
    if unknown:
        raise ContractViolation(f"unknown config keys: {sorted(unknown)}")
    return replace(cfg, **pairs)
