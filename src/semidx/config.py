"""Run configuration: one JSON document drives every pipeline command.

Unknown keys and unknown values of the string-valued choices are rejected
so typos fail loudly; every command writes the fully resolved config next
to its outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from semidx.model import ModelConfig


class ConfigError(ValueError):
    pass


@dataclass
class DataConfig:
    depth: int = 2
    branching: int = 8
    vocab_per_node: int = 20
    items_per_leaf: int = 25
    queries_per_item: int = 3
    query_noise: float = 0.1
    tokens_per_level: int = 6
    noise_pool_size: int = 60
    holdout_per_item: int = 1
    vocab_min_freq: int = 1


@dataclass
class PretrainConfig:
    epochs: int = 30
    batch_size: int = 16
    lr: float = 2e-3
    optimizer: str = "adam"


@dataclass
class ProgressiveConfig:
    """Schedule for progressive code training.

    The full-scale schedule is 4 steps with 128-entry codebooks; desk runs
    default to a smaller latent space.
    """

    num_steps: int = 4
    codebook_size: int = 16
    gamma: float = 0.99              # EMA decay for codebook statistics
    laplace_eps: float = 1e-5
    warmup_batches: int = 50         # contrastive-only batches at each step
    group_size: int = 8
    batch_size: int = 64
    queries_per_item: int = 2        # positives sampled per item per epoch
    epochs_per_step: int = 1
    lr: float = 1e-3
    optimizer: str = "adam"
    temperature: float = 1.0
    alignment_weight: float = 1.0
    commitment_weight: float = 1.0
    mask_same_item: bool = True
    dead_code_threshold: float = 0.5
    reinit_interval_batches: int = 10  # 0: only at epoch boundaries
    reinit_pool_size: int = 512


@dataclass
class EvalConfig:
    recall_ks: list[int] = field(default_factory=lambda: [1, 10, 100])
    mrr_k: int = 100
    consistency_levels: list[int] = field(default_factory=lambda: [1, 2])
    beam_width: int = 8
    retrieve_cutoff: int = 100
    dense_k: int = 100
    kmeans_baseline: bool = False    # hierarchical k-means over encoder embeddings


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    data_dir: str = "runs/default/data"
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=lambda: ModelConfig(vocab_size=0))
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    train: ProgressiveConfig = field(default_factory=ProgressiveConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def resolved(self) -> "RunConfig":
        """Propagate the training schedule into the model architecture."""
        cfg = from_dict(to_dict(self))
        cfg.model.num_steps = cfg.train.num_steps
        cfg.model.codebook_size = cfg.train.codebook_size
        cfg.model.seed = cfg.seed
        return cfg


_SECTIONS = {
    "data": DataConfig,
    "model": ModelConfig,
    "pretrain": PretrainConfig,
    "train": ProgressiveConfig,
    "eval": EvalConfig,
}


def _build(cls, payload: dict, where: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ConfigError(f"unknown config key(s) in {where}: {sorted(unknown)}")
    return cls(**payload)


# the allowed values of each string-valued choice, checked when a config loads
_CHOICES = {
    ("pretrain", "optimizer"): ("adam", "sgd"),
    ("train", "optimizer"): ("adam", "sgd"),
}


def from_dict(payload: dict) -> RunConfig:
    payload = dict(payload)
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in payload:
            section = payload.pop(name)
            if not isinstance(section, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            if name == "model" and "vocab_size" not in section:
                section = {"vocab_size": 0, **section}
            kwargs[name] = _build(cls, section, name)
    top = {f.name for f in dataclasses.fields(RunConfig)} - set(_SECTIONS)
    unknown = set(payload) - top
    if unknown:
        raise ConfigError(f"unknown top-level config key(s): {sorted(unknown)}")
    kwargs.update(payload)
    cfg = RunConfig(**kwargs)
    for (section, key), allowed in _CHOICES.items():
        value = getattr(getattr(cfg, section), key)
        if value not in allowed:
            raise ConfigError(f"{section}.{key} must be one of {list(allowed)}, not {value!r}")
    return cfg


def to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path: str | Path) -> RunConfig:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return from_dict(payload)


def dump_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_dict(cfg), sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
