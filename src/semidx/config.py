"""Run configuration: one JSON document drives every pipeline command.

Unknown keys and values of the wrong type are rejected so typos fail
loudly; every command writes the fully resolved config next to its outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from semidx.model import ModelConfig, atomic_writer


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


@dataclass
class ProgressiveConfig:
    """Schedule for progressive code training.

    The full-scale schedule is 4 steps with 128-entry codebooks; desk runs
    default to a smaller latent space.
    """

    num_steps: int = 4
    codebook_size: int = 16
    gamma: float = 0.99              # EMA decay for codebook statistics
    warmup_batches: int = 50         # contrastive-only batches at each step
    group_size: int = 8
    batch_size: int = 64
    queries_per_item: int = 2        # positives sampled per item per epoch
    epochs_per_step: int = 1
    lr: float = 1e-3
    dead_code_threshold: float = 0.5
    reinit_interval_batches: int = 10  # 0: only at epoch boundaries


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


# a test per declared field type, on exact types: bool subclasses int, so
# isinstance would let true through as an int; a float key also takes an int
_TYPE_CHECKS = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "bool": lambda v: type(v) is bool,
    "str": lambda v: type(v) is str,
    "list[int]": lambda v: type(v) is list and all(type(x) is int for x in v),
}


def _check_types(cls, payload: dict, prefix: str) -> None:
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    for key, value in payload.items():
        if not _TYPE_CHECKS[types[key]](value):
            raise ConfigError(f"{prefix}{key} must be {types[key]}, not {value!r}")


def _build(cls, payload: dict, where: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ConfigError(f"unknown config key(s) in {where}: {sorted(unknown)}")
    _check_types(cls, payload, f"{where}.")
    return cls(**payload)


# model keys the pipeline sets itself, each from the source named here; a
# config may carry them only at their defaults, as config.resolved.json does
_DERIVED_MODEL_KEYS = {"num_steps": "train.num_steps", "codebook_size": "train.codebook_size",
                       "seed": "seed", "vocab_size": "the vocabulary"}


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
    _check_types(RunConfig, payload, "")
    kwargs.update(payload)
    cfg = RunConfig(**kwargs)
    # the decay train_code_step passes to Codebook.ema_update, which does not check it
    if not 0 < cfg.train.gamma <= 1:
        raise ConfigError(f"train.gamma must lie in (0, 1], not {cfg.train.gamma!r}")
    for key in ("beam_width", "retrieve_cutoff", "mrr_k", "dense_k"):
        if getattr(cfg.eval, key) < 1:
            raise ConfigError(f"eval.{key} must be >= 1, not {getattr(cfg.eval, key)!r}")
    if not cfg.eval.recall_ks:
        raise ConfigError("eval.recall_ks must not be empty")
    for key in ("recall_ks", "consistency_levels"):
        if any(v < 1 for v in getattr(cfg.eval, key)):
            raise ConfigError(f"eval.{key} entries must be >= 1, not {getattr(cfg.eval, key)!r}")
    default = RunConfig().model
    for key, source in _DERIVED_MODEL_KEYS.items():
        if getattr(cfg.model, key) != getattr(default, key):
            raise ConfigError(f"model.{key} is set from {source}; leave it out of the config")
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
    with atomic_writer(path) as fh:
        fh.write((json.dumps(to_dict(cfg), sort_keys=True, indent=2) + "\n").encode("utf-8"))


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
