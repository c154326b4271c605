"""Run configuration: one JSON document drives every pipeline command.

Unknown keys and values of the wrong type are rejected so typos fail
loudly; every command writes the fully resolved config next to its outputs.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from semidx.model import BackboneConfig, atomic_writer


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
    holdout_per_item: int = 1


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
    model: BackboneConfig = field(default_factory=BackboneConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    train: ProgressiveConfig = field(default_factory=ProgressiveConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


_SECTIONS = {
    "data": DataConfig,
    "model": BackboneConfig,
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


# the range of every number a stage reads: a count a stage steps or divides
# by, a rate or a probability out of range would run an empty or degenerate
# stage, or fail later without naming its key
_RANGES = (
    ("be >= 0", lambda v: v >= 0,
     ("seed", "data.holdout_per_item", "pretrain.epochs", "train.warmup_batches",
      "train.dead_code_threshold", "train.reinit_interval_batches")),
    ("be >= 1", lambda v: v >= 1,
     ("data.depth", "data.vocab_per_node", "data.items_per_leaf", "data.queries_per_item",
      "data.tokens_per_level", "pretrain.batch_size", "train.num_steps", "train.group_size",
      "train.batch_size", "train.queries_per_item", "train.epochs_per_step",
      "eval.beam_width", "eval.retrieve_cutoff", "eval.mrr_k", "eval.dense_k")),
    ("be >= 2", lambda v: v >= 2, ("data.branching", "train.codebook_size")),
    ("be > 0", lambda v: v > 0, ("pretrain.lr", "train.lr")),
    ("lie in [0, 1]", lambda v: 0 <= v <= 1, ("data.query_noise",)),
    # the EMA decay, which Codebook.ema_update does not check
    ("lie in (0, 1]", lambda v: 0 < v <= 1, ("train.gamma",)),
)


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
    try:
        return cls(**payload)
    except ValueError as exc:  # a range check in the section's own class
        raise ConfigError(f"{where}.{exc}") from exc


def from_dict(payload: dict) -> RunConfig:
    payload = dict(payload)
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in payload:
            section = payload.pop(name)
            if not isinstance(section, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            kwargs[name] = _build(cls, section, name)
    top = {f.name for f in dataclasses.fields(RunConfig)} - set(_SECTIONS)
    unknown = set(payload) - top
    if unknown:
        raise ConfigError(f"unknown top-level config key(s): {sorted(unknown)}")
    _check_types(RunConfig, payload, "")
    kwargs.update(payload)
    cfg = RunConfig(**kwargs)
    for rule, holds, names in _RANGES:
        for name in names:
            value = functools.reduce(getattr, name.split("."), cfg)
            if not holds(value):
                raise ConfigError(f"{name} must {rule}, not {value!r}")
    if not cfg.eval.recall_ks:
        raise ConfigError("eval.recall_ks must not be empty")
    if any(k < 1 for k in cfg.eval.recall_ks):
        raise ConfigError(f"eval.recall_ks entries must be >= 1, not {cfg.eval.recall_ks!r}")
    return cfg


def to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path: str | Path | None = None, seed: int | None = None,
                out_dir: str | None = None) -> RunConfig:
    """The config file's keys (none without ``path``) with a command-line
    ``seed`` and ``out_dir`` folded in, checked once. An ``out_dir`` moves
    the corpus next to it unless the file sets ``data_dir``."""
    payload = {}
    if path:
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    if seed is not None:
        payload["seed"] = seed
    if out_dir is not None:
        payload.setdefault("data_dir", str(Path(out_dir) / "data"))
        payload["out_dir"] = out_dir
    return from_dict(payload)


def dump_config(cfg: RunConfig, path: str | Path) -> None:
    with atomic_writer(path) as fh:
        fh.write((json.dumps(to_dict(cfg), sort_keys=True, indent=2) + "\n").encode("utf-8"))


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
