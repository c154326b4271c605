"""Every config key the pipeline accepts is read by the pipeline: a field of
a config section that no module outside ``config.py`` reads as an attribute
is a knob that changes nothing. Every number the loader accepts is
range-checked: a numeric field without a rule fails here."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from semidx.config import (ConfigError, DataConfig, EvalConfig, PretrainConfig,
                           ProgressiveConfig, from_dict)
from semidx.model import BackboneConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "semidx"


def attributes_read(path: Path) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_config_field_is_read():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "config.py"]
    assert modules
    read = set().union(*(attributes_read(p) for p in modules))
    unread = {f"{cls.__name__}.{f.name}"
              for cls in (DataConfig, BackboneConfig, PretrainConfig, ProgressiveConfig,
                          EvalConfig)
              for f in dataclasses.fields(cls) if f.name not in read}
    assert unread == set()


# one value out of range for every int and float key outside the model section
OUT_OF_RANGE = {
    "seed": -1,
    "data.depth": 0, "data.branching": 1, "data.vocab_per_node": 0,
    "data.items_per_leaf": 0, "data.queries_per_item": 0, "data.query_noise": 1.5,
    "data.tokens_per_level": 0, "data.holdout_per_item": -1,
    "pretrain.epochs": -1, "pretrain.batch_size": 0, "pretrain.lr": 0,
    "train.num_steps": 0, "train.codebook_size": 1, "train.gamma": 0,
    "train.warmup_batches": -1, "train.group_size": 0, "train.batch_size": 0,
    "train.queries_per_item": 0, "train.epochs_per_step": 0, "train.lr": -1e-3,
    "train.dead_code_threshold": -0.1, "train.reinit_interval_batches": -1,
    "eval.mrr_k": 0, "eval.beam_width": 0, "eval.retrieve_cutoff": 0, "eval.dense_k": 0,
}


def test_every_numeric_field_has_a_range_rule():
    numeric = {f"{section}.{f.name}"
               for section, cls in (("data", DataConfig), ("pretrain", PretrainConfig),
                                    ("train", ProgressiveConfig), ("eval", EvalConfig))
               for f in dataclasses.fields(cls) if f.type in ("int", "float")}
    assert set(OUT_OF_RANGE) == numeric | {"seed"}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_out_of_range_value_refused(name):
    *section, key = name.split(".")
    payload = {key: OUT_OF_RANGE[name]}
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must "):
        from_dict({section[0]: payload} if section else payload)
