"""Every config key the pipeline accepts is read by the pipeline: a field of
a config section that no module outside ``config.py`` reads as an attribute
is a knob that changes nothing."""

import ast
import dataclasses
from pathlib import Path

from semidx.config import DataConfig, EvalConfig, PretrainConfig, ProgressiveConfig
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
