"""Every callable the traced benchmark wraps exists in semidx, so deleting or
renaming one fails here, not only in a ``--trace 1`` run."""

import importlib
import sys
from pathlib import Path

import pytest

from semidx import autodiff, data, index, metrics, model, pretrain, training

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = {"autodiff": autodiff, "data": data, "index": index, "metrics": metrics,
           "model": model, "pretrain": pretrain, "training": training}


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_target_resolves(tracing):
    """``tracing.install`` looks each attribute up in its owner's own namespace."""
    targets = tracing._targets(MODULES)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in vars(owner)]
    assert targets and missing == []
