"""Every config the benchmark runs loads through the config loader, so a
change to the config surface that would break a bench run fails here."""

import importlib
import sys
from pathlib import Path

import pytest

from semidx.config import load_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


def bench_configs(w):
    """(name, data spec, config parts) of each run, composed as the workloads do."""
    for schedule, sched in w.SCHEDULES.items():
        yield (f"pipeline-{schedule}", w.PIPELINE_DATA,
               {"pretrain": sched["pretrain"], "train": dict(w.PIPELINE_TRAIN, **sched["train"]),
                "kmeans": True})
    yield "serve_deep", w.SERVE_DATA, w.SERVE_CFG


def test_bench_configs_load(workloads, tmp_path):
    names = []
    for name, data_spec, parts in bench_configs(workloads):
        run_dir = tmp_path / name
        run_dir.mkdir()
        cfg = load_config(workloads.write_config(run_dir, data_spec, **parts))
        assert cfg.out_dir == str(run_dir / "out")
        names.append(name)
    assert names == ["pipeline-acceptance", "pipeline-bench", "serve_deep"]
