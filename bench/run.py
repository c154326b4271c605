"""semidx benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload serve_deep --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload all --seed 1      # both, one table
    python3 bench/run.py --workload pipeline --seed 0 --schedule acceptance

Run it from the repository root; it imports semidx from ``src/`` of that
root and writes only under ``.bench_work/``, removing its run directory at
the end. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` every end-to-end metric of BENCHMARK.json,
measured untraced; with ``--trace 1`` every per-layer metric, from a traced
pass that follows an untraced pass of the same seeds (whose artifacts must
be hash-equal, and whose difference is the tracing overhead). Lines above it
give each metric with its unit and sample count, and the environment. The
exit code is 0 when every output check passed, 1 when one failed, 2 when the
benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("pipeline", "serve_deep")

# span names that must fire at least once in the traced pass of each workload
EXPECTED_SPANS = {
    "pipeline": (
        "autodiff.backward", "autodiff.optimizer_step", "autodiff.matmul", "autodiff.gelu",
        "autodiff.softmax", "autodiff.log_softmax", "autodiff.layer_norm",
        "autodiff.embedding", "model.encode_batch", "model.decode_code_states",
        "model.decode_text", "model.greedy_decode_batch", "model.codebook_assign",
        "model.codebook_ema_update", "model.codebook_reinit_dead", "model.checkpoint_save",
        "model.checkpoint_load", "pretrain.sample_examples", "pretrain.batch_loss",
        "pretrain.step", "training.build_prefix_batches", "training.batch_forward",
        "training.contrastive", "training.kl", "training.commitment",
        "training.assign_step_codes", "training.train_code_step", "index.assign_all_ids",
        "index.save", "index.load", "index.beam_search", "index.generative_retrieve",
        "index.item_matrix", "index.dense_rank", "index.kmeans", "metrics.ami",
        "metrics.recall", "metrics.mrr", "metrics.code_consistency", "data.synth",
        "data.load_corpus", "data.build_vocab", "data.vocab_encode", "cli.pretrain",
        "cli.train", "cli.index", "cli.retrieve", "cli.eval"),
    "serve_deep": (
        "autodiff.matmul", "autodiff.gelu", "autodiff.softmax", "autodiff.log_softmax",
        "autodiff.layer_norm", "autodiff.embedding", "model.encode_batch",
        "model.decode_code_states", "model.greedy_decode_batch", "model.codebook_assign",
        "model.checkpoint_load", "index.load", "index.beam_search",
        "index.generative_retrieve", "index.item_matrix", "index.dense_rank", "metrics.ami",
        "metrics.recall", "metrics.mrr", "metrics.code_consistency", "data.load_corpus",
        "data.vocab_encode"),
}
# serving only reads: these must stay at zero on serve_deep
EXPECTED_ZERO = {"serve_deep": ("autodiff.backward_calls", "autodiff.optimizer_steps",
                                "training.batches")}
INCLUSIVE = {"pretrain.step_s", "cli.pretrain_s", "cli.train_s", "cli.index_s",
             "cli.retrieve_s", "cli.eval_s"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True, help="workload seed (shapes the corpus)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="serve_deep's client sends whole passes until this much time has "
                        "gone by; pipeline does a fixed amount of work, which takes longer")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--schedule", choices=("bench", "acceptance"), default="bench",
                   help="pipeline training schedule; 'acceptance' is the tier-1 one")
    return p.parse_args(argv)


def _one_blas_thread() -> int:
    """One BLAS thread, set before numpy loads: a second thread would wait on
    the slower core of a shared host, so the numbers would measure the
    scheduler. Returns the number of cores this process may use."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _environment(nproc: int) -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs_dir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs_dir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                threads = int(getattr(ctypes.CDLL(lib), symbol)())
                break
            except (AttributeError, OSError):
                continue
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads if threads is not None
            else os.environ["OPENBLAS_NUM_THREADS"]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _emit(lines: list[str], correct: bool, attempted: int, failed: int,
          metrics: dict[str, dict]) -> None:
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()


def _end_to_end(outcome, spec, summarize) -> tuple[dict, list[str]]:
    found = summarize(outcome)
    found["peak_rss_mb"] = (_peak_rss_mb(), 1)
    metrics, lines = {}, []
    for m in spec["end_to_end"]:
        if m["name"] not in found:
            outcome.check(False, f"end-to-end metric {m['name']} was not measured")
            continue
        value, n = found.pop(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        lines.append(f"  {m['name']:<26} {value:>14.6g} {m['unit']:<8} n={n}")
    lines += [f"  {name:<26} {value:>14.6g} {'ms':<8} n={n} (reported, not gated)"
              for name, (value, n) in found.items()]
    return metrics, lines


def _per_layer(workload, tracer, counts_from_outputs, overhead, spec, outcome):
    self_t, incl_t, calls = tracer.times()
    counts = dict(tracer.counts)
    counts.update(counts_from_outputs)
    draws = counts.get("pretrain.draws", 0)
    counts["pretrain.useful_draw_ratio"] = counts.get("pretrain.examples", 0) / draws if draws else 0.0
    counts.update(overhead)
    for name in EXPECTED_SPANS[workload]:
        outcome.check(calls.get(name, 0) > 0, f"traced wrapper {name} never fired")
    metrics, lines = {}, []
    for m in spec["per_layer"]:
        name = m["name"]
        if name in counts:
            value = counts[name]
        elif name.endswith("_calls") or name.endswith(".calls"):
            value = calls.get(name[:-6], 0)
        elif name.endswith(".fwd_s"):
            value = self_t.get(name[:-6], 0.0)
        elif name in INCLUSIVE:
            value = incl_t.get(name[:-2], 0.0)
        elif name.endswith("_s"):
            value = self_t.get(name[:-2], 0.0)
        else:
            value = 0
        metrics[name] = {"value": value, "unit": m["unit"]}
        lines.append(f"  {name:<36} {value:>14.6g} {m['unit']}")
    for name in EXPECTED_ZERO.get(workload, ()):
        outcome.check(metrics[name]["value"] == 0, f"{name} is not zero on {workload}")
    return metrics, lines


def run_one(args, nproc) -> int:
    import workloads as wl
    from tracing import Tracer, install

    spec = _spec()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    env = _environment(nproc)
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace} "
             f"schedule {args.schedule}", "environment " + json.dumps(env, sort_keys=True)]
    try:
        if args.trace == 0:
            if args.workload == "pipeline":
                outcome = wl.pipeline(run_dir, args.seed, schedule=args.schedule)
            else:
                outcome = wl.serve_deep(run_dir, args.seed, args.seconds)
            metrics, table = _end_to_end(outcome, spec, wl.summarize)
            lines += ["end-to-end (untraced):"] + table
        else:
            tracer = Tracer()
            if args.workload == "pipeline":
                plain = wl.pipeline(run_dir, args.seed, schedule=args.schedule, repeat=False)
                shutil.rmtree(run_dir)
                with install(tracer):
                    outcome = wl.pipeline(run_dir, args.seed, tracer=tracer,
                                          schedule=args.schedule, repeat=False)
            else:
                # the build stays untraced: serving is what serve_deep measures
                plain = wl.serve_deep(run_dir, args.seed, args.seconds, repeat=False)
                outcome = wl.Outcome()
                with install(tracer):
                    wl.serve_built(run_dir, args.seed, outcome, args.seconds, tracer=tracer)
            outcome.check(bool(plain.hashes) and outcome.hashes == plain.hashes,
                          "traced artifacts differ from the untraced run: "
                          f"{sorted(set(plain.hashes.items()) ^ set(outcome.hashes.items()))}")
            overhead = {"trace.overhead_s": outcome.measured_s - plain.measured_s,
                        "trace.overhead_pct": 100.0 * (outcome.measured_s / plain.measured_s - 1),
                        "trace.spans": len(tracer)}
            metrics, table = _per_layer(args.workload, tracer, outcome.extra, overhead, spec,
                                        outcome)
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.save(traces / f"{args.workload}-seed{args.seed}.npz")
            lines += [f"hashes equal to the untraced pass: {outcome.hashes == plain.hashes}",
                      f"per-layer (traced, {len(tracer)} spans; spans in "
                      f"{(traces / f'{args.workload}-seed{args.seed}.npz').relative_to(ROOT)}):"]
            lines += table
            outcome.attempted += plain.attempted
            outcome.failed += plain.failed
            outcome.errors += plain.errors
    except wl.BenchFailure as exc:
        outcome = exc.outcome
        metrics = {}
    finally:
        if run_dir.exists():
            shutil.rmtree(run_dir)
    correct = outcome.failed == 0
    lines += [f"failed check: {e}" for e in outcome.errors]
    _emit(lines, correct, max(outcome.attempted, 1), outcome.failed, metrics)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    combined = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--schedule", args.schedule]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        for line in out[:-1]:
            print(line)
        try:
            combined[workload] = json.loads(out[-1])
        except (IndexError, json.JSONDecodeError):
            combined[workload] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = max(status, proc.returncode)
    correct = all(r["correct"] for r in combined.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in combined.values()),
                      "failed": sum(r["failed"] for r in combined.values()),
                      "metrics": {f"{w}.{k}": v for w, r in combined.items()
                                  for k, v in r["metrics"].items()}}))
    return status if status else (0 if correct else 1)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "semidx" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"cannot run: {src / 'semidx'} or BENCHMARK.json is missing; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    nproc = _one_blas_thread()
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
