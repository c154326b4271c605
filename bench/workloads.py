"""The two benchmark workloads, driven through semidx's public surface.

``pipeline`` runs the acceptance corpus and model shape through the CLI
stages pretrain -> train -> index -> retrieve -> eval, then answers held-out
queries one at a time. ``serve_deep`` builds a depth-3 model with a short
schedule, then answers every held-out query one at a time, generatively and
densely. Both are closed loops with one client in one process.

The benchmark generates each corpus itself, as ``semidx synth`` would, and
hands semidx only the data directory. The corpus seed is fixed, like the
program seed in the config (model init and sampling): a model trained on
another corpus collapses its codes differently (ROADMAP item 4), which moves
recall, AMI and generative latency by more than any bound could allow, and
fresh query text adds binomial noise of about 15% to a recall near 0.05.
The workload seed draws the single-query client's stream: which held-out
queries it sends and in what order. Every run checks its outputs and counts
failed stages, queries and checks against the operations it attempted.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from semidx import cli, data, index, metrics, model

PROGRAM_SEED = 0
CORPUS_SEED = 0     # with PIPELINE_DATA this is the tier-1 acceptance corpus
BEAM_WIDTH = 8
CUTOFF = 100
# scores of one query computed at B=1 and inside a batch may differ in the
# last bits of the float64 sums; rankings are compared up to this tolerance
SCORE_TOL = 1e-8
CROSS_CHECK_EVERY = 16   # every 16th held-out query is cross-checked
PIPELINE_CLIENT_QUERIES = 500   # p95 has 25 samples beyond it
PIPELINE_SERVE_CHUNKS = 4   # sent between stages, so the tail samples the whole run

# acceptance corpus and model shape (tests/test_acceptance.py::ACCEPTANCE_CONFIG)
PIPELINE_DATA = {"depth": 2, "branching": 8, "vocab_per_node": 20, "items_per_leaf": 25,
                 "queries_per_item": 3, "query_noise": 0.1, "tokens_per_level": 6,
                 "holdout_per_item": 1}
PIPELINE_TRAIN = {"num_steps": 2, "codebook_size": 16, "warmup_batches": 25,
                  "group_size": 8, "batch_size": 64, "queries_per_item": 2,
                  "epochs_per_step": 5, "lr": 1e-3, "gamma": 0.99,
                  "dead_code_threshold": 0.2, "reinit_interval_batches": 10}
SCHEDULES = {
    # the schedule tests/test_acceptance.py runs; used for the quality cross-check
    "acceptance": {"pretrain": {"epochs": 12}, "train": {}},
    # the benchmark's own, short enough for many runs: one pre-training
    # epoch, one epoch per step with one positive per item, half of it warm-up
    "bench": {"pretrain": {"epochs": 1},
              "train": {"epochs_per_step": 1, "queries_per_item": 1, "warmup_batches": 12}},
}

SERVE_DATA = {"depth": 3, "branching": 4, "vocab_per_node": 20, "items_per_leaf": 16,
              "queries_per_item": 3, "query_noise": 0.1, "tokens_per_level": 6,
              "holdout_per_item": 1}
SERVE_PRETRAIN = {"epochs": 1}
SERVE_TRAIN = dict(PIPELINE_TRAIN, num_steps=3, epochs_per_step=1, queries_per_item=1,
                   warmup_batches=8)

QUALITY = ("dense_recall_at_10", "gen_recall_at_10", "ami_level1", "ami_path_level2",
           "code_consistency_level2")
HASHED_ARTIFACTS = ("metrics.json", "index.json", "assignments_step1.json",
                    "assignments_step2.json", "assignments_step3.json", "serve_runs.json")


class BenchFailure(RuntimeError):
    """An output check failed in a way that leaves nothing further to measure."""

    def __init__(self, message: str, outcome: "Outcome"):
        super().__init__(message)
        self.outcome = outcome


@dataclass
class Outcome:
    """Operations attempted and failed, timing samples, and metric values."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)   # per-layer counts from outputs
    hashes: dict[str, str] = field(default_factory=dict)
    measured_s: float = 0.0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def _span(tracer, name, request=None):
    return nullcontext() if tracer is None else tracer.span(name, request)


# ---------------------------------------------------------------------------
# setup: corpus and config
# ---------------------------------------------------------------------------

def write_corpus(data_dir: Path, spec: dict) -> None:
    """The corpus as ``semidx synth`` writes it from ``CORPUS_SEED``."""
    spec = dict(spec)
    holdout = spec.pop("holdout_per_item")
    items, pairs = data.synth_corpus(seed=CORPUS_SEED, **spec)
    train, heldout = data.split_pairs(pairs, holdout, seed=CORPUS_SEED)
    data_dir.mkdir(parents=True, exist_ok=True)
    data.write_items(items, data_dir / "items.jsonl")
    data.write_pairs(train, data_dir / "pairs.jsonl")
    data.write_pairs(heldout, data_dir / "pairs_heldout.jsonl")


def write_config(run_dir: Path, data_spec: dict, pretrain: dict, train: dict,
                 kmeans: bool) -> Path:
    cfg = {
        "seed": PROGRAM_SEED,
        "out_dir": str(run_dir / "out"),
        "data_dir": str(run_dir / "data"),
        "data": data_spec,
        "model": {"max_text_len": 18},
        "pretrain": dict(pretrain, batch_size=16, lr=2e-3),
        "train": train,
        "eval": {"beam_width": BEAM_WIDTH, "retrieve_cutoff": CUTOFF, "dense_k": CUTOFF,
                 "kmeans_baseline": kmeans},
    }
    path = run_dir / "config.json"
    path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
    return path


def setup(run_dir: Path, data_spec: dict, outcome: Outcome, tracer=None, **cfg) -> Path:
    """Generate the corpus and config into ``run_dir``, timed as ``setup_s``."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    t0 = perf_counter()
    with _span(tracer, "bench.setup", "setup"):
        write_corpus(run_dir / "data", data_spec)
        cfg_path = write_config(run_dir, data_spec, **cfg)
    outcome.sample("setup_s", perf_counter() - t0)
    return cfg_path


def repeat_setup(run_dir: Path, data_spec: dict, outcome: Outcome, **cfg) -> None:
    """One more timed setup, into a directory of its own that is then removed."""
    setup(run_dir / "repeat_setup", data_spec, outcome, **cfg)
    shutil.rmtree(run_dir / "repeat_setup")


def run_index(cfg_path: Path, out: Path, outcome: Outcome, tracer=None) -> index.CodeIndex:
    wall = run_stage(cfg_path, "index", outcome, tracer)
    idx = load_index(out, outcome)
    outcome.sample("index_items_per_s", len(idx) / wall)
    return idx


def run_stage(cfg_path: Path, stage: str, outcome: Outcome, tracer=None) -> float:
    t0 = perf_counter()
    with _span(tracer, f"cli.{stage}", stage):
        rc = cli.main([stage, "--config", str(cfg_path)])
    wall = perf_counter() - t0
    outcome.check(rc == 0, f"stage {stage} exited {rc}")
    if rc != 0:
        raise BenchFailure(f"stage {stage} exited {rc}", outcome)
    return wall


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def build(cfg_path: Path, out: Path, outcome: Outcome, tracer=None) -> index.CodeIndex:
    """pretrain -> train -> index through the CLI, with throughput per stage."""
    wall = run_stage(cfg_path, "pretrain", outcome, tracer)
    log = _read_jsonl(out / "pretrain_log.jsonl")
    examples = sum(log[-1]["task_counts"].values()) if log else 0
    outcome.check(examples > 0, "pretrain processed no examples")
    outcome.sample("pretrain_examples_per_s", examples / wall)

    wall = run_stage(cfg_path, "train", outcome, tracer)
    pairs = sum(r["batch_size"] for r in _read_jsonl(out / "train_log.jsonl")
                if r.get("phase") == "code_step")
    outcome.check(pairs > 0, "train processed no pairs")
    outcome.sample("train_pairs_per_s", pairs / wall)

    return run_index(cfg_path, out, outcome, tracer)


def load_index(out: Path, outcome: Outcome) -> index.CodeIndex:
    """``index.json`` must load and validate against the trained checkpoint."""
    try:
        idx = index.CodeIndex.load(
            out / "index.json",
            expected_checkpoint_hash=model.checkpoint_hash(out / "model.ckpt"))
    except (ValueError, AssertionError, OSError) as exc:
        outcome.check(False, f"index.json does not load: {exc}")
        raise BenchFailure("index.json does not load", outcome) from exc
    outcome.check(len(idx) > 0, "index is empty")
    return idx


def _pad(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(r) for r in rows)
    tok = np.zeros((len(rows), width), dtype=np.int64)
    mask = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        tok[i, : len(r)] = r
        mask[i, : len(r)] = 1.0
    return tok, mask


def _batched_greedy(m, token_rows, depth, chunk=256):
    codes, finals = [], []
    for start in range(0, len(token_rows), chunk):
        tok, mask = _pad(token_rows[start:start + chunk])
        c, f = m.greedy_decode_batch(tok, mask, depth)
        codes.extend(tuple(int(x) for x in row) for row in c)
        finals.extend(f)
    return codes, finals


# ---------------------------------------------------------------------------
# single-query serving
# ---------------------------------------------------------------------------

@dataclass
class Server:
    """Everything one client needs to answer queries from saved artifacts."""

    model: object
    idx: index.CodeIndex
    matrix: np.ndarray
    item_ids: list[str]
    queries: list[tuple[str, list[int]]]
    judgments: dict[str, set[str]]
    corpus: data.Corpus

    @property
    def depth(self) -> int:
        return self.idx.num_steps


def open_server(run_dir: Path, outcome: Outcome, seed: int,
                limit: int | None = None) -> Server:
    """Load the artifacts a client needs. The client's stream is the held-out
    queries in an order drawn from ``seed``, the first ``limit`` of them."""
    out = run_dir / "out"
    bundle = model.load_checkpoint(out / "model.ckpt")
    vocab = data.Vocab.load(out / "vocab.json")
    idx = load_index(out, outcome)
    corpus, _ = data.load_corpus(run_dir / "data" / "items.jsonl",
                                 run_dir / "data" / "pairs_heldout.jsonl")
    m = bundle.model
    max_len = m.config.max_text_len
    tokenized = {iid: vocab.encode(it.text, max_len) for iid, it in sorted(corpus.items.items())}
    matrix, item_ids = index.item_representation_matrix(m, tokenized, idx.num_steps)
    queries, judgments = [], {}
    for i, pair in enumerate(corpus.pairs):
        tokens = vocab.encode(pair.query, max_len)
        if tokens:
            qid = f"q{i:06d}"
            queries.append((qid, tokens))
            judgments[qid] = {pair.item_id}
    order = np.random.default_rng(seed).permutation(len(queries))[:limit]
    queries = [queries[i] for i in order]
    outcome.check(len(queries) > 0, "no held-out queries")
    return Server(m, idx, matrix, item_ids, queries, judgments, corpus)


def _list_ok(run, idx: index.CodeIndex) -> bool:
    return (0 < len(run.item_ids) <= CUTOFF
            and all(iid in idx.by_item for iid in run.item_ids))


def serve(srv: Server, queries, outcome: Outcome, tracer=None):
    """Each query goes through generative then dense retrieval at B=1, timed
    per call. Returns the ranked lists."""
    gen_runs, dense_runs = [], []
    for qid, tokens in queries:
        with _span(tracer, "bench.query", qid):
            for mode, runs in (("gen", gen_runs), ("dense", dense_runs)):
                t0 = perf_counter()
                try:
                    if mode == "gen":
                        run = index.generative_retrieve(srv.model, srv.idx, tokens, BEAM_WIDTH,
                                                        CUTOFF, query_id=qid)
                    else:
                        run = index.dense_retrieve(srv.model, srv.matrix, srv.item_ids, tokens,
                                                   srv.depth, CUTOFF, query_id=qid)
                except Exception as exc:  # a query that raises counts as failed
                    outcome.check(False, f"{mode} query {qid} raised {exc!r}")
                    continue
                outcome.sample(f"{mode}_latency_ms", (perf_counter() - t0) * 1e3)
                if outcome.check(_list_ok(run, srv.idx), f"{mode} list for {qid} is malformed"):
                    runs.append(run)
    return gen_runs, dense_runs


def _same_ranking(a, b) -> bool:
    """Equal item-id order, except that items whose scores agree within
    ``SCORE_TOL`` may trade places."""
    if len(a.item_ids) != len(b.item_ids):
        return False
    if not np.allclose(a.scores, b.scores, rtol=0.0, atol=SCORE_TOL):
        return False
    score_b = dict(zip(b.item_ids, b.scores))
    for i, (x, y) in enumerate(zip(a.item_ids, b.item_ids)):
        if x != y and abs(score_b.get(x, np.inf) - a.scores[i]) > SCORE_TOL:
            return False
    return True


def cross_check(srv: Server, gen_runs, dense_runs, outcome: Outcome) -> None:
    """Single-query results must equal the batched paths on a fixed sample."""
    by_qid_gen = {r.query_id: r for r in gen_runs}
    by_qid_dense = {r.query_id: r for r in dense_runs}
    sample = srv.queries[::CROSS_CHECK_EVERY]
    rows = [tokens for _, tokens in sample]
    beams = index.beam_search_decode_batch(srv.model, rows, BEAM_WIDTH, depth=srv.depth,
                                           constrain=True, index=srv.idx)
    _, finals = _batched_greedy(srv.model, rows, srv.depth)
    for (qid, tokens), b, final in zip(sample, beams, finals):
        batched = index.generative_retrieve(srv.model, srv.idx, tokens, BEAM_WIDTH, CUTOFF,
                                            query_id=qid, beams=b)
        single = by_qid_gen.get(qid)
        outcome.check(single is not None and single.item_ids == batched.item_ids
                      and np.allclose(single.scores, batched.scores, rtol=0.0, atol=SCORE_TOL),
                      f"generative list for {qid} differs from the batched beam")
        batched = index.dense_rank(final, srv.matrix, srv.item_ids, CUTOFF, query_id=qid)
        single = by_qid_dense.get(qid)
        outcome.check(single is not None and _same_ranking(single, batched),
                      f"dense list for {qid} differs from the batched greedy state")


def score(srv: Server, gen_runs, dense_runs, outcome: Outcome) -> dict[str, float]:
    """Recall, AMI and consistency of served lists, through ``semidx.metrics``."""
    judged = {r.query_id for r in gen_runs} & {r.query_id for r in dense_runs}
    gen_runs = [r for r in gen_runs if r.query_id in judged]
    dense_runs = [r for r in dense_runs if r.query_id in judged]
    sids = srv.idx.by_item
    categories = {iid: it.category for iid, it in srv.corpus.items.items()}
    paths = {iid: it.path for iid, it in srv.corpus.items.items()}
    code1 = metrics.partition_from_ids(sids, 1)
    code2 = metrics.partition_from_ids(sids, 2)
    path2 = metrics.partition_from_ids(paths, 2)
    queries = [(qid, tokens) for qid, tokens in srv.queries if qid in judged]
    query_sids, _ = _batched_greedy(srv.model, [t for _, t in queries], srv.depth)
    pairs = [(qid, next(iter(srv.judgments[qid]))) for qid, _ in queries]
    values = {
        "dense_recall_at_10": metrics.recall_at_k(dense_runs, srv.judgments, 10),
        "gen_recall_at_10": metrics.recall_at_k(gen_runs, srv.judgments, 10),
        "dense_mrr_at_100": metrics.mrr_at_k(dense_runs, srv.judgments, CUTOFF),
        "gen_mrr_at_100": metrics.mrr_at_k(gen_runs, srv.judgments, CUTOFF),
        "ami_level1": metrics.ami(code1, {i: categories[i] for i in code1}),
        "ami_path_level2": metrics.ami(code2, {i: path2[i] for i in code2}),
        "code_consistency_level2": metrics.code_consistency(
            pairs, dict(zip([q for q, _ in queries], query_sids)), sids, 2),
    }
    outcome.check(all(np.isfinite(v) for v in values.values()), "a quality metric is not finite")
    return values


def index_health(by_item: dict, paired: dict[str, str],
                 gen_lists: list[tuple[str, list[str]]]) -> dict[str, float]:
    """Per-layer counts read off the index and the generative lists: the
    share of queries whose paired item carries the top beam's ID."""
    buckets = Counter(by_item.values())
    hits = sum(by_item[paired[qid]] == by_item[items[0]] for qid, items in gen_lists)
    return {"index.distinct_ids": len(buckets), "index.max_bucket": max(buckets.values()),
            "index.top_beam_hit_share": hits / max(len(gen_lists), 1)}


def hash_artifacts(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in HASHED_ARTIFACTS if (out / name).exists()}


def record(srv: Server, out: Path, outcome: Outcome, gen_runs, dense_runs, tracer=None):
    """Cross-check the served lists and write them out."""
    with _span(tracer, "bench.cross_check", "cross_check"):
        cross_check(srv, gen_runs, dense_runs, outcome)
    payload = [[r.query_id, r.item_ids, r.scores] for r in gen_runs + dense_runs]
    (out / "serve_runs.json").write_text(json.dumps(payload), encoding="utf-8")
    paired = {qid: next(iter(items)) for qid, items in srv.judgments.items()}
    outcome.extra.update(index_health(srv.idx.by_item, paired,
                                      [(r.query_id, r.item_ids) for r in gen_runs]))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def pipeline(run_dir: Path, seed: int, tracer=None, schedule: str = "bench",
             repeat: bool = True) -> Outcome:
    """A fixed amount of work. ``repeat`` off runs each short stage once and
    skips the single-query client, which serve_deep covers; the traced
    passes run so, to stay short."""
    outcome = Outcome()
    sched = SCHEDULES[schedule]
    cfg = {"pretrain": sched["pretrain"], "train": dict(PIPELINE_TRAIN, **sched["train"]),
           "kmeans": True}
    cfg_path = setup(run_dir, PIPELINE_DATA, outcome, tracer, **cfg)
    out = run_dir / "out"
    started = perf_counter()
    idx = build(cfg_path, out, outcome, tracer)
    if repeat:
        srv = open_server(run_dir, outcome, seed, limit=PIPELINE_CLIENT_QUERIES)
        chunks = [srv.queries[i::PIPELINE_SERVE_CHUNKS] for i in range(PIPELINE_SERVE_CHUNKS)]
        gen_runs, dense_runs = serve(srv, chunks.pop(), outcome)

    wall = run_stage(cfg_path, "retrieve", outcome, tracer)
    answered = set()
    for mode in ("dense", "generative"):
        runs = json.loads((out / f"runs_{mode}.json").read_text(encoding="utf-8"))
        outcome.check(len(runs) > 0 and all(0 < len(r["item_ids"]) <= CUTOFF
                                            and set(r["item_ids"]) <= idx.by_item.keys()
                                            for r in runs),
                      f"runs_{mode}.json holds an empty, over-long or unindexed list")
        answered.update(r["query_id"] for r in runs)
    outcome.sample("retrieve_queries_per_s", len(answered) / wall)
    if repeat:
        _extend((gen_runs, dense_runs), serve(srv, chunks.pop(), outcome))
    heldout = _read_jsonl(run_dir / "data" / "pairs_heldout.jsonl")
    paired = {f"q{i:06d}": p["item_id"] for i, p in enumerate(heldout)}  # the CLI's query ids
    outcome.extra.update(index_health(idx.by_item, paired,
                                      [(r["query_id"], r["item_ids"]) for r in runs]))

    outcome.sample("eval_s", run_stage(cfg_path, "eval", outcome, tracer))
    found = _quality_from_metrics_json(out / "metrics.json", outcome)
    if repeat:
        _extend((gen_runs, dense_runs), serve(srv, chunks.pop(), outcome))
        # short stages run again later, because the speed of a shared host
        # drifts over seconds; their metrics are the median of both runs
        repeat_setup(run_dir, PIPELINE_DATA, outcome, **cfg)
        run_index(cfg_path, out, outcome)
        _extend((gen_runs, dense_runs), serve(srv, chunks.pop(), outcome))
        record(srv, out, outcome, gen_runs, dense_runs)
    outcome.measured_s = perf_counter() - started
    outcome.values.update(found)
    outcome.hashes = hash_artifacts(out)
    return outcome


def _extend(lists, more) -> None:
    for a, b in zip(lists, more):
        a.extend(b)


def _quality_from_metrics_json(path: Path, outcome: Outcome) -> dict[str, float]:
    rows = json.loads(path.read_text(encoding="utf-8"))["metrics"]

    def pick(name, **match):
        for r in rows:
            if r["name"] == name and all(r.get(k) == v for k, v in match.items()):
                return float(r["value"])
        return None

    found = {
        "dense_recall_at_10": pick("recall", mode="dense", k=10),
        "gen_recall_at_10": pick("recall", mode="generative", k=10),
        "ami_level1": pick("ami", compare="category", level=1),
        "ami_path_level2": pick("ami", compare="path", level=2),
        "code_consistency_level2": pick("code_consistency", level=2),
        "baseline_kmeans_ami": pick("baseline_kmeans_ami", compare="category", level=1),
    }
    for name, value in found.items():
        outcome.check(value is not None and np.isfinite(value),
                      f"metrics.json lacks {name}")
    return {k: v for k, v in found.items() if v is not None}


SERVE_CFG = {"pretrain": SERVE_PRETRAIN, "train": SERVE_TRAIN, "kmeans": False}


def serve_deep(run_dir: Path, seed: int, seconds: float, repeat: bool = True) -> Outcome:
    """Build untraced, then serve; ``repeat`` off runs each short stage once."""
    outcome = Outcome()
    cfg_path = setup(run_dir, SERVE_DATA, outcome, **SERVE_CFG)
    build(cfg_path, run_dir / "out", outcome)
    served = serve_built(run_dir, seed, outcome, seconds)
    if repeat:    # short stages again, as in pipeline
        repeat_setup(run_dir, SERVE_DATA, outcome, **SERVE_CFG)
        run_index(cfg_path, run_dir / "out", outcome)
        evaluate(served, outcome)
    return outcome


def evaluate(served, outcome: Outcome, tracer=None) -> dict[str, float]:
    srv, gen_runs, dense_runs = served
    t0 = perf_counter()
    with _span(tracer, "bench.eval", "eval"):
        values = score(srv, gen_runs, dense_runs, outcome)
    outcome.sample("eval_s", perf_counter() - t0)
    return values


def serve_built(run_dir: Path, seed: int, outcome: Outcome, seconds: float, tracer=None):
    """The measured part of ``serve_deep``: answer queries from saved artifacts,
    then score them. Returns the server and the ranked lists."""
    out = run_dir / "out"
    started = perf_counter()
    with _span(tracer, "bench.open_server", "open_server"):
        srv = open_server(run_dir, outcome, seed)
    passes = 0
    while True:    # whole passes until ``seconds`` have gone by
        gen_runs, dense_runs = serve(srv, srv.queries, outcome, tracer)
        passes += 1
        if perf_counter() - started >= seconds:
            break
    record(srv, out, outcome, gen_runs, dense_runs, tracer)
    served = perf_counter() - started
    outcome.sample("retrieve_queries_per_s", passes * len(srv.queries) / served)
    values = evaluate((srv, gen_runs, dense_runs), outcome, tracer)
    (out / "metrics.json").write_text(json.dumps(values, sort_keys=True), encoding="utf-8")
    outcome.values.update(values)
    outcome.measured_s = perf_counter() - started
    outcome.hashes = hash_artifacts(out)
    return srv, gen_runs, dense_runs


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def summarize(outcome: Outcome) -> dict[str, tuple[float, int]]:
    """End-to-end values as (value, sample count): medians and percentiles.

    Latency is gated at p90 and p95. On a shared host it is bimodal (the
    host's fast and slow phases), so p50 falls between the modes and moved by
    22-27% across three runs, and p99 falls among stalls and moved by 9-28%;
    p90 and p95 sit in the slow mode's body and moved by 1-4%. p50 and p99
    are still reported, ungated."""
    s = outcome.samples
    out: dict[str, tuple[float, int]] = {}
    for name in ("setup_s", "pretrain_examples_per_s", "train_pairs_per_s",
                 "index_items_per_s", "retrieve_queries_per_s", "eval_s"):
        if name in s:
            out[name] = (statistics.median(s[name]), len(s[name]))
    for mode in ("gen", "dense"):
        lat = s.get(f"{mode}_latency_ms", [])
        if lat:
            for q in (50, 90, 95, 99):
                out[f"{mode}_latency_p{q}_ms"] = (percentile(lat, q), len(lat))
    for name in QUALITY:
        if name in outcome.values:
            out[name] = (outcome.values[name], 1)
    return out
