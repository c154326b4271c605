"""Command-line pipeline: synth, pretrain, train, index, retrieve, eval.

Each command is deterministic given the same config and seed, writes its
resolved config plus the hashes of every input artifact it consumed, and
exits 0 on success, 2 on usage/config errors, 3 on runtime failures.
Machine-readable errors go to stderr as JSON lines. The only environment
variable honored is SEMIDX_LOG (log verbosity).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from semidx import index as index_mod
from semidx import metrics as metrics_mod
from semidx.autodiff import Optimizer
from semidx.config import (ConfigError, RunConfig, config_hash, dump_config,
                           load_config, to_dict)
from semidx.data import (Corpus, Vocab, build_vocab, load_corpus, split_pairs,
                         synth_corpus, write_items, write_pairs)
from semidx.metrics import RankedList
from semidx.model import (CheckpointBundle, ModelConfig, TransformerModel, atomic_writer,
                          checkpoint_hash, load_checkpoint, pad_rows, save_checkpoint)
from semidx.pretrain import PretrainData, run_pretraining
from semidx.training import AlignmentData, progressive_train

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _hash_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_text(path: Path, text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text.encode("utf-8"))


def _write_manifest(cfg: RunConfig, command: str, inputs: dict[str, Path]) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": to_dict(cfg),
        "config_hash": config_hash(cfg),
        "inputs": {name: _hash_file(p) for name, p in sorted(inputs.items())},
    }
    _write_text(out / f"{command}_manifest.json",
                json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    dump_config(cfg, out / "config.resolved.json")


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise ConfigError(f"missing {hint}: {path}")
    return path


def _corpus_paths(cfg: RunConfig) -> tuple[Path, Path, Path]:
    data_dir = Path(cfg.data_dir)
    return data_dir / "items.jsonl", data_dir / "pairs.jsonl", data_dir / "pairs_heldout.jsonl"


def _load_train_corpus(cfg: RunConfig) -> Corpus:
    items_path, pairs_path, _ = _corpus_paths(cfg)
    _require(items_path, "corpus items file")
    _require(pairs_path, "corpus pairs file")
    corpus, _ = load_corpus(items_path, pairs_path)
    return corpus


def _load_checkpoint(cfg: RunConfig, path: Path, hint: str) -> tuple[CheckpointBundle, Vocab]:
    """A checkpoint and the run's ``vocab.json``, refused unless the
    checkpoint was built on that vocabulary."""
    bundle = load_checkpoint(_require(path, hint))
    vocab = Vocab.load(_require(Path(cfg.out_dir) / "vocab.json", "vocabulary file"))
    if vocab.content_hash() != bundle.model.vocab_hash:
        raise ConfigError(f"{path}: vocabulary hash does not match vocab.json")
    return bundle, vocab


def _read_retrieve_json(path: Path, what: str):
    """A JSON file retrieve wrote; one that does not parse is a corrupt ``what`` file."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: corrupt {what} file (not JSON)") from exc


def _jsonl_logger(path: Path):
    fh = open(path, "w", encoding="utf-8")

    def log(record: dict) -> None:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    return log, fh


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: RunConfig) -> int:
    d = cfg.data
    items, pairs = synth_corpus(
        depth=d.depth, branching=d.branching, vocab_per_node=d.vocab_per_node,
        items_per_leaf=d.items_per_leaf, query_noise=d.query_noise, seed=cfg.seed,
        queries_per_item=d.queries_per_item, tokens_per_level=d.tokens_per_level)
    train, heldout = split_pairs(pairs, d.holdout_per_item, seed=cfg.seed)
    data_dir = Path(cfg.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    items_path, pairs_path, heldout_path = _corpus_paths(cfg)
    write_items(items, items_path)
    write_pairs(train, pairs_path)
    write_pairs(heldout, heldout_path)
    load_corpus(items_path, pairs_path)  # integrity check on what we wrote
    _write_manifest(cfg, "synth", {})
    logger.info("synth: %d items, %d train pairs, %d held-out pairs",
                len(items), len(train), len(heldout))
    return EXIT_OK


def cmd_pretrain(cfg: RunConfig, resume_from: str | None = None) -> int:
    corpus = _load_train_corpus(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    start_epoch, optimizer_state = 0, {}
    if resume_from:
        bundle, vocab = _load_checkpoint(cfg, Path(resume_from), "checkpoint to resume from")
        model = bundle.model
        start_epoch = bundle.extra.get("epochs_completed", 0)
        if type(start_epoch) is not int or start_epoch < 0:
            raise ValueError(f"{resume_from}: truncated or corrupt checkpoint "
                             "(epochs_completed is not a non-negative integer)")
        optimizer_state = bundle.optimizer_state or {}
    else:
        texts = [it.text for it in corpus.items.values()] + [p.query for p in corpus.pairs]
        vocab = build_vocab(texts)
        vocab.save(out / "vocab.json")
        model_cfg = ModelConfig(**asdict(cfg.model), vocab_size=len(vocab),
                                num_steps=cfg.train.num_steps,
                                codebook_size=cfg.train.codebook_size, seed=cfg.seed)
        model = TransformerModel(model_cfg, vocab_hash=vocab.content_hash())
    optimizer = Optimizer(model.parameters(), lr=cfg.pretrain.lr)
    vars(optimizer).update(optimizer_state)   # step_count, skipped_updates, m and v

    data = PretrainData.from_corpus(corpus, vocab, model.config.max_text_len)
    log, fh = _jsonl_logger(out / "pretrain_log.jsonl")
    try:
        history = run_pretraining(model, optimizer, data, vocab,
                                  epochs=cfg.pretrain.epochs,
                                  batch_size=cfg.pretrain.batch_size,
                                  seed=cfg.seed, log_fn=log,
                                  start_epoch=start_epoch)
    finally:
        fh.close()
    save_checkpoint(out / "pretrain.ckpt", model, optimizer,
                    extra={"epochs_completed": max(start_epoch, cfg.pretrain.epochs)})
    items_path, pairs_path, _ = _corpus_paths(cfg)
    _write_manifest(cfg, "pretrain", {"items": items_path, "pairs": pairs_path})
    if history.losses:
        logger.info("pretrain: first loss %.3f, last loss %.3f",
                    history.losses[0], history.losses[-1])
    return EXIT_OK


def cmd_train(cfg: RunConfig, from_checkpoint: str | None = None) -> int:
    corpus = _load_train_corpus(cfg)
    out = Path(cfg.out_dir)
    ckpt_path = Path(from_checkpoint) if from_checkpoint else out / "pretrain.ckpt"
    bundle, vocab = _load_checkpoint(cfg, ckpt_path, "pre-trained checkpoint")
    model = bundle.model

    tcfg = cfg.train
    if tcfg.num_steps > model.config.num_steps:
        raise ConfigError(f"schedule asks for {tcfg.num_steps} steps but the model "
                          f"was built with {model.config.num_steps}")
    if tcfg.codebook_size != model.config.codebook_size:
        raise ConfigError(f"schedule asks for {tcfg.codebook_size}-entry codebooks but the "
                          f"model was built with {model.config.codebook_size}")

    data = AlignmentData.from_corpus(corpus, vocab, model.config.max_text_len)
    optimizer = Optimizer(model.parameters(), lr=tcfg.lr)
    log, fh = _jsonl_logger(out / "train_log.jsonl")
    try:
        for assigned, stats in progressive_train(model, optimizer, data, tcfg, cfg.seed,
                                                 log_fn=log):
            step = assigned.num_steps
            step_ckpt = out / f"model_step{step}.ckpt"
            save_checkpoint(step_ckpt, model)
            assigned.checkpoint_hash = checkpoint_hash(step_ckpt)
            assigned.save(out / f"assignments_step{step}.json")
            log({"phase": "step_summary", "step": step,
                 "code_usage_entropy": stats.code_usage_entropy,
                 "dead_codes_reinit": stats.dead_codes_reinit,
                 "skipped_updates": optimizer.skipped_updates,
                 "batches": stats.batches})
    finally:
        fh.close()
    save_checkpoint(out / "model.ckpt", model)
    items_path, pairs_path, _ = _corpus_paths(cfg)
    _write_manifest(cfg, "train", {"items": items_path, "pairs": pairs_path,
                                   "pretrain_checkpoint": ckpt_path})
    return EXIT_OK


def _load_model_for_inference(cfg: RunConfig, from_checkpoint: str | None):
    out = Path(cfg.out_dir)
    ckpt_path = Path(from_checkpoint) if from_checkpoint else out / "model.ckpt"
    bundle, vocab = _load_checkpoint(cfg, ckpt_path, "trained model checkpoint")
    return bundle.model, vocab, ckpt_path


def cmd_index(cfg: RunConfig, from_checkpoint: str | None = None) -> int:
    model, vocab, ckpt_path = _load_model_for_inference(cfg, from_checkpoint)
    items_path, _, _ = _corpus_paths(cfg)
    corpus, _ = load_corpus(_require(items_path, "corpus items file"), None)
    items = {iid: vocab.encode(it.text, model.config.max_text_len)
             for iid, it in sorted(corpus.items.items())}
    depth = model.trained_steps
    if depth < 1:
        raise ConfigError("model has no trained steps; run the train command first")
    idx = index_mod.assign_all_ids(model, items, depth,
                                   checkpoint_hash=checkpoint_hash(ckpt_path))
    out = Path(cfg.out_dir)
    idx.save(out / "index.json")
    _write_manifest(cfg, "index", {"items": items_path, "model": ckpt_path})
    logger.info("index: %d items at depth %d", len(idx), depth)
    return EXIT_OK


def _query_inputs(cfg: RunConfig) -> dict[str, Path]:
    """The corpus files the held-out queries and their judgments come from."""
    items_path, _, heldout_path = _corpus_paths(cfg)
    return {"items": _require(items_path, "corpus items file"),
            "queries": _require(heldout_path, "held-out query pairs file")}


def _heldout_queries(cfg: RunConfig, vocab: Vocab,
                     model) -> tuple[Corpus, list[str], list[list[int]], dict[str, set[str]]]:
    """The items with the held-out pairs, and the ids, token rows and judged
    items of the held-out queries."""
    source = _query_inputs(cfg)
    corpus, _ = load_corpus(source["items"], source["queries"])
    query_ids, token_rows = [], []
    judgments: dict[str, set[str]] = {}
    for i, pair in enumerate(corpus.pairs):
        tokens = vocab.encode(pair.query, model.config.max_text_len)
        if not tokens:
            continue
        qid = f"q{i:06d}"
        query_ids.append(qid)
        token_rows.append(tokens)
        judgments[qid] = {pair.item_id}
    return corpus, query_ids, token_rows, judgments


def cmd_retrieve(cfg: RunConfig, from_checkpoint: str | None = None) -> int:
    model, vocab, ckpt_path = _load_model_for_inference(cfg, from_checkpoint)
    out = Path(cfg.out_dir)
    idx_path = _require(out / "index.json", "code index")
    idx = index_mod.CodeIndex.load(idx_path,
                                   expected_checkpoint_hash=checkpoint_hash(ckpt_path))
    corpus, query_ids, token_rows, _ = _heldout_queries(cfg, vocab, model)
    depth, beam_width = model.trained_steps, cfg.eval.beam_width
    # dense: every item ranked by its final state's dot product with the query's
    _, query_states = index_mod.greedy_decode_rows(model, token_rows, depth)
    tokenized = {iid: vocab.encode(it.text, model.config.max_text_len)
                 for iid, it in sorted(corpus.items.items())}
    matrix, item_ids = index_mod.item_representation_matrix(model, tokenized, depth)
    dense = [index_mod.dense_rank(q, matrix, item_ids, cfg.eval.dense_k, query_id=qid)
             for qid, q in zip(query_ids, query_states)]
    beams_per_query = index_mod.beam_search_decode_batch(
        model, token_rows, beam_width, depth=idx.num_steps, constrain=True, index=idx)
    generative = [index_mod.generative_retrieve(model, idx, tokens, beam_width,
                                                cfg.eval.retrieve_cutoff, query_id=qid,
                                                beams=beams)
                  for qid, tokens, beams in zip(query_ids, token_rows, beams_per_query)]
    for mode, runs in (("dense", dense), ("generative", generative)):
        _write_text(out / f"runs_{mode}.json",
                    json.dumps([vars(r) for r in runs], sort_keys=True))
    _write_manifest(cfg, "retrieve", {"model": ckpt_path, "index": idx_path,
                                      **_query_inputs(cfg)})
    return EXIT_OK


def cmd_eval(cfg: RunConfig, from_checkpoint: str | None = None) -> int:
    """Score the runs that retrieve wrote with this config, checkpoint and index."""
    max_k = max(max(cfg.eval.recall_ks), cfg.eval.mrr_k)
    if cfg.eval.dense_k < max_k:
        raise ConfigError(f"eval.dense_k ({cfg.eval.dense_k}) is below the largest "
                          f"recall or MRR cutoff ({max_k})")
    model, vocab, ckpt_path = _load_model_for_inference(cfg, from_checkpoint)
    out = Path(cfg.out_dir)
    idx_path = _require(out / "index.json", "code index")
    model_hash = checkpoint_hash(ckpt_path)
    idx = index_mod.CodeIndex.load(idx_path, expected_checkpoint_hash=model_hash)
    manifest_path = _require(out / "retrieve_manifest.json", "retrieve manifest")
    manifest = _read_retrieve_json(manifest_path, "retrieve manifest")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("inputs"), dict):
        raise ValueError(f"{manifest_path}: corrupt retrieve manifest file (no inputs object)")
    if manifest.get("config_hash") != config_hash(cfg):
        raise ConfigError("retrieve ran with another config; run retrieve again")
    seen = manifest["inputs"]
    if [seen.get("model"), seen.get("index")] != [model_hash, _hash_file(idx_path)]:
        raise ConfigError("retrieve ran on another checkpoint or index; run retrieve again")
    query_inputs = _query_inputs(cfg)
    if [seen.get(k) for k in query_inputs] != [_hash_file(p) for p in query_inputs.values()]:
        raise ConfigError("retrieve read other corpus items or held-out queries; "
                          "run retrieve again")
    corpus, query_ids, token_rows, judgments = _heldout_queries(cfg, vocab, model)
    if not query_ids:
        raise ConfigError("no evaluation queries available")

    metrics: list[dict] = []
    run_paths = {mode: out / f"runs_{mode}.json" for mode in ("dense", "generative")}
    for mode, path in run_paths.items():
        rows = _read_retrieve_json(_require(path, "retrieval runs"), "retrieval runs")
        try:
            runs = [RankedList(**row) for row in rows]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: corrupt retrieval runs file ({exc})") from exc
        if [r.query_id for r in runs] != query_ids:
            raise ConfigError(f"{path.name} does not answer the held-out queries in "
                              "order; run retrieve again")
        for k in cfg.eval.recall_ks:
            metrics.append({"name": "recall", "mode": mode, "k": k,
                            "value": metrics_mod.recall_at_k(runs, judgments, k),
                            "query_count": len(runs)})
        metrics.append({"name": "mrr", "mode": mode, "k": cfg.eval.mrr_k,
                        "value": metrics_mod.mrr_at_k(runs, judgments, cfg.eval.mrr_k),
                        "query_count": len(runs)})

    def shared_ami(a: dict, b: dict) -> tuple[float, int]:
        """AMI of two partitions over the items both label, and that count."""
        common = set(a) & set(b)
        return (metrics_mod.ami({i: a[i] for i in common}, {i: b[i] for i in common}),
                len(common))

    # partition agreement of code prefixes against item labels
    categories = {iid: it.category for iid, it in corpus.items.items()
                  if it.category is not None}
    paths = {iid: it.path for iid, it in corpus.items.items() if it.path is not None}
    levels = range(1, idx.num_steps + 1)
    for level in levels:
        code_part = metrics_mod.partition_from_ids(idx.by_item, level)
        if categories and level == 1:
            value, count = shared_ami(code_part, categories)
            metrics.append({"name": "ami", "compare": "category", "level": 1,
                            "value": value, "item_count": count})
        if paths and all(len(p) >= level for p in paths.values()):
            value, count = shared_ami(code_part, metrics_mod.partition_from_ids(paths, level))
            metrics.append({"name": "ami", "compare": "path", "level": level,
                            "value": value, "item_count": count})

    # query-item code consistency on the held-out pairs
    query_codes, _ = index_mod.greedy_decode_rows(model, token_rows, model.trained_steps)
    query_sids = {qid: tuple(int(c) for c in row) for qid, row in zip(query_ids, query_codes)}
    pairs = [(qid, next(iter(judgments[qid]))) for qid in query_ids]
    for level in levels:
        value = metrics_mod.code_consistency(pairs, query_sids, idx.by_item, level)
        metrics.append({"name": "code_consistency", "level": level, "value": value,
                        "pair_count": len(pairs)})

    inputs = {"model": ckpt_path, "index": idx_path, **query_inputs,
              **{f"runs_{mode}": path for mode, path in run_paths.items()}}
    if cfg.eval.kmeans_baseline:
        pre_path = out / "pretrain.ckpt"
        bundle, _ = _load_checkpoint(cfg, pre_path, "pre-trained checkpoint for the baseline")
        pre_model = bundle.model
        tokenized = {iid: vocab.encode(it.text, pre_model.config.max_text_len)
                     for iid, it in sorted(corpus.items.items())}
        ids = list(tokenized)
        emb = np.zeros((len(ids), pre_model.config.hidden_size))
        for start in range(0, len(ids), 256):
            tok, mask = pad_rows([tokenized[i] for i in ids[start:start + 256]])
            emb[start:start + len(tok)] = pre_model.mean_pooled_encoding(tok, mask)
        baseline_codes = index_mod.hierarchical_kmeans_codes(
            emb, cfg.train.codebook_size, cfg.train.num_steps, seed=cfg.seed)
        if categories:
            base_part = metrics_mod.partition_from_ids(dict(zip(ids, baseline_codes)), 1)
            value, count = shared_ami(base_part, categories)
            metrics.append({"name": "baseline_kmeans_ami", "compare": "category",
                            "level": 1, "value": value, "item_count": count})
        inputs["pretrain_checkpoint"] = pre_path

    report = {"config_hash": config_hash(cfg), "metrics": metrics}
    _write_text(out / "metrics.json", json.dumps(report, sort_keys=True, indent=2) + "\n")
    _write_manifest(cfg, "eval", inputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semidx",
                                     description="semantic-ID training and retrieval pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "pretrain", "train", "index", "retrieve", "eval"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON run config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        if name in ("pretrain", "train", "index", "retrieve", "eval"):
            p.add_argument("--from", dest="from_checkpoint",
                           help="checkpoint to resume from / operate on")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("SEMIDX_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.out)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "pretrain":
            return cmd_pretrain(cfg, resume_from=args.from_checkpoint)
        if args.command == "train":
            return cmd_train(cfg, from_checkpoint=args.from_checkpoint)
        if args.command == "index":
            return cmd_index(cfg, from_checkpoint=args.from_checkpoint)
        if args.command == "retrieve":
            return cmd_retrieve(cfg, from_checkpoint=args.from_checkpoint)
        if args.command == "eval":
            return cmd_eval(cfg, from_checkpoint=args.from_checkpoint)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ValueError, FileNotFoundError) as exc:
        # ConfigError and domain parameter errors are usage-class failures
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure
        logger.exception("command failed")
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
