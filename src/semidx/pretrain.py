"""Domain-adaptive pre-training on item texts and their queries.

Three sequence-to-sequence tasks share one backbone and one summed loss:
generate a co-occurring query from the item text, reconstruct a span-masked
item text, and complete an item text's suffix from a query plus the prefix.
Tasks are sampled uniformly (1:1:1) and marked by reserved task tokens on
the encoder input.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from semidx import autodiff as ad
from semidx.data import (MASK_SENTINELS, TASK_CLOZE, TASK_QUERY_GEN,
                         TASK_SUFFIX, Vocab)
from semidx.model import TransformerModel, pad_rows

logger = logging.getLogger(__name__)

TASKS = ("query_generation", "item_cloze", "suffix_completion")


@dataclass
class PretrainExample:
    task: str
    input_tokens: list[int]
    target_tokens: list[int]
    spans: list[tuple[int, int]] | None = None  # cloze spans as (start, length)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if not self.target_tokens:
            raise ValueError("target must be non-empty")


def build_query_generation(item_tokens: list[int], query_token_lists: list[list[int]],
                           vocab: Vocab, rng: np.random.Generator) -> PretrainExample | None:
    """Item text in, one uniformly sampled co-occurring query out."""
    queries = [q for q in query_token_lists if q]
    if not queries:
        return None
    target = list(queries[int(rng.integers(len(queries)))])
    tag = vocab.token_id(TASK_QUERY_GEN)
    return PretrainExample(task="query_generation",
                           input_tokens=[tag] + list(item_tokens),
                           target_tokens=target)


def sample_cloze_spans(length: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """1-3 non-overlapping spans of 1-3 tokens; degenerate texts get 1x1.

    Spans are returned sorted by start position.
    """
    if length < 1:
        raise ValueError("cannot mask an empty text")
    if length < 4:
        return [(int(rng.integers(length)), 1)]
    n_spans = int(rng.integers(1, 4))
    spans: list[tuple[int, int]] = []
    for _ in range(n_spans):
        span_len = int(rng.integers(1, 4))
        placed = False
        for _ in range(20):
            span_len_try = min(span_len, length)
            start = int(rng.integers(length - span_len_try + 1))
            overlap = any(start < s + l and s < start + span_len_try for s, l in spans)
            if not overlap:
                spans.append((start, span_len_try))
                placed = True
                break
        if not placed:
            continue
    if not spans:
        spans = [(int(rng.integers(length)), 1)]
    return sorted(spans)


def build_item_cloze(item_tokens: list[int], vocab: Vocab, rng: np.random.Generator,
                     spans: list[tuple[int, int]] | None = None) -> PretrainExample:
    """Replace each sampled span with a distinct sentinel; the target is the
    complete original text. ``spans`` overrides sampling (test hook; an
    empty list leaves the input unmasked).
    """
    if spans is None:
        spans = sample_cloze_spans(len(item_tokens), rng)
    masked: list[int] = []
    cursor = 0
    for k, (start, span_len) in enumerate(spans):
        sentinel = vocab.token_id(MASK_SENTINELS[min(k, len(MASK_SENTINELS) - 1)])
        masked.extend(item_tokens[cursor:start])
        masked.append(sentinel)
        cursor = start + span_len
    masked.extend(item_tokens[cursor:])
    tag = vocab.token_id(TASK_CLOZE)
    return PretrainExample(task="item_cloze", input_tokens=[tag] + masked,
                           target_tokens=list(item_tokens), spans=list(spans))


def build_suffix_completion(item_tokens: list[int], query_tokens: list[int],
                            vocab: Vocab, rng: np.random.Generator) -> PretrainExample | None:
    """Split the item uniformly; input is query + prefix, target the suffix."""
    if len(item_tokens) < 2:
        return None
    split = int(rng.integers(1, len(item_tokens)))
    tag = vocab.token_id(TASK_SUFFIX)
    return PretrainExample(task="suffix_completion",
                           input_tokens=[tag] + list(query_tokens) + list(item_tokens[:split]),
                           target_tokens=list(item_tokens[split:]))


@dataclass
class PretrainData:
    """Tokenized corpus view used by the pre-training loop."""

    item_ids: list[str]
    item_tokens: dict[str, list[int]]
    query_tokens: dict[str, list[list[int]]]  # item id -> its queries

    @classmethod
    def from_corpus(cls, corpus, vocab: Vocab, max_text_len: int) -> "PretrainData":
        # leave room for the task tag on encoder inputs
        budget = max_text_len - 1
        item_tokens = {iid: vocab.encode(it.text, budget) for iid, it in corpus.items.items()}
        query_tokens: dict[str, list[list[int]]] = {iid: [] for iid in corpus.items}
        for p in corpus.pairs:
            q = vocab.encode(p.query, budget)
            if q:
                query_tokens[p.item_id].append(q)
        ids = [iid for iid in sorted(corpus.items) if item_tokens[iid]]
        return cls(item_ids=ids, item_tokens=item_tokens, query_tokens=query_tokens)


def sample_examples(data: PretrainData, count: int, vocab: Vocab,
                    rng: np.random.Generator) -> tuple[list[PretrainExample], dict[str, int]]:
    """Draw ``count`` examples, tasks i.i.d. uniform; unbuildable draws are
    skipped and counted."""
    examples: list[PretrainExample] = []
    skipped: dict[str, int] = {t: 0 for t in TASKS}
    n_items = len(data.item_ids)
    if n_items == 0:
        raise ValueError("no usable items for pre-training")
    while len(examples) < count:
        iid = data.item_ids[int(rng.integers(n_items))]
        task = TASKS[int(rng.integers(3))]
        item = data.item_tokens[iid]
        queries = data.query_tokens[iid]
        ex = None
        if task == "query_generation":
            ex = build_query_generation(item, queries, vocab, rng)
        elif task == "item_cloze":
            ex = build_item_cloze(item, vocab, rng)
        else:
            q = queries[int(rng.integers(len(queries)))] if queries else None
            ex = build_suffix_completion(item, q, vocab, rng) if q else None
        if ex is None:
            skipped[task] += 1
            continue
        examples.append(ex)
    return examples, skipped


def batch_loss(model: TransformerModel, batch: list[PretrainExample],
               vocab: Vocab, train: bool = False):
    """Mean over examples of the summed teacher-forced NLL.

    Encoder inputs longer than the model budget (e.g. suffix-task inputs
    combining a query with an item prefix) are right-truncated.
    """
    limit = model.config.max_text_len
    enc, enc_mask = pad_rows([ex.input_tokens[:limit] for ex in batch])
    targets, tgt_mask = pad_rows([ex.target_tokens[:limit] for ex in batch])
    dec_in = np.concatenate(
        [np.full((len(batch), 1), vocab.bos_id, dtype=np.int64), targets[:, :-1]], axis=1)
    memory = model.encode_batch(enc, enc_mask, train=train)
    hidden = model.decode_text(memory, enc_mask, dec_in, tgt_mask, train=train)
    log_probs = model.lm_log_probs(hidden)
    total = ad.nll_loss(log_probs, targets, mask=tgt_mask)
    return ad.mul(total, 1.0 / len(batch))


def pretrain_step(model: TransformerModel, optimizer, batch: list[PretrainExample],
                  vocab: Vocab) -> float | None:
    """One optimizer update; returns the batch loss, or None if skipped."""
    loss = batch_loss(model, batch, vocab, train=True)
    value = loss.item()
    if not np.isfinite(value):
        logger.warning("non-finite pre-training loss; step skipped")
        return None
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return value


@dataclass
class PretrainHistory:
    losses: list[float] = field(default_factory=list)
    task_counts: dict[str, int] = field(default_factory=lambda: {t: 0 for t in TASKS})
    skipped_examples: dict[str, int] = field(default_factory=lambda: {t: 0 for t in TASKS})


def run_pretraining(model: TransformerModel, optimizer, data: PretrainData,
                    vocab: Vocab, epochs: int, batch_size: int, seed: int,
                    log_fn=None, start_epoch: int = 0) -> PretrainHistory:
    """Epoch loop of one example per item; per-epoch RNG derives from
    (seed, epoch) so a resumed run continues with fresh but reproducible
    sampling."""
    history = PretrainHistory()
    for epoch in range(start_epoch, epochs):
        rng = np.random.default_rng([seed, 1000 + epoch])
        examples, skipped = sample_examples(data, len(data.item_ids), vocab, rng)
        for t, c in skipped.items():
            history.skipped_examples[t] += c
        for start in range(0, len(examples), batch_size):
            batch = examples[start:start + batch_size]
            for ex in batch:
                history.task_counts[ex.task] += 1
            value = pretrain_step(model, optimizer, batch, vocab)
            if value is None:
                continue
            history.losses.append(value)
            if log_fn is not None:
                log_fn({"phase": "pretrain", "epoch": epoch,
                        "step": optimizer.step_count, "loss": value,
                        "skipped_updates": optimizer.skipped_updates,
                        "task_counts": dict(history.task_counts)})
    return history
