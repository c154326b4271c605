"""Progressive code training.

Codes are trained one step at a time: while step T trains, the codes
assigned at steps < T stay frozen. Each update optimizes a query-item
alignment loss (in-batch contrastive over final-step representations plus a
per-step KL between query and item code distributions) together with a code
commitment loss; the step-T codebook itself moves only via EMA over the
item states assigned to each code.

Batches are built from groups of pairs sharing one frozen code prefix, so
in-batch negatives get harder as training deepens. Items sampled with
several positive queries are masked out of each other's contrastive
denominators.
"""

from __future__ import annotations

import logging
import warnings
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from semidx import autodiff as ad
from semidx.autodiff import Tensor
from semidx.config import ProgressiveConfig
from semidx.data import Corpus, Vocab
from semidx.index import CodeIndex, greedy_decode_rows
from semidx.model import Codebook, SemanticId, TransformerModel, pad_rows

logger = logging.getLogger(__name__)

DONOR_POOL_SIZE = 512  # recent item states that dead codes are reset to


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass
class PairEntry:
    query_tokens: list[int]
    item_id: str


@dataclass
class TrainPairBatch:
    groups: list[list[PairEntry]]

    @property
    def size(self) -> int:
        return sum(len(g) for g in self.groups)

    def entries(self) -> list[PairEntry]:
        return [e for g in self.groups for e in g]


@dataclass
class AlignmentData:
    """Tokenized pair corpus used by the progressive trainer."""

    item_ids: list[str]
    item_tokens: dict[str, list[int]]
    item_queries: dict[str, list[list[int]]]

    @classmethod
    def from_corpus(cls, corpus: Corpus, vocab: Vocab, max_text_len: int) -> "AlignmentData":
        item_tokens = {iid: vocab.encode(it.text, max_text_len)
                       for iid, it in corpus.items.items()}
        item_queries: dict[str, list[list[int]]] = {iid: [] for iid in corpus.items}
        for p in corpus.pairs:
            q = vocab.encode(p.query, max_text_len)
            if q:
                item_queries[p.item_id].append(q)
        ids = [iid for iid in sorted(corpus.items)
               if item_tokens[iid] and item_queries[iid]]
        return cls(item_ids=ids, item_tokens=item_tokens, item_queries=item_queries)


# ---------------------------------------------------------------------------
# sampling and batching
# ---------------------------------------------------------------------------

def multi_query_sample(queries: list, m: int, rng: np.random.Generator) -> list:
    """m distinct queries when available, with replacement otherwise."""
    if not queries:
        raise ValueError("item has no queries to sample from")
    n = len(queries)
    if n >= m:
        idx = rng.choice(n, size=m, replace=False)
    else:
        idx = rng.choice(n, size=m, replace=True)
    return [queries[int(i)] for i in idx]


def build_epoch_entries(data: AlignmentData, m: int,
                        rng: np.random.Generator) -> list[PairEntry]:
    entries: list[PairEntry] = []
    for iid in data.item_ids:
        for q in multi_query_sample(data.item_queries[iid], m, rng):
            entries.append(PairEntry(query_tokens=list(q), item_id=iid))
    return entries


def build_prefix_batches(frozen: CodeIndex, entries: list[PairEntry], group_size: int,
                         batch_size: int, rng: np.random.Generator) -> list[TrainPairBatch]:
    """Partition entries by frozen prefix, chunk into groups, pack batches
    for the step after ``frozen``'s depth.

    Whole groups are concatenated until the batch reaches ``batch_size``.
    Prefix classes (or chunk leftovers) with a single entry are pooled into
    residual groups, whose members have pairwise-distinct prefixes.
    """
    buckets: dict[SemanticId, list[PairEntry]] = {}
    for e in entries:
        buckets.setdefault(frozen.by_item[e.item_id], []).append(e)

    groups: list[list[PairEntry]] = []
    residual_pool: list[PairEntry] = []
    for prefix in sorted(buckets):
        members = buckets[prefix]
        order = rng.permutation(len(members))
        members = [members[int(i)] for i in order]
        for start in range(0, len(members), group_size):
            chunk = members[start:start + group_size]
            if len(chunk) >= 2:
                groups.append(chunk)
            else:
                residual_pool.extend(chunk)
    for start in range(0, len(residual_pool), group_size):
        groups.append(residual_pool[start:start + group_size])

    order = rng.permutation(len(groups))
    groups = [groups[int(i)] for i in order]
    batches: list[TrainPairBatch] = []
    current: list[list[PairEntry]] = []
    current_size = 0
    for g in groups:
        if current and current_size + len(g) > batch_size:
            batches.append(TrainPairBatch(groups=current))
            current, current_size = [], 0
        current.append(g)
        current_size += len(g)
    if current:
        batches.append(TrainPairBatch(groups=current))
    return batches


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

@dataclass
class BatchForward:
    """Shared forward pieces for one batch at training step T.

    Query and item decoders both condition on the item's frozen prefix, so
    per-step distributions are compared at the same node of the code tree.
    """

    entry_item_idx: np.ndarray        # (B,) index into the unique items
    unique_prefix: np.ndarray         # (U, T-1) their frozen prefixes
    q_states: Tensor                  # (B, T, D)
    d_states: Tensor                  # (U, T, D)

    @property
    def step(self) -> int:
        return self.q_states.shape[1]


def batch_forward(batch: TrainPairBatch, model: TransformerModel,
                  data: AlignmentData, frozen: CodeIndex) -> BatchForward:
    """Decoder states of the batch's queries and unique items, each query on
    its item's prefix in ``frozen``, for the step after its depth."""
    entries = batch.entries()
    uniq: dict[str, int] = {}
    for e in entries:
        uniq.setdefault(e.item_id, len(uniq))
    entry_item_idx = np.array([uniq[e.item_id] for e in entries], dtype=np.int64)
    d_prefix = np.array([frozen.by_item[iid] for iid in uniq], dtype=np.int64)

    q_tok, q_mask = pad_rows([e.query_tokens for e in entries])
    d_tok, d_mask = pad_rows([data.item_tokens[iid] for iid in uniq])
    q_memory = model.encode_batch(q_tok, q_mask)
    d_memory = model.encode_batch(d_tok, d_mask)
    q_states = model.decode_code_states(q_memory, q_mask, d_prefix[entry_item_idx])
    d_states = model.decode_code_states(d_memory, d_mask, d_prefix)
    return BatchForward(entry_item_idx=entry_item_idx, unique_prefix=d_prefix,
                        q_states=q_states, d_states=d_states)


def contrastive_term(fwd: BatchForward) -> Tensor:
    """In-batch softmax over query-item dot products, averaged over pairs.

    Entries sharing the anchor's item id are removed from the denominator
    (the positive itself always stays).
    """
    B = fwd.q_states.shape[0]
    if B == 1:
        warnings.warn("contrastive term over a single pair is identically 0")
    q_final = fwd.q_states[:, -1, :]
    d_final = ad.embedding(fwd.d_states[:, -1, :], fwd.entry_item_idx)
    scores = ad.matmul(q_final, ad.transpose(d_final, (1, 0)))
    same = fwd.entry_item_idx[:, None] == fwd.entry_item_idx[None, :]
    bias = np.where(same & ~np.eye(B, dtype=bool), -1e9, 0.0)
    log_probs = ad.log_softmax(ad.add(scores, bias))
    return ad.mul(ad.nll_loss(log_probs, np.arange(B)), 1.0 / B)


def kl_term(fwd: BatchForward, model: TransformerModel) -> Tensor:
    """Sum over steps t=1..T of KL(query code dist || item code dist);
    gradients reach both sides."""
    B = fwd.q_states.shape[0]
    total = None
    for t in range(1, fwd.step + 1):
        cb = model.codebooks[t - 1]
        p_q = cb.distribution(fwd.q_states[:, t - 1, :])
        p_d_unique = cb.distribution(fwd.d_states[:, t - 1, :])
        p_d = ad.embedding(p_d_unique, fwd.entry_item_idx)
        kl = ad.kl_divergence(p_q, p_d)
        total = kl if total is None else ad.add(total, kl)
    return ad.mul(ad.sum_(total), 1.0 / B)


def commitment_targets(fwd: BatchForward, model: TransformerModel) -> np.ndarray:
    """(U, T) target codes: frozen prefix for t < T, current argmax at t = T."""
    online = model.codebooks[fwd.step - 1].assign(fwd.d_states.data[:, -1])
    return np.concatenate([fwd.unique_prefix, online[:, None]], axis=1)


def commitment_loss(fwd: BatchForward, model: TransformerModel,
                    targets: np.ndarray) -> Tensor:
    """Mean over unique items of the summed per-step code NLL of ``targets``.

    Gradients reach the encoder/decoder only; codebooks are constants in
    this graph and learn via EMA instead.
    """
    U = fwd.d_states.shape[0]
    total = None
    for t in range(1, fwd.step + 1):
        cb = model.codebooks[t - 1]
        log_q = ad.log_softmax(cb.logits(fwd.d_states[:, t - 1, :]))
        picked = ad.take_along_last(log_q, targets[:, t - 1])
        total = picked if total is None else ad.add(total, picked)
    return ad.mul(ad.sum_(total), -1.0 / U)


# ---------------------------------------------------------------------------
# the per-step trainer
# ---------------------------------------------------------------------------

def assign_step_codes(model: TransformerModel, data: AlignmentData,
                      frozen: CodeIndex) -> CodeIndex:
    """The next-depth index: every item's frozen ID continued by one greedy
    code; pure inference."""
    ids = data.item_ids
    prefix = np.array([frozen.by_item[i] for i in ids], dtype=np.int64)
    codes, _ = greedy_decode_rows(model, [data.item_tokens[i] for i in ids],
                                  frozen.num_steps + 1, prefix)
    out = CodeIndex(num_steps=frozen.num_steps + 1, codebook_size=frozen.codebook_size)
    for iid, sid in zip(ids, codes):
        out.insert(iid, tuple(sid))
    return out


@dataclass
class StepStats:
    batches: int = 0
    warmup_batches: int = 0
    code_usage_entropy: float = 0.0
    dead_codes_reinit: int = 0


def train_code_step(model: TransformerModel, optimizer, data: AlignmentData,
                    frozen: CodeIndex, cfg: ProgressiveConfig, rng: np.random.Generator,
                    log_fn=None) -> tuple[CodeIndex, StepStats]:
    """Train the step after ``frozen``'s depth: contrastive-only warm-up,
    then the full loss with EMA codebook updates, then a frozen assignment
    pass."""
    step = frozen.num_steps + 1
    cb = model.codebooks[step - 1]

    def take_snapshot():
        return ({k: p.data.copy() for k, p in model.params.items()},
                {key: getattr(cb, key).copy() for key in Codebook.STATE})

    def restore(snap):
        params, state = snap
        for k, p in model.params.items():
            p.data = params[k]
        for key, arr in state.items():
            setattr(cb, key, arr)

    snapshot = take_snapshot()
    stats = StepStats()
    donors: deque[np.ndarray] = deque(maxlen=DONOR_POOL_SIZE)
    batch_counter = 0

    for epoch in range(cfg.epochs_per_step):
        entries = build_epoch_entries(data, cfg.queries_per_item, rng)
        batches = build_prefix_batches(frozen, entries, cfg.group_size, cfg.batch_size, rng)
        for batch in batches:
            warmup = batch_counter < cfg.warmup_batches
            fwd = batch_forward(batch, model, data, frozen)
            con = contrastive_term(fwd)
            if warmup:
                loss = con
                kl_value = com_value = 0.0
            else:
                kl = kl_term(fwd, model)
                targets = commitment_targets(fwd, model)
                com = commitment_loss(fwd, model, targets)
                loss = ad.add(ad.add(con, kl), com)
                kl_value, com_value = kl.item(), com.item()
            value = loss.item()
            if not np.isfinite(value):
                restore(snapshot)
                raise TrainingDiverged(
                    f"non-finite loss at step {step}, batch {batch_counter}; "
                    f"parameters restored to the last good snapshot")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

            if not warmup:
                # the step-T rows are unchanged since the targets were taken
                d_vals = fwd.d_states.data[:, -1]
                cb.ema_update(d_vals, targets[:, -1], cfg.gamma)
                for row in d_vals:
                    donors.append(row.copy())
                interval = cfg.reinit_interval_batches
                if interval > 0 and donors and cfg.dead_code_threshold > 0 \
                        and batch_counter % interval == interval - 1:
                    stats.dead_codes_reinit += cb.reinit_dead(
                        cfg.dead_code_threshold, np.array(donors), rng)
            else:
                stats.warmup_batches += 1

            batch_counter += 1
            stats.batches += 1
            record = {"phase": "code_step", "step": step, "epoch": epoch,
                      "batch": batch_counter, "warmup": warmup, "loss": value,
                      "contrastive": con.item(), "kl": kl_value, "commitment": com_value,
                      "batch_size": batch.size}
            if log_fn is not None:
                log_fn(record)

        if donors and cfg.dead_code_threshold > 0:
            stats.dead_codes_reinit += cb.reinit_dead(
                cfg.dead_code_threshold, np.array(donors), rng)
        snapshot = take_snapshot()

    model.trained_steps = max(model.trained_steps, step)
    assigned = assign_step_codes(model, data, frozen)
    stats.code_usage_entropy = cb.usage_entropy()
    return assigned, stats


def progressive_train(model: TransformerModel, optimizer, data: AlignmentData,
                      cfg: ProgressiveConfig, seed: int,
                      log_fn=None) -> Iterator[tuple[CodeIndex, StepStats]]:
    """Run steps 1..num_steps from a depth-0 index holding every item under
    ``()``, yielding each step's assignment index and stats.

    Step t samples from its own generator seeded with (seed, 2000 + t), so
    a step's draws do not depend on how many the earlier steps made. The
    caller can save each step's checkpoint and assignments between yields.
    """
    frozen = CodeIndex(num_steps=0, codebook_size=model.config.codebook_size)
    for iid in data.item_ids:
        frozen.insert(iid, ())
    for step in range(1, cfg.num_steps + 1):
        rng = np.random.default_rng([seed, 2000 + step])
        assigned, stats = train_code_step(model, optimizer, data, frozen, cfg, rng,
                                          log_fn=log_fn)
        for iid, sid in assigned.by_item.items():
            if sid[:-1] != frozen.by_item[iid]:
                raise AssertionError(f"freeze invariant violated for {iid!r}")
        yield assigned, stats
        frozen = assigned
