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

import json
import logging
import warnings
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from semidx import autodiff as ad
from semidx.autodiff import Tensor
from semidx.config import ProgressiveConfig
from semidx.data import Corpus, Vocab
from semidx.model import SemanticId, TransformerModel, atomic_writer, pad_rows

logger = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass
class PairEntry:
    query_tokens: list[int]
    item_id: str
    prefix: SemanticId = ()


@dataclass
class SampleGroup:
    prefix: SemanticId
    entries: list[PairEntry]
    residual: bool = False


@dataclass
class TrainPairBatch:
    groups: list[SampleGroup]
    step: int

    @property
    def size(self) -> int:
        return sum(len(g.entries) for g in self.groups)

    def entries(self) -> list[PairEntry]:
        return [e for g in self.groups for e in g.entries]

    def check_prefix_property(self) -> None:
        for g in self.groups:
            if len(g.prefix) != self.step - 1 and not g.residual:
                raise ValueError("group prefix length does not match the training step")
            if not g.residual and any(e.prefix != g.prefix for e in g.entries):
                raise ValueError("group members do not share an identical prefix")


@dataclass
class FrozenAssignments:
    """Code assignments of length ``step`` for every item, immutable during
    training of any later step."""

    step: int
    ids: dict[str, SemanticId]
    checkpoint_hash: str = ""

    def __post_init__(self):
        for item_id, sid in self.ids.items():
            if len(sid) != self.step:
                raise ValueError(f"assignment for {item_id!r} has length {len(sid)}, "
                                 f"expected {self.step}")

    def prefix_for(self, item_id: str) -> SemanticId:
        if item_id not in self.ids:
            raise KeyError(f"no frozen assignment for item {item_id!r}")
        return self.ids[item_id]

    def save(self, path: str | Path) -> None:
        payload = {"step": self.step, "checkpoint_hash": self.checkpoint_hash,
                   "ids": {k: list(v) for k, v in sorted(self.ids.items())}}
        with atomic_writer(path) as fh:
            fh.write(json.dumps(payload, sort_keys=True).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "FrozenAssignments":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(step=payload["step"],
                   ids={k: tuple(v) for k, v in payload["ids"].items()},
                   checkpoint_hash=payload["checkpoint_hash"])


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


def build_prefix_batches(frozen: FrozenAssignments | None, entries: list[PairEntry],
                         step: int, group_size: int, batch_size: int,
                         rng: np.random.Generator) -> list[TrainPairBatch]:
    """Partition entries by frozen prefix, chunk into groups, pack batches.

    Whole groups are concatenated until the batch reaches ``batch_size``.
    Prefix classes (or chunk leftovers) with a single entry are pooled into
    residual groups, which carry mixed prefixes and are flagged as such.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    buckets: dict[SemanticId, list[PairEntry]] = {}
    for e in entries:
        prefix = () if step == 1 else frozen.prefix_for(e.item_id)
        e.prefix = prefix
        buckets.setdefault(prefix, []).append(e)

    groups: list[SampleGroup] = []
    residual_pool: list[PairEntry] = []
    for prefix in sorted(buckets):
        members = buckets[prefix]
        order = rng.permutation(len(members))
        members = [members[int(i)] for i in order]
        for start in range(0, len(members), group_size):
            chunk = members[start:start + group_size]
            if len(chunk) >= 2:
                groups.append(SampleGroup(prefix=prefix, entries=chunk))
            else:
                residual_pool.extend(chunk)
    for start in range(0, len(residual_pool), group_size):
        chunk = residual_pool[start:start + group_size]
        groups.append(SampleGroup(prefix=chunk[0].prefix, entries=chunk, residual=True))

    order = rng.permutation(len(groups))
    groups = [groups[int(i)] for i in order]
    batches: list[TrainPairBatch] = []
    current: list[SampleGroup] = []
    current_size = 0
    for g in groups:
        if current and current_size + len(g.entries) > batch_size:
            batches.append(TrainPairBatch(groups=current, step=step))
            current, current_size = [], 0
        current.append(g)
        current_size += len(g.entries)
    if current:
        batches.append(TrainPairBatch(groups=current, step=step))
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

    step: int
    entry_item_idx: np.ndarray        # (B,) index into unique item arrays
    unique_item_ids: list[str]
    unique_prefix: np.ndarray         # (U, T-1)
    q_states: Tensor                  # (B, T, D)
    d_states: Tensor                  # (U, T, D)
    q_final: Tensor                   # (B, D)
    d_final_unique: Tensor            # (U, D)
    d_final_entries: Tensor           # (B, D)


def batch_forward(batch: TrainPairBatch, model: TransformerModel,
                  data: AlignmentData, train: bool = False) -> BatchForward:
    entries = batch.entries()
    T = batch.step
    uniq: dict[str, int] = {}
    for e in entries:
        uniq.setdefault(e.item_id, len(uniq))
    entry_item_idx = np.array([uniq[e.item_id] for e in entries], dtype=np.int64)
    unique_ids = list(uniq)
    prefix_by_item = {e.item_id: e.prefix for e in entries}

    q_tok, q_mask = pad_rows([e.query_tokens for e in entries])
    d_tok, d_mask = pad_rows([data.item_tokens[iid] for iid in unique_ids])
    q_prefix = np.array([list(e.prefix) for e in entries], dtype=np.int64).reshape(len(entries), T - 1)
    d_prefix = np.array([list(prefix_by_item[iid]) for iid in unique_ids],
                        dtype=np.int64).reshape(len(unique_ids), T - 1)

    q_memory = model.encode_batch(q_tok, q_mask, train=train)
    d_memory = model.encode_batch(d_tok, d_mask, train=train)
    q_states = model.decode_code_states(q_memory, q_mask, q_prefix, train=train)
    d_states = model.decode_code_states(d_memory, d_mask, d_prefix, train=train)

    D = model.config.hidden_size
    q_final = ad.reshape(q_states[:, T - 1, :], (len(entries), D))
    d_final_unique = ad.reshape(d_states[:, T - 1, :], (len(unique_ids), D))
    d_final_entries = ad.embedding(d_final_unique, entry_item_idx)
    return BatchForward(step=T, entry_item_idx=entry_item_idx,
                        unique_item_ids=unique_ids, unique_prefix=d_prefix,
                        q_states=q_states, d_states=d_states,
                        q_final=q_final, d_final_unique=d_final_unique,
                        d_final_entries=d_final_entries)


def contrastive_term(fwd: BatchForward, temperature: float = 1.0,
                     mask_same_item: bool = True) -> Tensor:
    """In-batch softmax over query-item dot products, averaged over pairs.

    With masking on, entries sharing the anchor's item id are removed from
    the denominator (the positive itself always stays).
    """
    B = fwd.q_final.shape[0]
    if B == 1:
        warnings.warn("contrastive term over a single pair is identically 0")
    scores = ad.mul(ad.matmul(fwd.q_final, ad.transpose(fwd.d_final_entries, (1, 0))),
                    1.0 / temperature)
    bias = np.zeros((B, B))
    if mask_same_item:
        same = fwd.entry_item_idx[:, None] == fwd.entry_item_idx[None, :]
        bias[same & ~np.eye(B, dtype=bool)] = -1e9
    log_probs = ad.log_softmax(ad.add(scores, bias), axis=-1)
    diag = ad.sum_(ad.mul(log_probs, np.eye(B)), axis=-1)
    return ad.mul(ad.sum_(diag), -1.0 / B)


def kl_term(fwd: BatchForward, model: TransformerModel, temperature: float = 1.0) -> Tensor:
    """Sum over steps t=1..T of KL(query code dist || item code dist);
    gradients reach both sides."""
    B = fwd.q_final.shape[0]
    D = model.config.hidden_size
    U = len(fwd.unique_item_ids)
    total = None
    for t in range(1, fwd.step + 1):
        cb = model.codebooks[t - 1]
        q_t = ad.reshape(fwd.q_states[:, t - 1, :], (B, D))
        d_t = ad.reshape(fwd.d_states[:, t - 1, :], (U, D))
        p_q = cb.distribution(q_t, temperature=temperature)
        p_d_unique = cb.distribution(d_t, temperature=temperature)
        p_d = ad.embedding(p_d_unique, fwd.entry_item_idx)
        kl = ad.kl_divergence(p_q, p_d)
        total = kl if total is None else ad.add(total, kl)
    return ad.mul(ad.sum_(total), 1.0 / B)


def alignment_loss(batch: TrainPairBatch, model: TransformerModel, data: AlignmentData,
                   temperature: float = 1.0, mask_same_item: bool = True,
                   fwd: BatchForward | None = None) -> Tensor:
    """Contrastive + per-step KL, averaged over the batch's pairs."""
    if fwd is None:
        fwd = batch_forward(batch, model, data)
    con = contrastive_term(fwd, temperature=temperature, mask_same_item=mask_same_item)
    kl = kl_term(fwd, model, temperature=temperature)
    return ad.add(con, kl)


def commitment_targets(fwd: BatchForward, model: TransformerModel) -> np.ndarray:
    """(U, T) target codes: frozen prefix for t < T, current argmax at t = T."""
    T = fwd.step
    online = model.codebooks[T - 1].assign(fwd.d_final_unique.data)
    return np.concatenate([fwd.unique_prefix, np.asarray(online)[:, None]], axis=1)


def commitment_loss(batch: TrainPairBatch, model: TransformerModel, data: AlignmentData,
                    temperature: float = 1.0,
                    fwd: BatchForward | None = None) -> Tensor:
    """Mean over unique items of the summed per-step code NLL.

    Gradients reach the encoder/decoder only; codebooks are constants in
    this graph and learn via EMA instead.
    """
    if fwd is None:
        fwd = batch_forward(batch, model, data)
    targets = commitment_targets(fwd, model)
    U = len(fwd.unique_item_ids)
    D = model.config.hidden_size
    total = None
    for t in range(1, fwd.step + 1):
        cb = model.codebooks[t - 1]
        d_t = ad.reshape(fwd.d_states[:, t - 1, :], (U, D))
        log_q = ad.log_softmax(cb.logits(d_t), axis=-1, temperature=temperature)
        picked = ad.take_along_last(log_q, targets[:, t - 1])
        total = picked if total is None else ad.add(total, picked)
    return ad.mul(ad.sum_(total), -1.0 / U)


# ---------------------------------------------------------------------------
# the per-step trainer
# ---------------------------------------------------------------------------

def assign_step_codes(model: TransformerModel, data: AlignmentData,
                      frozen: FrozenAssignments | None, step: int,
                      chunk: int = 256) -> dict[str, int]:
    """Greedy step-``step`` code for every item, conditioned on its frozen
    prefix; pure inference."""
    out: dict[str, int] = {}
    ids = data.item_ids
    for start in range(0, len(ids), chunk):
        batch_ids = ids[start:start + chunk]
        tok, mask = pad_rows([data.item_tokens[i] for i in batch_ids])
        prefix = np.array([list(frozen.prefix_for(i)) if frozen else []
                           for i in batch_ids], dtype=np.int64).reshape(len(batch_ids), step - 1)
        memory = model.encode_batch(tok, mask)
        states = model.decode_code_states(memory, mask, prefix)
        d_t = states.data[:, step - 1, :]
        codes = model.codebooks[step - 1].assign(d_t)
        for iid, c in zip(batch_ids, codes):
            out[iid] = int(c)
    return out


@dataclass
class StepStats:
    step: int
    batches: int = 0
    warmup_batches: int = 0
    losses: list[dict] = field(default_factory=list)
    code_usage_entropy: float = 0.0
    dead_codes_reinit: int = 0


def train_code_step(model: TransformerModel, optimizer, data: AlignmentData,
                    frozen: FrozenAssignments | None, step: int,
                    cfg: ProgressiveConfig, rng: np.random.Generator,
                    log_fn=None) -> tuple[FrozenAssignments, StepStats]:
    """Train step ``step``: contrastive-only warm-up, then the full loss
    with EMA codebook updates, then a frozen assignment pass."""
    if step > 1 and (frozen is None or frozen.step != step - 1):
        raise ValueError(f"training step {step} needs frozen assignments of length {step - 1}")

    def take_snapshot():
        cb = model.codebooks[step - 1]
        return ({k: p.data.copy() for k, p in model.params.items()},
                (cb.embeddings.data.copy(), cb.ema_counts.copy(), cb.ema_sums.copy()))

    def restore(snap):
        params, (emb, counts, sums) = snap
        for k, p in model.params.items():
            p.data = params[k]
        cb = model.codebooks[step - 1]
        cb.embeddings.data, cb.ema_counts, cb.ema_sums = emb, counts, sums

    snapshot = take_snapshot()
    stats = StepStats(step=step)
    donors: deque[np.ndarray] = deque(maxlen=cfg.reinit_pool_size)
    batch_counter = 0

    for epoch in range(cfg.epochs_per_step):
        entries = build_epoch_entries(data, cfg.queries_per_item, rng)
        batches = build_prefix_batches(frozen, entries, step, cfg.group_size,
                                       cfg.batch_size, rng)
        for batch in batches:
            batch.check_prefix_property()
            warmup = batch_counter < cfg.warmup_batches
            fwd = batch_forward(batch, model, data, train=True)
            con = contrastive_term(fwd, temperature=cfg.temperature,
                                   mask_same_item=cfg.mask_same_item)
            if warmup:
                loss = ad.mul(con, cfg.alignment_weight)
                kl_value = com_value = 0.0
            else:
                kl = kl_term(fwd, model, temperature=cfg.temperature)
                com = commitment_loss(batch, model, data,
                                      temperature=cfg.temperature, fwd=fwd)
                align = ad.add(con, kl)
                loss = ad.add(ad.mul(align, cfg.alignment_weight),
                              ad.mul(com, cfg.commitment_weight))
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
                d_vals = fwd.d_final_unique.data
                codes = model.codebooks[step - 1].assign(d_vals)
                model.codebooks[step - 1].ema_update(d_vals, codes)
                for row in d_vals:
                    donors.append(row.copy())
                interval = cfg.reinit_interval_batches
                if interval > 0 and donors and cfg.dead_code_threshold > 0 \
                        and batch_counter % interval == interval - 1:
                    stats.dead_codes_reinit += model.codebooks[step - 1].reinit_dead(
                        cfg.dead_code_threshold, np.array(donors), rng)
            else:
                stats.warmup_batches += 1

            batch_counter += 1
            stats.batches += 1
            record = {"phase": "code_step", "step": step, "epoch": epoch,
                      "batch": batch_counter, "warmup": warmup, "loss": value,
                      "contrastive": con.item(), "kl": kl_value, "commitment": com_value,
                      "batch_size": batch.size}
            stats.losses.append(record)
            if log_fn is not None:
                log_fn(record)

        if donors and cfg.dead_code_threshold > 0:
            n = model.codebooks[step - 1].reinit_dead(
                cfg.dead_code_threshold, np.array(donors), rng)
            stats.dead_codes_reinit += n
        snapshot = take_snapshot()

    codes = assign_step_codes(model, data, frozen, step)
    ids = {}
    for iid in data.item_ids:
        prev = frozen.prefix_for(iid) if frozen else ()
        ids[iid] = prev + (codes[iid],)
    model.trained_steps = max(model.trained_steps, step)
    stats.code_usage_entropy = model.codebooks[step - 1].usage_entropy()
    return FrozenAssignments(step=step, ids=ids), stats


def progressive_train(model: TransformerModel, optimizer, data: AlignmentData,
                      cfg: ProgressiveConfig, seed: int,
                      log_fn=None) -> Iterator[tuple[FrozenAssignments, StepStats]]:
    """Run steps 1..num_steps, yielding each step's assignments and stats.

    Step t samples from its own generator seeded with (seed, 2000 + t), so
    a step's draws do not depend on how many the earlier steps made. The
    caller can save each step's checkpoint and assignments between yields.
    """
    frozen: FrozenAssignments | None = None
    for step in range(1, cfg.num_steps + 1):
        rng = np.random.default_rng([seed, 2000 + step])
        frozen_t, stats = train_code_step(model, optimizer, data, frozen, step,
                                          cfg, rng, log_fn=log_fn)
        if frozen is not None:
            for iid, sid in frozen_t.ids.items():
                if sid[: step - 1] != frozen.ids[iid]:
                    raise AssertionError(f"freeze invariant violated for {iid!r}")
        yield frozen_t, stats
        frozen = frozen_t
