"""Code index and retrieval.

Two prefix maps over assigned code sequences give, for every prefix of a
semantic ID, the codes that extend it and the items under it (IDs are
cluster labels: collisions are expected). Queries are answered either
generatively (beam search over per-step code distributions, optionally
constrained to prefixes present in the index, then expanding the
top IDs to their item buckets) or densely (dot products of final decoder
states). Both run batched; a single query is a one-row batch, and its beam
scores are bit-identical to B=1 exhaustive scoring.

Also provides the hierarchical k-means coder used to build semantic codes
on top of plain embeddings for baseline comparisons.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from semidx import autodiff as ad
from semidx.metrics import RankedList
from semidx.model import SemanticId, TransformerModel, atomic_writer, pad_rows


_INDEX_KEYS = ("version", "checkpoint_hash", "num_steps", "codebook_size", "item_count",
               "assignments")
KMEANS_ITERS = 20


class CodeIndex:
    """Prefix maps over semantic IDs with an item-id reverse map.

    ``_items`` maps every prefix of every inserted ID (the root ``()`` and
    the full ID included) to its items in insertion order; ``_children``
    maps a prefix to the codes that extend it.
    """

    def __init__(self, num_steps: int, codebook_size: int, checkpoint_hash: str = ""):
        self.num_steps = int(num_steps)
        self.codebook_size = int(codebook_size)
        self.checkpoint_hash = checkpoint_hash
        self.by_item: dict[str, SemanticId] = {}
        self._items: dict[SemanticId, list[str]] = {(): []}
        self._children: dict[SemanticId, set[int]] = {}

    def __len__(self) -> int:
        return len(self.by_item)

    def insert(self, item_id: str, sid: SemanticId) -> None:
        sid = tuple(int(c) for c in sid)
        if len(sid) > self.num_steps:
            raise ValueError(f"ID length {len(sid)} exceeds depth {self.num_steps}")
        if any(c < 0 or c >= self.codebook_size for c in sid):
            raise ValueError(f"code out of range in {sid}")
        if item_id in self.by_item:
            raise ValueError(f"item {item_id!r} already indexed")
        for t in range(len(sid) + 1):
            self._items.setdefault(sid[:t], []).append(item_id)
            if t < len(sid):
                self._children.setdefault(sid[:t], set()).add(sid[t])
        self.by_item[item_id] = sid

    def children_of(self, prefix: SemanticId) -> list[int]:
        return sorted(self._children.get(tuple(prefix), ()))

    def items_under(self, prefix: SemanticId) -> list[str]:
        """All items whose ID extends ``prefix``, in insertion order."""
        return list(self._items.get(tuple(prefix), ()))

    def validate(self) -> None:
        """Check that the root lists every item and each item sits under its ID."""
        if len(self._items[()]) != len(self.by_item):
            raise AssertionError("root item count does not match the reverse map")
        for item_id, sid in self.by_item.items():
            if item_id not in self._items.get(sid, ()):
                raise AssertionError(f"item {item_id!r} not found under its own ID")

    def save(self, path: str | Path) -> None:
        rows = sorted((list(sid), iid) for iid, sid in self.by_item.items())
        payload = {
            "version": 1,
            "checkpoint_hash": self.checkpoint_hash,
            "num_steps": self.num_steps,
            "codebook_size": self.codebook_size,
            "item_count": len(self.by_item),
            "assignments": rows,
        }
        with atomic_writer(path) as fh:
            fh.write(json.dumps(payload, sort_keys=True).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path, expected_checkpoint_hash: str | None = None) -> "CodeIndex":
        def corrupt(what: str) -> ValueError:
            return ValueError(f"{path}: corrupt index file ({what})")

        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise corrupt("not UTF-8 JSON") from exc
        if not isinstance(payload, dict):
            raise corrupt("not a JSON object")
        missing = [k for k in _INDEX_KEYS if k not in payload]
        if missing:
            raise corrupt(f"lacks {', '.join(missing)}")
        if payload["version"] != 1:
            raise ValueError(f"unsupported index version {payload['version']!r}")
        depth, size = payload["num_steps"], payload["codebook_size"]
        if type(depth) is not int or depth < 1:
            raise corrupt("num_steps is not an integer >= 1")
        if type(size) is not int or size < 2:
            raise corrupt("codebook_size is not an integer >= 2")
        if type(payload["item_count"]) is not int:
            raise corrupt("item_count is not an integer")
        if not isinstance(payload["checkpoint_hash"], str):
            raise corrupt("checkpoint_hash is not a string")
        if (expected_checkpoint_hash is not None
                and payload["checkpoint_hash"] != expected_checkpoint_hash):
            raise ValueError("index was built from a different model checkpoint")
        if not isinstance(payload["assignments"], list):
            raise corrupt("assignments is not a list")
        idx = cls(num_steps=depth, codebook_size=size,
                  checkpoint_hash=payload["checkpoint_hash"])
        for i, row in enumerate(payload["assignments"]):
            if not (isinstance(row, list) and len(row) == 2 and isinstance(row[0], list)
                    and all(type(c) is int for c in row[0]) and isinstance(row[1], str)):
                raise corrupt(f"assignment row {i} is not [list of ints, str]")
            if len(row[0]) != depth:
                raise corrupt(f"assignment row {i} has {len(row[0])} codes, not {depth}")
            try:
                idx.insert(row[1], tuple(row[0]))
            except ValueError as exc:
                raise corrupt(f"assignment row {i}: {exc}") from exc
        if len(idx) != payload["item_count"]:
            raise corrupt(f"item_count is {payload['item_count']}, the rows hold {len(idx)}")
        idx.validate()
        return idx


def greedy_decode_rows(model: TransformerModel, token_rows: list[list[int]], depth: int,
                       prefix: np.ndarray | None = None,
                       chunk: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Greedy codes (N, depth) and final-step states (N, D) for token rows,
    padded and decoded ``chunk`` rows at a time, each row continuing its
    row of the (N, P) code ``prefix`` when one is given."""
    codes = np.zeros((len(token_rows), depth), dtype=np.int64)
    finals = np.zeros((len(token_rows), model.config.hidden_size))
    for start in range(0, len(token_rows), chunk):
        tok, mask = pad_rows(token_rows[start:start + chunk])
        rows = slice(start, start + len(tok))
        codes[rows], finals[rows] = model.greedy_decode_batch(
            tok, mask, depth, None if prefix is None else prefix[rows])
    return codes, finals


def assign_all_ids(model: TransformerModel, items: dict[str, list[int]], depth: int,
                   checkpoint_hash: str = "") -> CodeIndex:
    """Greedy semantic IDs for a whole corpus (item id -> token ids)."""
    index = CodeIndex(num_steps=depth, codebook_size=model.config.codebook_size,
                      checkpoint_hash=checkpoint_hash)
    codes, _ = greedy_decode_rows(model, list(items.values()), depth)
    for iid, row in zip(items, codes):
        index.insert(iid, tuple(int(c) for c in row))
    index.validate()
    return index


# ---------------------------------------------------------------------------
# beam search decoding
# ---------------------------------------------------------------------------

def beam_search_decode(model: TransformerModel, query_tokens, beam_width: int,
                       depth: int, constrain: bool = False,
                       index: CodeIndex | None = None) -> list[tuple[SemanticId, float]]:
    """``beam_search_decode_batch`` on a one-query batch, so its scores are
    bit-identical to B=1 exhaustive scoring (the ``encode`` and
    ``decode_step`` oracles in ``tests/oracles.py``)."""
    return beam_search_decode_batch(model, [list(query_tokens)], beam_width, depth,
                                    constrain=constrain, index=index)[0]


@ad.no_grad()
def beam_search_decode_batch(model: TransformerModel, token_rows: list[list[int]],
                             beam_width: int, depth: int, constrain: bool = False,
                             index: CodeIndex | None = None) -> list[list[tuple[SemanticId, float]]]:
    """Beam over per-step log code probabilities, 128 queries per pass;
    score = summed log prob. With ``constrain`` set, only prefixes present
    in ``index`` survive. Beams sort by descending score, ties by ID, so
    width K^T reproduces exhaustive sequence scoring: bit for bit for a
    query alone in its batch, to about 1e-9 for queries padded together.
    """
    if beam_width < 1:
        raise ValueError("beam width must be >= 1")
    if constrain and index is None:
        raise ValueError("constrained decoding needs an index")
    model._check_depth(depth)
    out: list[list[tuple[SemanticId, float]]] = []
    for start in range(0, len(token_rows), 128):
        rows = token_rows[start:start + 128]
        tok, mask = pad_rows(rows)
        memory = model.encode_batch(tok, mask).data
        per_query: list[list[tuple[SemanticId, float]]] = [[((), 0.0)] for _ in rows]
        for t in range(1, depth + 1):
            beams = [(q, prefix, score) for q, kept in enumerate(per_query)
                     for prefix, score in kept]
            if not beams:
                break
            owners = [q for q, _, _ in beams]
            prefixes = np.array([p for _, p, _ in beams], dtype=np.int64).reshape(len(beams), t - 1)
            states = model.decode_code_states(ad.Tensor(memory[owners]), mask[owners], prefixes)
            log_p = model.codebooks[t - 1].row_log_probs(states.data[:, t - 1, :])
            candidates: list[list[tuple[SemanticId, float]]] = [[] for _ in rows]
            for (q, prefix, score), row_log_p in zip(beams, log_p):
                allowed = (index.children_of(prefix) if constrain
                           else range(model.config.codebook_size))
                candidates[q] += [(prefix + (int(c),), score + float(row_log_p[int(c)]))
                                  for c in allowed]
            per_query = [sorted(c, key=lambda pair: (-pair[1], pair[0]))[:beam_width]
                         for c in candidates]
        out.extend(per_query)
    return out


def generative_retrieve(model: TransformerModel, index: CodeIndex, query_tokens,
                        beam_width: int, cutoff: int, query_id: str = "q",
                        beams: list[tuple[SemanticId, float]] | None = None) -> RankedList:
    """Expand the top beam IDs into their item buckets, best ID first.

    Items inside one bucket keep insertion order and share the ID's score.
    """
    if beams is None:
        beams = beam_search_decode(model, query_tokens, beam_width,
                                   depth=index.num_steps, constrain=True, index=index)
    item_ids: list[str] = []
    scores: list[float] = []
    for sid, score in beams:
        for iid in index.items_under(sid):
            if len(item_ids) >= cutoff:
                return RankedList(query_id=query_id, item_ids=item_ids, scores=scores)
            item_ids.append(iid)
            scores.append(score)
    return RankedList(query_id=query_id, item_ids=item_ids, scores=scores)


# ---------------------------------------------------------------------------
# dense retrieval
# ---------------------------------------------------------------------------

def dense_rank(query_vec: np.ndarray, item_matrix: np.ndarray,
               item_ids: list[str], k: int, query_id: str = "q") -> RankedList:
    """Top-k items by dot product, descending; ties keep input order."""
    if k < 0:
        raise ValueError("k must be >= 0")
    scores = item_matrix @ np.asarray(query_vec, dtype=np.float64)
    k = min(k, len(item_ids))
    order = np.argsort(-scores, kind="stable")[:k]
    return RankedList(query_id=query_id,
                      item_ids=[item_ids[int(i)] for i in order],
                      scores=[float(scores[int(i)]) for i in order])


def item_representation_matrix(model: TransformerModel, items: dict[str, list[int]],
                               depth: int) -> tuple[np.ndarray, list[str]]:
    """Final-step decoder states for every item, row-aligned with the ids."""
    _, reps = greedy_decode_rows(model, list(items.values()), depth)
    return reps, list(items)


def dense_retrieve(model: TransformerModel, item_matrix: np.ndarray,
                   item_ids: list[str], query_tokens, depth: int, k: int,
                   query_id: str = "q") -> RankedList:
    _, finals = greedy_decode_rows(model, [list(query_tokens)], depth)
    return dense_rank(finals[0], item_matrix, item_ids, k, query_id=query_id)


# ---------------------------------------------------------------------------
# hierarchical k-means baseline coder
# ---------------------------------------------------------------------------

def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j:] = x[int(rng.integers(n))]
            break
        probs = d2 / total
        centers[j] = x[int(rng.choice(n, p=probs))]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """``KMEANS_ITERS`` Lloyd iterations from k-means++ seeding; returns labels."""
    x = np.asarray(x, dtype=np.float64)
    centers = _kmeans_pp_init(x, k, rng)
    labels = np.zeros(x.shape[0], dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        for j in range(k):
            members = x[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
            else:
                # re-seed an empty cluster at the worst-served point
                centers[j] = x[int(d2.min(axis=1).argmax())]
    return labels


def hierarchical_kmeans_codes(embeddings: np.ndarray, k: int, depth: int,
                              seed: int) -> list[SemanticId]:
    """Recursive k-means codes, one list entry per embedding row.

    Branches with fewer points than ``k`` assign distinct codes and stop;
    k=1 degenerates to all-zero codes at every level.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if not np.isfinite(embeddings).all():
        raise ValueError("embeddings must be finite")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    codes: list[list[int]] = [[] for _ in range(embeddings.shape[0])]

    def recurse(rows: np.ndarray, level: int) -> None:
        if level > depth or rows.size == 0:
            return
        points = embeddings[rows]
        if k == 1:
            labels = np.zeros(len(rows), dtype=np.int64)
        elif len(rows) < k:
            for code, r in enumerate(rows):
                codes[int(r)].append(code)
            return
        else:
            labels = kmeans(points, k, rng)
        for code in range(int(labels.max()) + 1):
            members = rows[labels == code]
            for r in members:
                codes[int(r)].append(code)
            recurse(members, level + 1)

    recurse(np.arange(embeddings.shape[0]), 1)
    return [tuple(c) for c in codes]
