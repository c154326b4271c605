"""Corpus ingestion, vocabulary, and the synthetic hierarchical corpus.

File formats (line-delimited JSON, UTF-8):
  items.jsonl  {"id": str, "text": str, "category": str?, "path": [int]?}
  pairs.jsonl  {"query": str, "item_id": str, "weight": int, "behavior": str}
Unknown fields are ignored with a warning.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from semidx.model import atomic_writer

logger = logging.getLogger(__name__)

PAD, UNK, BOS = "<pad>", "<unk>", "<s>"
TASK_QUERY_GEN, TASK_CLOZE, TASK_SUFFIX = "<qgen>", "<cloze>", "<suffix>"
MASK_SENTINELS = ("<m0>", "<m1>", "<m2>")
RESERVED_TOKENS = (PAD, UNK, BOS, TASK_QUERY_GEN, TASK_CLOZE, TASK_SUFFIX) + MASK_SENTINELS
NOISE_POOL_SIZE = 60   # noise tokens a synthetic query may substitute
QUERY_LEN = (3, 6)     # least and most tokens a synthetic query draws from its item

_WORD_RE = re.compile(r"\w+|[^\w\s]")


def normalize_text(text: str) -> str:
    return " ".join(text.split())


def tokenize(text: str) -> list[str]:
    """Whitespace/punctuation tokenization into words."""
    return _WORD_RE.findall(normalize_text(text))


@dataclass
class Vocab:
    """Word vocabulary. ``vocab.json`` and the content hash carry the
    tokenizer name ``"word"``, the only one there is."""

    tokens: list[str]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def bos_id(self) -> int:
        return self.index[BOS]

    def token_id(self, token: str) -> int:
        return self.index.get(token, self.index[UNK])

    def content_hash(self) -> str:
        payload = "word\n" + "\n".join(self.tokens)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def encode(self, text: str, max_len: int | None = None) -> list[int]:
        ids = [self.token_id(t) for t in tokenize(text)]
        if max_len is not None:
            ids = ids[:max_len]
        return ids

    def save(self, path: str | Path) -> None:
        payload = {"mode": "word", "tokens": self.tokens}
        with atomic_writer(path) as fh:
            fh.write(json.dumps(payload, sort_keys=True).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        def corrupt(what: str) -> ValueError:
            return ValueError(f"{path}: corrupt vocabulary file ({what})")

        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise corrupt("not UTF-8 JSON") from exc
        if not isinstance(payload, dict):
            raise corrupt("not a JSON object")
        missing = [k for k in ("mode", "tokens") if k not in payload]
        if missing:
            raise corrupt(f"lacks {', '.join(missing)}")
        if payload["mode"] != "word":
            raise corrupt(f"tokenizer {payload['mode']!r}, not 'word'")
        tokens = payload["tokens"]
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise corrupt("tokens is not a list of strings")
        if tokens[:len(RESERVED_TOKENS)] != list(RESERVED_TOKENS):
            raise corrupt("tokens do not start with the reserved tokens")
        return cls(tokens=tokens)


def build_vocab(texts) -> Vocab:
    """Frequency-ranked vocabulary of every token, after a fixed reserved prefix.

    Ties are broken lexicographically so the result is deterministic for a
    given corpus.
    """
    counts: Counter[str] = Counter()
    seen_any = False
    for text in texts:
        seen_any = True
        counts.update(tokenize(text))
    if not seen_any:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ranked if tok not in RESERVED_TOKENS]
    return Vocab(tokens=list(RESERVED_TOKENS) + kept)


# ---------------------------------------------------------------------------
# corpus records
# ---------------------------------------------------------------------------

@dataclass
class ItemRecord:
    item_id: str
    text: str
    category: str | None = None
    path: tuple[int, ...] | None = None


@dataclass
class QueryItemPair:
    query: str
    item_id: str
    weight: int = 1
    behavior: str = "click"


@dataclass
class Corpus:
    items: dict[str, ItemRecord]
    pairs: list[QueryItemPair]


class CorpusFormatError(ValueError):
    pass


_ITEM_FIELDS = {"id", "text", "category", "path"}
_PAIR_FIELDS = {"query", "item_id", "weight", "behavior"}


@dataclass
class LoadReport:
    item_lines: int = 0
    pair_lines: int = 0
    malformed: int = 0
    rejected_lines: list[str] = field(default_factory=list)


def _warn_unknown_fields(record: dict, known: set[str], warned: set[str]) -> None:
    for key in record:
        if key not in known and key not in warned:
            warned.add(key)
            logger.warning("ignoring unknown field %r in corpus record", key)


def load_corpus(items_path: str | Path, pairs_path: str | Path | None,
                max_malformed_fraction: float = 0.01) -> tuple[Corpus, LoadReport]:
    """Load items + pairs with referential integrity checks.

    Malformed lines are counted and skipped; pairs referencing unknown items
    are rejected with their line number. More than ``max_malformed_fraction``
    bad lines aborts with a report. ``pairs_path=None`` reads the items alone.
    """
    report = LoadReport()
    warned: set[str] = set()
    items: dict[str, ItemRecord] = {}

    for lineno, line in enumerate(Path(items_path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        report.item_lines += 1
        try:
            rec = json.loads(line)
            _warn_unknown_fields(rec, _ITEM_FIELDS, warned)
            item_id = str(rec["id"])
            text = normalize_text(str(rec["text"]))
            if not text:
                raise ValueError("empty text")
            if item_id in items:
                raise ValueError("duplicate item id")
            path = tuple(int(x) for x in rec["path"]) if rec.get("path") is not None else None
            items[item_id] = ItemRecord(item_id=item_id, text=text,
                                        category=rec.get("category"), path=path)
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            report.malformed += 1
            report.rejected_lines.append(f"items:{lineno}: {exc}")

    pairs: list[QueryItemPair] = []
    pair_text = Path(pairs_path).read_text(encoding="utf-8") if pairs_path is not None else ""
    for lineno, line in enumerate(pair_text.splitlines(), 1):
        if not line.strip():
            continue
        report.pair_lines += 1
        try:
            rec = json.loads(line)
            _warn_unknown_fields(rec, _PAIR_FIELDS, warned)
            query = normalize_text(str(rec["query"]))
            if not query:
                raise ValueError("empty query")
            item_id = str(rec["item_id"])
            if item_id not in items:
                raise ValueError(f"unknown item id {item_id!r}")
            weight = int(rec.get("weight", 1))
            if weight < 1:
                raise ValueError("weight must be >= 1")
            pairs.append(QueryItemPair(query=query, item_id=item_id, weight=weight,
                                       behavior=str(rec.get("behavior", "click"))))
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            report.malformed += 1
            report.rejected_lines.append(f"pairs:{lineno}: {exc}")

    total = report.item_lines + report.pair_lines
    if total == 0:
        logger.warning("loaded an empty corpus from %s / %s", items_path, pairs_path)
    elif report.malformed / total > max_malformed_fraction:
        detail = "; ".join(report.rejected_lines[:20])
        raise CorpusFormatError(
            f"{report.malformed}/{total} malformed lines exceeds the "
            f"{max_malformed_fraction:.0%} threshold: {detail}")
    return Corpus(items=items, pairs=pairs), report


def write_items(items, path: str | Path) -> None:
    with atomic_writer(path) as fh:
        for it in items:
            rec = {"id": it.item_id, "text": it.text}
            if it.category is not None:
                rec["category"] = it.category
            if it.path is not None:
                rec["path"] = list(it.path)
            fh.write((json.dumps(rec, sort_keys=True) + "\n").encode("utf-8"))


def write_pairs(pairs, path: str | Path) -> None:
    with atomic_writer(path) as fh:
        for p in pairs:
            rec = {"query": p.query, "item_id": p.item_id, "weight": p.weight,
                   "behavior": p.behavior}
            fh.write((json.dumps(rec, sort_keys=True) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# synthetic hierarchical corpus
# ---------------------------------------------------------------------------

def synth_corpus(depth: int, branching: int, vocab_per_node: int,
                 items_per_leaf: int, query_noise: float, seed: int,
                 queries_per_item: int | tuple[int, int] = (1, 5),
                 tokens_per_level: int = 6) -> tuple[list[ItemRecord], list[QueryItemPair]]:
    """Generate a corpus organized as a ``branching``-ary topic tree.

    Every tree node owns a disjoint token pool; an item's text samples
    tokens from each node along its root-to-leaf path, and each of its
    queries subsamples the item's tokens with noise-token substitution
    probability ``query_noise``. The true path is recorded on each item, so
    the hierarchy can serve as ground truth for clustering checks.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if branching < 2:
        raise ValueError("branching must be >= 2")
    if vocab_per_node < tokens_per_level:
        raise ValueError("vocab_per_node too small for the requested text length")
    rng = np.random.default_rng(seed)

    pools: dict[tuple[int, int], list[str]] = {}
    for level in range(1, depth + 1):
        for node in range(branching ** level):
            pools[(level, node)] = [f"w{level}n{node}t{j}" for j in range(vocab_per_node)]
    noise_pool = [f"noise{j}" for j in range(NOISE_POOL_SIZE)]

    items: list[ItemRecord] = []
    pairs: list[QueryItemPair] = []
    counter = 0
    for leaf in range(branching ** depth):
        # node index at level l is the length-l prefix of the leaf's digits
        path = []
        for level in range(1, depth + 1):
            path.append(leaf // (branching ** (depth - level)))
        path = tuple(path)
        for _ in range(items_per_leaf):
            tokens: list[str] = []
            for level in range(1, depth + 1):
                pool = pools[(level, path[level - 1])]
                tokens.extend(rng.choice(pool, size=tokens_per_level, replace=True))
            rng.shuffle(tokens)
            item_id = f"item{counter:05d}"
            counter += 1
            items.append(ItemRecord(item_id=item_id, text=" ".join(tokens),
                                    category=f"c{path[0]}", path=path))
            if isinstance(queries_per_item, int):
                n_queries = queries_per_item
            else:
                lo, hi = queries_per_item
                n_queries = int(rng.integers(lo, hi + 1))
            for _ in range(n_queries):
                qlen = int(rng.integers(QUERY_LEN[0], QUERY_LEN[1] + 1))
                qlen = min(qlen, len(tokens))
                picked = list(rng.choice(tokens, size=qlen, replace=False))
                q_tokens = [str(rng.choice(noise_pool)) if rng.random() < query_noise else t
                            for t in picked]
                pairs.append(QueryItemPair(query=" ".join(q_tokens), item_id=item_id,
                                           weight=int(rng.integers(1, 4))))
    return items, pairs


def split_pairs(pairs, holdout_per_item: int, seed: int):
    """Hold out up to ``holdout_per_item`` pairs per item (items keep >= 1)."""
    rng = np.random.default_rng(seed)
    by_item: dict[str, list[QueryItemPair]] = {}
    for p in pairs:
        by_item.setdefault(p.item_id, []).append(p)
    train: list[QueryItemPair] = []
    heldout: list[QueryItemPair] = []
    for item_id in sorted(by_item):
        group = by_item[item_id]
        n_hold = min(holdout_per_item, len(group) - 1)
        if n_hold <= 0:
            train.extend(group)
            continue
        order = rng.permutation(len(group))
        hold_idx = set(int(i) for i in order[:n_hold])
        for i, p in enumerate(group):
            (heldout if i in hold_idx else train).append(p)
    return train, heldout
