"""Retrieval and clustering metrics.

Recall@k and MRR@k over ranked lists, adjusted mutual information between
partitions (exact hypergeometric expected-MI, max-entropy normalizer), and
level-wise query-item code consistency. Entropies and MI are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lgamma, log
from typing import Mapping, Sequence

import numpy as np


@dataclass
class RankedList:
    """One query's retrieval output: item ids with non-increasing scores."""

    query_id: str
    item_ids: list[str]
    scores: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.item_ids)) != len(self.item_ids):
            raise ValueError(f"duplicate item ids in ranked list for {self.query_id!r}")
        if self.scores:
            if len(self.scores) != len(self.item_ids):
                raise ValueError("scores and item_ids must have equal length")
            if any(a < b for a, b in zip(self.scores, self.scores[1:])):
                raise ValueError("scores must be non-increasing")


def _check_judged(runs: Sequence[RankedList], judgments: Mapping[str, set]) -> None:
    for run in runs:
        if run.query_id not in judgments:
            raise KeyError(f"query {run.query_id!r} missing from relevance judgments")
        if not judgments[run.query_id]:
            raise ValueError(f"empty relevance set for query {run.query_id!r}")


def recall_at_k(runs: Sequence[RankedList], judgments: Mapping[str, set], k: int) -> float:
    """Mean over queries of (relevant items found in top k) / (relevant total)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_judged(runs, judgments)
    if not runs:
        raise ValueError("no ranked lists given")
    total = 0.0
    for run in runs:
        rel = judgments[run.query_id]
        found = sum(1 for item in run.item_ids[:k] if item in rel)
        total += found / len(rel)
    return total / len(runs)


def mrr_at_k(runs: Sequence[RankedList], judgments: Mapping[str, set], k: int) -> float:
    """Mean reciprocal rank of the first relevant item within the top k.

    Queries with no relevant item in the top k contribute 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_judged(runs, judgments)
    if not runs:
        raise ValueError("no ranked lists given")
    total = 0.0
    for run in runs:
        rel = judgments[run.query_id]
        for rank, item in enumerate(run.item_ids[:k], start=1):
            if item in rel:
                total += 1.0 / rank
                break
    return total / len(runs)


# ---------------------------------------------------------------------------
# adjusted mutual information
# ---------------------------------------------------------------------------

def _as_label_arrays(u, v) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(u, Mapping) or isinstance(v, Mapping):
        if not (isinstance(u, Mapping) and isinstance(v, Mapping)):
            raise ValueError("both partitions must be mappings if either is")
        if set(u) != set(v):
            raise ValueError("partitions must cover the same element universe")
        keys = sorted(u)
        u = [u[k] for k in keys]
        v = [v[k] for k in keys]
    ua, va = np.asarray(list(u)), np.asarray(list(v))
    if ua.shape != va.shape or ua.ndim != 1:
        raise ValueError("partitions must be equal-length label sequences")
    if ua.size < 2:
        raise ValueError("AMI needs at least 2 elements")
    return ua, va


def contingency_table(u, v) -> np.ndarray:
    ua, va = _as_label_arrays(u, v)
    _, ui = np.unique(ua, return_inverse=True)
    _, vi = np.unique(va, return_inverse=True)
    table = np.zeros((ui.max() + 1, vi.max() + 1), dtype=np.int64)
    np.add.at(table, (ui, vi), 1)
    return table


def entropy_of_counts(counts: np.ndarray) -> float:
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def mutual_information(table: np.ndarray) -> float:
    table = np.asarray(table, dtype=np.float64)
    n = table.sum()
    outer = np.outer(table.sum(axis=1), table.sum(axis=0))
    nz = table > 0
    p = table[nz] / n
    return float((p * np.log(n * table[nz] / outer[nz])).sum())


def expected_mutual_information(table: np.ndarray) -> float:
    """E[MI] under the permutation (hypergeometric) null model, exactly.

    Sums over all feasible cell values n_ij given the table margins, with
    log-factorials via lgamma.
    """
    table = np.asarray(table, dtype=np.int64)
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    n = int(table.sum())
    if n == 0:
        return 0.0
    lg = lgamma
    log_n = log(n)
    emi = 0.0
    for ai in a:
        ai = int(ai)
        for bj in b:
            bj = int(bj)
            start = max(1, ai + bj - n)
            stop = min(ai, bj)
            for nij in range(start, stop + 1):
                term = (nij / n) * (log_n + log(nij) - log(ai) - log(bj))
                log_weight = (lg(ai + 1) + lg(bj + 1) + lg(n - ai + 1) + lg(n - bj + 1)
                              - lg(n + 1) - lg(nij + 1) - lg(ai - nij + 1)
                              - lg(bj - nij + 1) - lg(n - ai - bj + nij + 1))
                emi += term * np.exp(log_weight)
    return float(emi)


def ami(u, v) -> float:
    """Adjusted mutual information with the max-entropy normalizer.

    (MI - E[MI]) / (max(H(U), H(V)) - E[MI]); degenerate denominators
    (e.g. both partitions a single cluster) return 0 by convention.
    """
    table = contingency_table(u, v)
    h_u = entropy_of_counts(table.sum(axis=1))
    h_v = entropy_of_counts(table.sum(axis=0))
    if h_u == 0.0 or h_v == 0.0:
        # a single-cluster partition carries no information
        return 0.0
    mi = mutual_information(table)
    emi = expected_mutual_information(table)
    denom = max(h_u, h_v) - emi
    if abs(denom) < 1e-12:
        return 0.0
    return (mi - emi) / denom


# ---------------------------------------------------------------------------
# code consistency
# ---------------------------------------------------------------------------

def code_consistency(pairs: Sequence[tuple[str, str]],
                     query_ids: Mapping[str, tuple],
                     item_ids: Mapping[str, tuple],
                     level: int) -> float:
    """Fraction of pairs whose first ``level`` codes match exactly."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if not pairs:
        raise ValueError("no pairs given")
    matches = 0
    for qid, iid in pairs:
        if qid not in query_ids:
            raise KeyError(f"query {qid!r} has no semantic ID")
        if iid not in item_ids:
            raise KeyError(f"item {iid!r} has no semantic ID")
        q_codes, i_codes = tuple(query_ids[qid]), tuple(item_ids[iid])
        if len(q_codes) < level or len(i_codes) < level:
            raise ValueError(f"IDs for pair ({qid!r}, {iid!r}) shorter than level {level}")
        if q_codes[:level] == i_codes[:level]:
            matches += 1
    return matches / len(pairs)


def partition_from_ids(ids: Mapping[str, tuple], level: int) -> dict[str, int]:
    """Collapse semantic IDs to a flat partition by their length-``level`` prefix."""
    prefixes = sorted({tuple(sid[:level]) for sid in ids.values()})
    label = {p: i for i, p in enumerate(prefixes)}
    return {key: label[tuple(sid[:level])] for key, sid in ids.items()}
