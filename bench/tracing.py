"""Span tracing from outside the program, for the per-layer table.

``install`` wraps the public functions and methods of every semidx module
with timing wrappers. A function that another module bound with
``from ... import`` is replaced under every name that refers to it, so no
call path escapes the wrapper. Spans (name, start, end, parent span,
request id) are kept in flat in-memory arrays and written out once at the
end; per-layer self times are derived from them afterwards.

Only public call boundaries are visible from here. Per-op backward time and
the split of attention from feed-forward sit behind private closures and
methods, so they need tracing inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

AUTODIFF_OPS = ("matmul", "gelu", "softmax", "log_softmax", "layer_norm", "embedding")


class Tracer:
    """In-memory span store plus counters filled in by result hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.requests: list[str] = ["-"]
        self._request = 0
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        """A span around a block; ``request`` tags it and every span inside."""
        previous = self._request
        if request is not None:
            self.requests.append(request)
            self._request = len(self.requests) - 1
        i = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(i)
            self._request = previous

    def wrap(self, fn, name: str, on_result=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if on_result is not None:
                on_result(tracer.counts, result, args)
            return result

        return wrapper

    def __len__(self) -> int:
        return len(self.start)

    def times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per-name self time, inclusive time and call count, in seconds."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(self.names)
        self_t = np.bincount(name, weights=dur - child, minlength=n)
        incl_t = np.bincount(name, weights=dur, minlength=n)
        calls = np.bincount(name, minlength=n)
        return ({k: float(self_t[i]) for i, k in enumerate(self.names)},
                {k: float(incl_t[i]) for i, k in enumerate(self.names)},
                {k: int(calls[i]) for i, k in enumerate(self.names)})

    def save(self, path: Path) -> None:
        np.savez(path,
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 request=np.frombuffer(self.request, dtype=np.int32),
                 names=np.array(json.dumps(self.names)),
                 requests=np.array(json.dumps(self.requests)))


# ---------------------------------------------------------------------------
# result hooks: counts measured where the work happens
# ---------------------------------------------------------------------------

def _count_optimizer(counts, applied, args):
    counts["autodiff.optimizer_steps" if applied else "autodiff.optimizer_skipped"] += 1


def _count_rows(key):
    def hook(counts, result, args):
        counts[key] += args[1].shape[0]   # tokens array or memory tensor, batch first
    return hook


def _count_reinit(counts, n, args):
    counts["model.dead_codes_reinit"] += int(n)


def _count_samples(counts, result, args):
    examples, skipped = result
    counts["pretrain.examples"] += len(examples)
    counts["pretrain.draws"] += len(examples) + sum(skipped.values())


def _count_prefix_batches(counts, batches, args):
    counts["training.pairs"] += sum(b.size for b in batches)


def _count_code_step(counts, result, args):
    stats = result[1]
    counts["training.batches"] += stats.batches
    counts["training.warmup_batches"] += stats.warmup_batches


def _count_indexed(counts, index, args):
    counts["index.items_indexed"] += len(index)


def _targets(semidx_mods):
    """(owner, attribute, span name, result hook) for every wrapped callable."""
    ad, model, pretrain, training, index, metrics, data = (
        semidx_mods[k] for k in ("autodiff", "model", "pretrain", "training", "index",
                                 "metrics", "data"))
    out = [(ad.Tensor, "backward", "autodiff.backward", None),
           (ad.Optimizer, "step", "autodiff.optimizer_step", _count_optimizer)]
    out += [(ad, op, f"autodiff.{op}", None) for op in AUTODIFF_OPS]
    out += [
        (model.TransformerModel, "encode_batch", "model.encode_batch",
         _count_rows("model.encode_batch.rows")),
        (model.TransformerModel, "decode_code_states", "model.decode_code_states",
         _count_rows("model.decode_code_states.rows")),
        (model.TransformerModel, "decode_text", "model.decode_text", None),
        (model.TransformerModel, "greedy_decode_batch", "model.greedy_decode_batch", None),
        (model.Codebook, "assign", "model.codebook_assign", None),
        (model.Codebook, "ema_update", "model.codebook_ema_update", None),
        (model.Codebook, "reinit_dead", "model.codebook_reinit_dead", _count_reinit),
        (model, "save_checkpoint", "model.checkpoint_save", None),
        (model, "load_checkpoint", "model.checkpoint_load", None),
        (pretrain, "sample_examples", "pretrain.sample_examples", _count_samples),
        (pretrain, "batch_loss", "pretrain.batch_loss", None),
        (pretrain, "pretrain_step", "pretrain.step", None),
        (training, "build_prefix_batches", "training.build_prefix_batches",
         _count_prefix_batches),
        (training, "batch_forward", "training.batch_forward", None),
        (training, "contrastive_term", "training.contrastive", None),
        (training, "kl_term", "training.kl", None),
        (training, "commitment_loss", "training.commitment", None),
        (training, "assign_step_codes", "training.assign_step_codes", None),
        (training, "train_code_step", "training.train_code_step", _count_code_step),
        (index, "assign_all_ids", "index.assign_all_ids", _count_indexed),
        (index.CodeIndex, "save", "index.save", None),
        (index.CodeIndex, "load", "index.load", None),
        (index, "beam_search_decode", "index.beam_search", None),
        (index, "beam_search_decode_batch", "index.beam_search", None),
        (index, "generative_retrieve", "index.generative_retrieve", None),
        (index, "item_representation_matrix", "index.item_matrix", None),
        (index, "dense_rank", "index.dense_rank", None),
        (index, "hierarchical_kmeans_codes", "index.kmeans", None),
        (metrics, "ami", "metrics.ami", None),
        (metrics, "recall_at_k", "metrics.recall", None),
        (metrics, "mrr_at_k", "metrics.mrr", None),
        (metrics, "code_consistency", "metrics.code_consistency", None),
        (data, "synth_corpus", "data.synth", None),
        (data, "load_corpus", "data.load_corpus", None),
        (data, "build_vocab", "data.build_vocab", None),
        (data.Vocab, "encode", "data.vocab_encode", None),
    ]
    return out


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every target, under every binding in a semidx module; undo on exit."""
    mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("semidx.")}
    everywhere = [mod.__dict__ for mod in mods.values()] + [sys.modules["semidx"].__dict__]
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name, hook in _targets(mods):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, hook)))
                undo.append((owner, attr, raw))
                continue
            wrapped = tracer.wrap(raw, name, hook)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
            if isinstance(owner, type):
                continue
            for namespace in everywhere:
                for key, value in list(namespace.items()):
                    if value is raw and namespace is not owner.__dict__:
                        namespace[key] = wrapped
                        undo.append((namespace, key, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
