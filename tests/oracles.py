"""Test-only oracles: the finite-difference gradient checker, the codebook
row identity, the B=1 encoder and decoder references and the prefix
property of progressive-training batches. The pipeline never
calls them, so they live with the tests; pytest's default import mode puts
``tests/`` on ``sys.path``, so a test imports them with
``from oracles import ...``."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from semidx import autodiff as ad
from semidx.autodiff import Tensor
from semidx.model import LAPLACE_EPS, Codebook, TransformerModel, pad_rows


class GradCheckError(RuntimeError):
    """The check could not run (e.g. the loss is not deterministic)."""


@dataclass
class GradCheckReport:
    max_rel_error: float
    max_abs_error: float
    coords_checked: int
    per_param: dict[str, float]

    def passed(self, tol: float) -> bool:
        return self.max_rel_error < tol


def grad_check(loss_fn: Callable[[], Tensor],
               params: Mapping[str, Tensor],
               eps: float = 1e-5,
               sample_per_param: int | None = None,
               rng: np.random.Generator | None = None,
               zero_floor: float = 1e-7) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    ``loss_fn`` is a zero-argument callable that rebuilds the forward graph
    from the current parameter values and returns a scalar Tensor. With
    ``sample_per_param`` set, only that many randomly chosen coordinates of
    each parameter are probed (full elementwise check otherwise).

    The relative error of a coordinate is |a − fd| / max(|a|, |fd|), taken
    as 0 when both magnitudes fall below ``zero_floor``.
    """
    if not (1e-6 <= eps <= 1e-3):
        raise ValueError("eps must lie in [1e-6, 1e-3]")
    named = dict(params)

    v1 = float(loss_fn().data)
    v2 = float(loss_fn().data)
    if v1 != v2:
        raise GradCheckError(
            f"loss_fn is not deterministic under fixed parameters: {v1!r} != {v2!r}")

    for p in named.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in named.items()}

    rng = rng if rng is not None else np.random.default_rng(0)
    max_rel = 0.0
    max_abs = 0.0
    checked = 0
    per_param: dict[str, float] = {}
    for name, p in named.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if sample_per_param is None or n <= sample_per_param:
            coords = range(n)
        else:
            coords = sorted(int(c) for c in rng.choice(n, size=sample_per_param, replace=False))
        a_flat = analytic[name].reshape(-1)
        worst = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            f_plus = float(loss_fn().data)
            flat[c] = orig - eps
            f_minus = float(loss_fn().data)
            flat[c] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            a = float(a_flat[c])
            abs_err = abs(a - fd)
            denom = max(abs(a), abs(fd))
            rel = 0.0 if denom < zero_floor else abs_err / denom
            worst = max(worst, rel)
            max_abs = max(max_abs, abs_err)
            checked += 1
        per_param[name] = worst
        max_rel = max(max_rel, worst)
    return GradCheckReport(max_rel_error=max_rel, max_abs_error=max_abs,
                           coords_checked=checked, per_param=per_param)


def row_identity_error(cb: Codebook) -> float:
    """Largest deviation of a codebook row from ema_sums / (ema_counts + eps)."""
    expected = cb.ema_sums / (cb.ema_counts[:, None] + LAPLACE_EPS)
    return float(np.max(np.abs(cb.embeddings - expected)))


def prefix_property_holds(batches, frozen) -> bool:
    """Every group of ``batches`` shares one prefix in ``frozen`` or, as a
    residual group, holds pairwise-distinct prefixes, and each prefix class
    leaves at most one entry to the residual groups."""
    leftovers: Counter = Counter()
    for batch in batches:
        for group in batch.groups:
            prefixes = [frozen.by_item[e.item_id] for e in group]
            if len(prefixes) > 1 and len(set(prefixes)) == 1:
                continue
            if len(set(prefixes)) != len(prefixes):
                return False
            leftovers.update(prefixes)
    return all(n <= 1 for n in leftovers.values())


def encode(model: TransformerModel, tokens: Sequence[int]) -> Tensor:
    """Single-sequence encoder memory (L, D): the B=1 reference."""
    memory = model.encode_batch(*pad_rows([list(tokens)]))
    return ad.reshape(memory, (memory.shape[1], model.config.hidden_size))


def decode_step(model: TransformerModel, memory: Tensor, prefix: Sequence[int],
                t: int) -> Tensor:
    """B=1 reference d_t (D,) over an ``encode`` memory; ``prefix`` holds
    exactly t-1 codes."""
    prefix = tuple(int(c) for c in prefix)
    if not (1 <= t <= model.config.num_steps):
        raise ValueError(f"step {t} outside [1, {model.config.num_steps}]")
    if len(prefix) != t - 1:
        raise ValueError(f"prefix length {len(prefix)} does not match step {t}")
    L = memory.shape[0]
    mem3 = ad.reshape(memory, (1, L, model.config.hidden_size))
    states = model.decode_code_states(mem3, np.ones((1, L)),
                                      np.array(prefix, dtype=np.int64).reshape(1, -1))
    return ad.reshape(states[:, t - 1, :], (model.config.hidden_size,))
