"""semidx: hierarchical discrete semantic IDs for items and queries.

Train a small encoder-decoder with per-step quantization codebooks, assign
code sequences to a corpus, retrieve generatively (beam search over codes)
or densely (final decoder states), and evaluate the result.
"""

__version__ = "0.1.0"

from semidx.autodiff import Tensor, Optimizer  # noqa: F401
from semidx.model import ModelConfig, Codebook, TransformerModel  # noqa: F401
