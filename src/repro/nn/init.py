"""Parameter initialisers.

DLRM's reference implementation initialises dense layers with Xavier/Glorot
uniform weights and embedding tables with uniform values scaled by the table
size; we follow the same conventions so learning curves are comparable.

Every initialiser returns an array of the caller's ``dtype`` (the model's
``ModelConfig.numpy_dtype``).  The random draws are float64 whatever the
dtype, so a float32 model starts from the float64 model's values rounded
once, and the float64 values are the same at either width.
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(
    fan_in: int, fan_out: int, rng: np.random.Generator, dtype: np.dtype
) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a (fan_in, fan_out) matrix."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def embedding_uniform(
    num_rows: int, dim: int, rng: np.random.Generator, dtype: np.dtype
) -> np.ndarray:
    """DLRM-style uniform embedding initialisation in +-1/sqrt(num_rows)."""
    limit = 1.0 / np.sqrt(num_rows)
    return rng.uniform(-limit, limit, size=(num_rows, dim)).astype(dtype)


def zeros(*shape: int, dtype: np.dtype) -> np.ndarray:
    """Zero-initialised array (used for biases)."""
    return np.zeros(shape, dtype=dtype)
