"""Shared fixtures: small-but-realistic configs, datasets, and models.

Every fixture is seeded so test runs are deterministic.  The "small"
variants keep embedding tables at a few thousand rows so that functional
training tests run in seconds while preserving the Zipf skew statistics the
Hotline pipeline depends on.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.data import MiniBatchLoader, generate_click_log
from repro.data.datasets import DatasetSpec
from repro.models import RM2, ModelConfig
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM


TINY_DATASET = DatasetSpec(
    name="tiny-test",
    num_dense=4,
    rows_per_table=(512, 128, 64, 32),
    pooling=1,
    zipf_alpha=1.3,
    samples_per_epoch=4096,
)

TINY_MODEL = ModelConfig(
    name="tiny-model",
    dataset=TINY_DATASET,
    embedding_dim=8,
    bottom_mlp="4-16-8",
    top_mlp="16-1",
)

TINY_TS_DATASET = DatasetSpec(
    name="tiny-ts-test",
    num_dense=2,
    rows_per_table=(256, 64, 32),
    pooling=3,
    zipf_alpha=1.1,
    samples_per_epoch=2048,
    time_series_length=3,
)

TINY_TS_MODEL = ModelConfig(
    name="tiny-ts-model",
    dataset=TINY_TS_DATASET,
    embedding_dim=8,
    bottom_mlp="2-8",
    top_mlp="12-1",
    uses_attention=True,
)


@pytest.fixture(scope="session")
def tiny_model_config() -> ModelConfig:
    """A 4-table DLRM configuration small enough for exhaustive tests."""
    return TINY_MODEL


@pytest.fixture(scope="session")
def tiny_ts_model_config() -> ModelConfig:
    """A small TBSM (attention) configuration."""
    return TINY_TS_MODEL


@pytest.fixture(scope="session")
def tiny_model_config_f64() -> ModelConfig:
    """The tiny DLRM config in float64, for checks calibrated to float64."""
    return replace(TINY_MODEL, dtype_bytes=8)


@pytest.fixture(scope="session")
def tiny_ts_model_config_f64() -> ModelConfig:
    """The tiny TBSM config in float64, for checks calibrated to float64."""
    return replace(TINY_TS_MODEL, dtype_bytes=8)


@pytest.fixture(scope="session")
def tiny_click_log(tiny_model_config):
    """2048-sample synthetic click log for the tiny DLRM config."""
    return generate_click_log(tiny_model_config.dataset, 2048, seed=7)


@pytest.fixture(scope="session")
def tiny_ts_click_log(tiny_ts_model_config):
    """1024-sample synthetic click log for the tiny TBSM config."""
    return generate_click_log(tiny_ts_model_config.dataset, 1024, seed=11)


@pytest.fixture()
def tiny_loader(tiny_click_log):
    """128-sample mini-batch loader over the tiny click log."""
    return MiniBatchLoader(tiny_click_log, batch_size=128)


@pytest.fixture()
def tiny_dlrm(tiny_model_config) -> DLRM:
    """A freshly-initialised DLRM for the tiny config."""
    return DLRM(tiny_model_config, seed=0)


@pytest.fixture()
def tiny_tbsm(tiny_ts_model_config) -> TBSM:
    """A freshly-initialised TBSM for the tiny time-series config."""
    return TBSM(tiny_ts_model_config, seed=0)


@pytest.fixture(scope="session")
def scaled_rm2() -> ModelConfig:
    """RM2 (Criteo Kaggle) scaled to a trainable size."""
    return RM2.scaled(max_rows_per_table=2000, samples_per_epoch=4096)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Deterministic RNG for ad-hoc test data."""
    return np.random.default_rng(1234)
