"""Tests for the hot/cold :class:`TieredEmbeddingStore`.

The tier is an accounting layer, so the suite pins three things: the
bit-parity contract (attaching a tier changes no numerics), the pricing/
counter model (misses fetch, capacity evicts LFU, pinned rows never
evict), and the window-bound bookkeeping (resident-set-sized arrays,
never table-sized).
"""

from __future__ import annotations

import numpy as np

from repro.hwsim.dma import DMAEngine
from repro.nn.embedding import EmbeddingBag, TieredEmbeddingStore


def make_tier(rows=(64, 32), dim=4, hot_rows=16, **kwargs):
    tier = TieredEmbeddingStore(
        rows, dim, hot_bytes=hot_rows * dim * 4, dma=DMAEngine(), **kwargs
    )
    assert tier.capacity_rows == hot_rows
    return tier


def test_touch_counts_hits_misses_and_prices_fetches():
    tier = make_tier()
    t = tier.touch(0, np.array([[1, 2], [3, 1]]))
    # Hits/misses count unique rows: three cold rows on a first touch.
    assert (tier.hits, tier.misses) == (0, 3)
    assert t > 0.0 and tier.fetch_time_s == t
    assert tier.dma.bytes_read == 3 * tier.row_bytes
    t2 = tier.touch(0, np.array([[1, 3]]))
    assert (tier.hits, tier.misses) == (2, 3)
    assert t2 == 0.0  # all resident: no DMA
    assert tier.resident_rows == 3


def test_capacity_evicts_lowest_frequency_rows():
    tier = make_tier(hot_rows=4)
    tier.touch(0, np.array([[0, 0, 0, 1, 1, 2, 3]]))  # freq 0:3, 1:2, 2:1, 3:1
    assert tier.resident_rows == 4 and tier.evictions == 0
    tier.touch(1, np.array([[5, 5]]))  # forces one eviction
    assert tier.evictions == 1
    assert tier.resident_rows == 4
    # The evicted victim is one of the frequency-1 rows of table 0.
    assert tier.is_resident(0, np.array([0, 1])).all()
    assert int(np.count_nonzero(tier.is_resident(0, np.array([2, 3])))) == 1
    assert tier.is_resident(1, np.array([5])).all()
    assert tier.dma.bytes_written == tier.row_bytes  # dirty write-back priced


def test_pinned_rows_never_evict():
    tier = make_tier(hot_rows=4)
    tier.pin_rows(0, np.array([10, 11, 12]))
    assert tier.resident_rows == 3 and tier.misses == 0
    # Pinned prefill is a contiguous (non-scattered) read.
    assert tier.fetch_time_s > 0.0 and tier.dma.requests == 1
    tier.touch(1, np.array([[1, 2, 3]]))  # 3 cold rows, capacity 4
    assert tier.evictions == 2
    assert tier.is_resident(0, np.array([10, 11, 12])).all()


def test_record_counts_feeds_eviction_priority():
    tier = make_tier(hot_rows=4)
    tier.touch(0, np.array([[1, 2, 3, 4]]))  # all frequency 1
    # The classifier says row 3 is popular: seed its count.
    tier.record_counts(0, np.array([3, 60]), np.array([50, 9]))  # 60 not resident
    tier.touch(1, np.array([[7, 8, 9]]))
    assert tier.evictions == 3
    assert tier.is_resident(0, np.array([3])).all()  # survived on seeded count


def test_bookkeeping_is_resident_set_sized():
    tier = TieredEmbeddingStore(
        (10_000_000,), 8, hot_bytes=1024 * 8 * 4, dma=DMAEngine()
    )
    rng = np.random.default_rng(3)
    tier.touch(0, rng.choice(10_000_000, size=(16, 4), replace=False))
    assert tier.resident_rows == 64
    # Sorted-array probe bookkeeping: bytes track residency, not the table.
    assert tier.nbytes < 64 * 3 * 8 + 64
    assert tier.hit_rate == 0.0


def test_embedding_bag_resolves_through_tier_transparently():
    rng = np.random.default_rng(11)
    bag = EmbeddingBag(64, 4, rng, dtype=np.float64)
    baseline_weight = bag.weight.copy()
    block = rng.integers(0, 64, size=(8, 3))
    expected = bag.forward(block)
    expected_grad = bag.backward(np.ones((8, 4)))

    tier = make_tier(rows=(64,), hot_rows=16)
    bag.attach_tier(tier, 0)
    out = bag.forward(block)
    grad = bag.backward(np.ones((8, 4)))
    # Bit-identical numerics: only pricing/counters change.
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(grad.indices, expected_grad.indices)
    np.testing.assert_array_equal(grad.values, expected_grad.values)
    np.testing.assert_array_equal(bag.weight, baseline_weight)
    assert tier.hits + tier.misses == np.unique(block).size
    bag.detach_tier()
    bag.forward(block)
    assert tier.hits + tier.misses == np.unique(block).size  # detached: untouched


def test_attach_tier_validates_shape():
    rng = np.random.default_rng(0)
    bag = EmbeddingBag(64, 4, rng, dtype=np.float64)
    tier = make_tier(rows=(32, 64))
    try:
        bag.attach_tier(tier, 0)  # table 0 has 32 rows, bag has 64
    except ValueError:
        pass
    else:  # pragma: no cover - guards the test itself
        raise AssertionError("shape mismatch must raise")
    bag.attach_tier(tier, 1)


def test_reset_counters_keeps_residency():
    tier = make_tier()
    tier.touch(0, np.array([[1, 2, 3]]))
    tier.reset_counters()
    assert (tier.hits, tier.misses, tier.evictions) == (0, 0, 0)
    assert tier.fetch_time_s == 0.0 and tier.writeback_time_s == 0.0
    assert tier.resident_rows == 3  # warmed tier survives the reset
    tier.touch(0, np.array([[1]]))
    assert (tier.hits, tier.misses) == (1, 0)
