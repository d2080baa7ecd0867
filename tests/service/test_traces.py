"""Determinism and distribution properties of the trace generator."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.service import TraceConfig, operation_stream, rank_probability, stream_digest
from repro.service.traces import MIXES, OP_KINDS, client_ops

SRC = str(Path(__file__).resolve().parents[2] / "src")


# ----------------------------------------------------------------------
# Byte-identity
# ----------------------------------------------------------------------


def test_same_seed_is_byte_identical():
    config = TraceConfig(tenants=2, ops_per_tenant=500, keys_per_tenant=10_000)
    assert stream_digest(config) == stream_digest(config)


def test_digest_moves_with_seed_and_skew():
    base = TraceConfig(tenants=1, ops_per_tenant=400, keys_per_tenant=5_000)
    digests = {
        stream_digest(base),
        stream_digest(TraceConfig(
            tenants=1, ops_per_tenant=400, keys_per_tenant=5_000, seed=1
        )),
        stream_digest(TraceConfig(
            tenants=1, ops_per_tenant=400, keys_per_tenant=5_000,
            zipf_theta=0.5,
        )),
        stream_digest(TraceConfig(
            tenants=1, ops_per_tenant=400, keys_per_tenant=5_000,
            distribution="uniform",
        )),
    }
    assert len(digests) == 4


def test_digest_survives_hash_randomisation():
    # Seeds are derived arithmetically, never from hashing strings, so
    # the stream must be identical under a different PYTHONHASHSEED —
    # the same property that makes --jobs N workers agree byte-for-byte.
    script = (
        "from repro.service import TraceConfig, stream_digest\n"
        "print(stream_digest(TraceConfig(tenants=2, ops_per_tenant=200,"
        " keys_per_tenant=3_000, seed=7), clients_per_tenant=2))\n"
    )
    digests = set()
    for hashseed in ("1", "4242"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_client_split_conserves_tenant_budget():
    config = TraceConfig(tenants=1, ops_per_tenant=1_003, keys_per_tenant=100)
    for clients in (1, 2, 3, 7):
        shares = [client_ops(config, clients, c) for c in range(clients)]
        assert sum(shares) == config.ops_per_tenant
        # Remainder goes to the first clients: shares are non-increasing.
        assert shares == sorted(shares, reverse=True)


def test_per_client_streams_are_independent_of_split():
    # Client c's stream depends only on (seed, tenant, c) — never on how
    # many siblings it has — so any split replays the same operations.
    config = TraceConfig(tenants=1, ops_per_tenant=600, keys_per_tenant=2_000)
    solo = list(operation_stream(config, 0, client=1, ops=100))
    again = list(operation_stream(config, 0, client=1, ops=100))
    assert solo == again


# ----------------------------------------------------------------------
# Stream contents
# ----------------------------------------------------------------------


def test_tenant_key_spaces_are_disjoint():
    config = TraceConfig(tenants=3, ops_per_tenant=300, keys_per_tenant=1_000)
    for tenant in range(config.tenants):
        lo = tenant * config.keys_per_tenant
        for op in operation_stream(config, tenant):
            assert lo <= op.key < lo + config.keys_per_tenant
            assert op.tenant == tenant
            assert op.kind in OP_KINDS


def test_mix_ratios_roughly_match_preset():
    config = TraceConfig(
        tenants=1, ops_per_tenant=4_000, keys_per_tenant=1_000, mix="ycsb-b"
    )
    kinds = [op.kind for op in operation_stream(config, 0)]
    reads = kinds.count("read") / len(kinds)
    assert reads == pytest.approx(0.95, abs=0.03)
    config_c = TraceConfig(
        tenants=1, ops_per_tenant=500, keys_per_tenant=1_000, mix="ycsb-c"
    )
    assert all(op.kind == "read" for op in operation_stream(config_c, 0))


def test_scans_bounded_and_point_ops_have_length_one():
    config = TraceConfig(
        tenants=1, ops_per_tenant=1_000, keys_per_tenant=1_000,
        mix="ycsb-e", max_scan_len=16,
    )
    saw_scan = False
    for op in operation_stream(config, 0):
        if op.kind == "scan":
            saw_scan = True
            assert 1 <= op.scan_len <= 16
        else:
            assert op.scan_len == 1
    assert saw_scan


def test_arrival_pacing_emits_positive_gaps():
    closed = TraceConfig(tenants=1, ops_per_tenant=200, keys_per_tenant=100)
    assert all(op.gap_ns == 0.0 for op in operation_stream(closed, 0))
    open_loop = TraceConfig(
        tenants=1, ops_per_tenant=200, keys_per_tenant=100,
        arrival_rate_ops_s=50_000.0,
    )
    gaps = [op.gap_ns for op in operation_stream(open_loop, 0)]
    assert all(gap >= 0.0 for gap in gaps)
    assert sum(gaps) > 0.0


def test_higher_skew_concentrates_on_hot_keys():
    def hot_share(theta: float) -> float:
        config = TraceConfig(
            tenants=1, ops_per_tenant=3_000, keys_per_tenant=10_000,
            zipf_theta=theta,
        )
        hot = config.keys_per_tenant // 100  # top 1% of the key space
        ops = list(operation_stream(config, 0))
        return sum(1 for op in ops if op.key < hot) / len(ops)

    assert hot_share(0.99) > hot_share(0.6) > hot_share(0.2)


# ----------------------------------------------------------------------
# Analytic zipfian mass function (hypothesis)
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 2_000),
    theta=st.floats(0.0, 0.99),
    rank=st.integers(0, 1_998),
)
def test_property_rank_probability_decreases_in_rank(n, theta, rank):
    rank = min(rank, n - 2)
    assert rank_probability(rank, n, theta) >= rank_probability(rank + 1, n, theta)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 2_000),
    lo=st.floats(0.0, 0.98),
    step=st.floats(0.005, 0.5),
)
def test_property_hot_key_mass_increases_in_theta(n, lo, step):
    hi = min(0.99, lo + step)
    assert rank_probability(0, n, hi) >= rank_probability(0, n, lo)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 300), theta=st.floats(0.0, 0.99))
def test_property_rank_probabilities_sum_to_one(n, theta):
    total = sum(rank_probability(rank, n, theta) for rank in range(n))
    assert total == pytest.approx(1.0, rel=1e-9)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(WorkloadError):
        TraceConfig(tenants=0)
    with pytest.raises(WorkloadError):
        TraceConfig(ops_per_tenant=0)
    with pytest.raises(WorkloadError):
        TraceConfig(distribution="latest")
    with pytest.raises(WorkloadError):
        TraceConfig(zipf_theta=1.0)
    with pytest.raises(WorkloadError):
        TraceConfig(mix="ycsb-z")
    with pytest.raises(WorkloadError):
        TraceConfig(arrival_rate_ops_s=0.0)
    # NaN makes every gap NaN and inf makes it 0: either way ``gap_ns > 0``
    # is false and an open-loop run would silently run closed-loop.
    for rate in (math.nan, math.inf):
        with pytest.raises(WorkloadError):
            TraceConfig(arrival_rate_ops_s=rate)
    with pytest.raises(WorkloadError):
        next(operation_stream(TraceConfig(tenants=2), tenant=2))
    with pytest.raises(WorkloadError):
        client_ops(TraceConfig(), clients_per_tenant=2, client=2)
    assert sorted(MIXES) == [f"ycsb-{x}" for x in "abcdef"]
