"""Property tests for the log-bucketed histogram (repro.obs.histogram).

The histogram's contract is threefold and each clause gets a hypothesis
property: quantile estimates stay within the configured relative error of
the true rank sample for arbitrary positive floats; merging two histograms
is equivalent to recording the concatenated stream; and a snapshot
round-trips through ``to_dict``/``from_dict`` without loss.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import DEFAULT_RELATIVE_ERROR, LogHistogram

positive_floats = st.floats(min_value=1e-9, max_value=1e12,
                            allow_nan=False, allow_infinity=False)
samples = st.lists(positive_floats, min_size=1, max_size=300)


def true_rank_sample(values: list[float], q: float) -> float:
    """The sample the histogram's quantile() targets: rank floor(q*(n-1))."""
    ordered = sorted(values)
    return ordered[math.floor(q * (len(ordered) - 1))]


# -- relative-error bound ----------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(values=samples, q=st.floats(min_value=0.0, max_value=1.0))
def test_quantile_within_relative_error(values, q):
    hist = LogHistogram()
    for v in values:
        hist.record(v)
    estimate = hist.quantile(q)
    truth = true_rank_sample(values, q)
    assert abs(estimate - truth) <= DEFAULT_RELATIVE_ERROR * truth


@settings(max_examples=50, deadline=None)
@given(values=samples, q=st.floats(min_value=0.0, max_value=1.0),
       eps=st.floats(min_value=0.001, max_value=0.2))
def test_quantile_bound_holds_for_any_relative_error(values, q, eps):
    hist = LogHistogram(relative_error=eps)
    for v in values:
        hist.record(v)
    truth = true_rank_sample(values, q)
    assert abs(hist.quantile(q) - truth) <= eps * truth


@pytest.mark.parametrize("eps", [0.001, 0.01, 0.2])
@pytest.mark.parametrize("value", [1.0, 1e-9, 1e12])
def test_bound_holds_on_a_bucket_edge(eps, value):
    # 1.0 is always a bucket edge, exactly eps from the midpoint in exact
    # arithmetic; float rounding must not push the estimate past eps.
    hist = LogHistogram(relative_error=eps)
    hist.record(value)
    assert abs(hist.quantile(0.0) - value) <= eps * value


def test_non_positive_values_fold_into_zero_bucket():
    hist = LogHistogram()
    hist.record(0.0, n=3)
    hist.record(-1.5)
    hist.record(2.0)
    assert hist.count == 5
    assert hist.zero_count == 4
    assert hist.quantile(0.0) == 0.0
    # rank floor(0.9 * 4) = 3 is still inside the zero bucket
    assert hist.quantile(0.9) == 0.0
    assert abs(hist.quantile(1.0) - 2.0) <= DEFAULT_RELATIVE_ERROR * 2.0


# -- merge ≡ concatenated stream ---------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(a=samples, b=samples)
def test_merge_equals_concatenated_stream(a, b):
    merged = LogHistogram()
    for v in a:
        merged.record(v)
    other = LogHistogram()
    for v in b:
        other.record(v)
    merged.merge(other)

    concat = LogHistogram()
    for v in a + b:
        concat.record(v)

    assert merged.buckets == concat.buckets
    assert merged.zero_count == concat.zero_count
    assert merged.count == concat.count
    assert merged.min == concat.min
    assert merged.max == concat.max
    # sum accumulates in a different order -> float addition tolerance
    assert merged.sum == pytest.approx(concat.sum, rel=1e-9)
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert merged.quantile(q) == concat.quantile(q)


def test_merge_rejects_mismatched_relative_error():
    with pytest.raises(ValueError):
        LogHistogram(0.01).merge(LogHistogram(0.02))


# -- snapshot round-trip -----------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0, max_value=1e9,
                                 allow_nan=False, allow_infinity=False),
                       max_size=200))
def test_snapshot_round_trip(values):
    hist = LogHistogram()
    for v in values:
        hist.record(v)
    restored = LogHistogram.from_dict(hist.to_dict())
    assert restored.relative_error == hist.relative_error
    assert restored.buckets == hist.buckets
    assert restored.zero_count == hist.zero_count
    assert restored.count == hist.count
    assert restored.sum == hist.sum
    assert restored.min == hist.min
    assert restored.max == hist.max
    if values:
        for q in (0.0, 0.5, 0.99, 1.0):
            assert restored.quantile(q) == hist.quantile(q)


def test_snapshot_is_json_compatible():
    import json

    hist = LogHistogram()
    hist.record(3.0, n=2)
    data = json.loads(json.dumps(hist.to_dict()))
    assert LogHistogram.from_dict(data).quantile(0.5) == hist.quantile(0.5)


# -- input validation --------------------------------------------------------------------

def test_rejects_bad_inputs():
    hist = LogHistogram()
    with pytest.raises(ValueError):
        hist.record(float("nan"))
    with pytest.raises(ValueError):
        hist.record(float("inf"))
    with pytest.raises(ValueError):
        hist.record(1.0, n=0)
    with pytest.raises(ValueError):
        hist.quantile(0.5)  # empty
    hist.record(1.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)
    with pytest.raises(ValueError):
        LogHistogram(relative_error=0.0)


def test_len_and_quantile_labels():
    hist = LogHistogram()
    assert len(hist) == 0 and not hist
    hist.record(5.0, n=7)
    assert len(hist) == 7
    labels = hist.quantiles((0.5, 0.999))
    assert set(labels) == {"p50", "p99.9"}
