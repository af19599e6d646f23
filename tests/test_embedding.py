"""Score rounding, cosine similarity, and the embedding providers."""

import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontomatch.embedding import (
    SCORE_DECIMALS,
    DeterministicProvider,
    HttpProvider,
    PrecomputedFileProvider,
    cosine_similarity,
    load_vector_file,
    round_score,
    write_vector_file,
)
from ontomatch.errors import (
    ConfigError,
    DimensionMismatch,
    InvalidParameter,
    MalformedRecord,
    MissingVector,
    ProviderUnavailable,
    ZeroVector,
)

from oracles import oracle_cosine, oracle_round
from stubs import RecordingServer, embedding_behavior

finite_scores = st.floats(min_value=-2.0, max_value=2.0,
                          allow_nan=False, allow_infinity=False)


def test_score_decimals_constant():
    assert SCORE_DECIMALS == 5


@pytest.mark.parametrize(
    "raw, expected",
    [
        (0.123455, 0.12346),
        (0.123454, 0.12345),
        (-0.123455, -0.12346),
        (0.999995, 1.0),
        (0.805204, 0.8052),
        (0.805205, 0.80521),
        (0.80521, 0.80521),
        (1e-06, 0.0),
        (0.0, 0.0),
        (-0.0, 0.0),
        (1.0, 1.0),
        (2.5, 2.5),
    ],
)
def test_round_score_half_away_from_zero(raw, expected):
    assert round_score(raw) == expected


def test_round_score_differs_from_bankers_rounding():
    assert round(0.123455, 5) == 0.12345  # banker's / representation rounding
    assert round_score(0.123455) == 0.12346


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_round_score_rejects_non_finite(bad):
    with pytest.raises(InvalidParameter):
        round_score(bad)


@given(finite_scores)
def test_round_score_idempotent_and_close(x):
    once = round_score(x)
    assert round_score(once) == once
    assert abs(once - x) <= 5.000001e-06
    assert once == oracle_round(x)


@given(finite_scores, finite_scores)
def test_round_score_monotone(x, y):
    lo, hi = min(x, y), max(x, y)
    assert round_score(lo) <= round_score(hi)


def test_cosine_similarity_known_value():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([4.0, 5.0, 6.0])
    expected = 32.0 / math.sqrt(14.0 * 77.0)
    assert cosine_similarity(u, v) == pytest.approx(expected, abs=1e-15)
    assert round_score(cosine_similarity(u, v)) == 0.97463
    assert round_score(oracle_cosine(u, v)) == 0.97463


def test_cosine_similarity_bounds_and_errors():
    u = np.array([1.0, 0.0])
    assert cosine_similarity(u, np.array([0.0, 1.0])) == 0.0
    assert cosine_similarity(u, np.array([3.0, 0.0])) == 1.0
    assert cosine_similarity(u, np.array([-2.0, 0.0])) == -1.0
    with pytest.raises(ZeroVector):
        cosine_similarity(u, np.array([0.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        cosine_similarity(u, np.array([1.0, 2.0, 3.0]))


def test_deterministic_provider_repeatable_and_unit_norm():
    first = DeterministicProvider(dim=16, seed=3)
    second = DeterministicProvider(dim=16, seed=3)
    labels = ["alpha", "beta", "gamma"]
    rows_a = first.encode(labels)
    rows_b = second.encode(labels)
    np.testing.assert_array_equal(rows_a, rows_b)
    np.testing.assert_allclose(np.linalg.norm(rows_a, axis=1), 1.0, atol=1e-12)
    different_seed = DeterministicProvider(dim=16, seed=4).encode(labels)
    assert not np.array_equal(rows_a, different_seed)


def test_deterministic_provider_output_order_and_dedup():
    provider = DeterministicProvider(dim=8, seed=0)
    rows = provider.encode(["a", "b", "a"])
    assert rows.shape == (3, 8)
    np.testing.assert_array_equal(rows[0], rows[2])
    assert not np.array_equal(rows[0], rows[1])


def test_deterministic_provider_fixtures_override():
    pinned = np.array([1.0, 0.0, 0.0, 0.0])
    provider = DeterministicProvider(dim=4, seed=0, fixtures={"pinned": pinned})
    rows = provider.encode(["pinned", "free"])
    np.testing.assert_array_equal(rows[0], pinned)
    assert provider.fingerprint != DeterministicProvider(dim=4, seed=0).fingerprint
    assert provider.fingerprint.startswith("deterministic/d4/s0/fx")
    with pytest.raises(DimensionMismatch):
        DeterministicProvider(dim=4, seed=0, fixtures={"bad": np.ones(3)})


def test_deterministic_provider_rejects_bad_dim():
    with pytest.raises(InvalidParameter):
        DeterministicProvider(dim=0)


def test_encode_requires_labels():
    with pytest.raises(InvalidParameter):
        DeterministicProvider(dim=4).encode([])


def test_encode_cache_is_thread_safe():
    provider = DeterministicProvider(dim=12, seed=9)
    labels = [f"label {i}" for i in range(50)]
    expected = DeterministicProvider(dim=12, seed=9).encode(labels)
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: provider.encode(labels), range(16)))
    for rows in results:
        np.testing.assert_array_equal(rows, expected)


def test_vector_file_round_trip_is_exact(tmp_path):
    path = tmp_path / "vectors.tsv"
    vectors = {
        "plain": np.array([0.1, -0.2, 3.0]),
        "tiny": np.array([1e-17, -4.9e-324, 0.0]),
        "ugly": np.array([1 / 3, math.pi, -2.5]),
    }
    write_vector_file(path, vectors)
    loaded = load_vector_file(path)
    assert set(loaded) == set(vectors)
    for label in vectors:
        np.testing.assert_array_equal(loaded[label], vectors[label])


@pytest.mark.parametrize(
    "content",
    [
        "label only no tab\n",
        "a\t1.0,x,3.0\n",
        "a\t1.0,2.0\na\t3.0,4.0\n",
        "a\t1.0,2.0\nb\t1.0\n",
        "a\tnan,1.0\n",
        "\t1.0\n",
        "# nothing\n",
    ],
)
def test_vector_file_malformed_inputs(tmp_path, content):
    path = tmp_path / "bad.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(MalformedRecord):
        load_vector_file(path)


def test_write_vector_file_rejects_tab_in_label(tmp_path):
    with pytest.raises(InvalidParameter):
        write_vector_file(tmp_path / "v.tsv", {"bad\tlabel": np.ones(2)})
    # the reader ends a line at a lone '\r', so 'a\rb' could not load back
    with pytest.raises(InvalidParameter, match="carriage return"):
        write_vector_file(tmp_path / "cr.tsv", {"a\rb": np.ones(2), "c": np.ones(2)})
    assert not (tmp_path / "cr.tsv").exists()
    # a '#' label would load back as a comment line and silently vanish
    with pytest.raises(InvalidParameter, match="comments"):
        write_vector_file(
            tmp_path / "v.tsv", {"#1 gene": np.ones(2), "alpha": np.ones(2)}
        )


def test_precomputed_file_provider(tmp_path):
    path = tmp_path / "vectors.tsv"
    write_vector_file(path, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 2.0])})
    provider = PrecomputedFileProvider(path)
    assert provider.dim == 2
    assert provider.fingerprint.startswith("file/d2/")
    rows = provider.encode(["b", "a"])
    np.testing.assert_array_equal(rows, np.array([[0.0, 2.0], [1.0, 0.0]]))
    with pytest.raises(MissingVector):
        provider.encode(["missing"])
    with pytest.raises(MissingVector, match="'#' lines are comments"):
        provider.encode(["#1 gene"])
    assert PrecomputedFileProvider(path).fingerprint == provider.fingerprint


def test_http_provider_batches_and_caches():
    with RecordingServer(embedding_behavior(dim=6)) as server:
        provider = HttpProvider(server.url, dim=6, batch_size=4,
                                backoff_seconds=0.01)
        labels = [f"l{i:02d}" for i in range(10)]
        rows = provider.encode(labels)
        assert rows.shape == (10, 6)
        assert [len(p["inputs"]) for p in server.payloads] == [4, 4, 2]
        provider.encode(labels)  # fully cached: no new requests
        assert len(server.payloads) == 3


def test_http_provider_retries_transient_failures():
    def behavior(payload, index):
        if index == 0:
            return 503, {"error": "busy"}
        return embedding_behavior(dim=3)(payload, index)

    with RecordingServer(behavior) as server:
        provider = HttpProvider(server.url, dim=3, backoff_seconds=0.01)
        rows = provider.encode(["a", "b"])
        assert rows.shape == (2, 3)
        assert len(server.payloads) == 2


def test_http_provider_gives_up_after_max_retries():
    with RecordingServer(lambda payload, index: (500, {"error": "down"})) as server:
        provider = HttpProvider(server.url, dim=3, max_retries=3,
                                backoff_seconds=0.01)
        with pytest.raises(ProviderUnavailable):
            provider.encode(["a"])
        assert len(server.payloads) == 3


def test_http_provider_client_error_fails_fast():
    with RecordingServer(lambda payload, index: (404, {"error": "no"})) as server:
        provider = HttpProvider(server.url, dim=3, backoff_seconds=0.01)
        with pytest.raises(ProviderUnavailable):
            provider.encode(["a"])
        assert len(server.payloads) == 1


def test_http_provider_validates_row_count_and_dim():
    with RecordingServer(lambda p, i: (200, {"vectors": [[1.0, 0.0, 0.0]]})) as server:
        provider = HttpProvider(server.url, dim=3, backoff_seconds=0.01)
        with pytest.raises(ProviderUnavailable):
            provider.encode(["a", "b"])
    with RecordingServer(embedding_behavior(dim=5)) as server:
        provider = HttpProvider(server.url, dim=3, backoff_seconds=0.01)
        with pytest.raises(DimensionMismatch):
            provider.encode(["a"])


def test_http_provider_rejects_non_finite_vectors():
    nan_row = [float("nan"), 0.0]
    with RecordingServer(lambda p, i: (200, {"vectors": [nan_row]})) as server:
        provider = HttpProvider(server.url, dim=2, backoff_seconds=0.01)
        with pytest.raises(ProviderUnavailable):
            provider.encode(["a"])


def test_http_provider_dead_endpoint():
    provider = HttpProvider("http://127.0.0.1:1/v1", dim=3,
                            max_retries=2, backoff_seconds=0.01, timeout=0.5)
    with pytest.raises(ProviderUnavailable):
        provider.encode(["a"])


def test_http_provider_sends_bearer_token(monkeypatch):
    monkeypatch.setenv("EMB_TOKEN", "sekret")
    with RecordingServer(embedding_behavior(dim=2)) as server:
        provider = HttpProvider(server.url, dim=2, token_env="EMB_TOKEN",
                                backoff_seconds=0.01)
        provider.encode(["a"])
        assert server.auth_headers == ["Bearer sekret"]


def test_http_provider_missing_token_env(monkeypatch):
    monkeypatch.delenv("EMB_TOKEN", raising=False)
    with pytest.raises(ConfigError):
        HttpProvider("http://127.0.0.1:9/v1", dim=2, token_env="EMB_TOKEN")


def test_disease_vectors_reproduce_designed_similarities(disease_pipeline):
    provider = disease_pipeline["provider"]

    def sim(a, b):
        rows = provider.encode([a, b])
        return round_score(cosine_similarity(rows[0], rows[1]))

    assert sim("clear cell sarcoma of soft tissue", "clear cell sarcoma") == 0.80521
    assert sim("clear cell sarcoma - not kidney",
               "childhood kidney clear cell sarcoma") == 0.95621
    assert sim("clear cell sarcoma - not kidney",
               "kidney clear cell sarcoma") == 0.94
    assert sim("clear cell sarcoma of soft tissue",
               "childhood kidney clear cell sarcoma") == 0.0
    assert sim("clear cell sarcoma - not kidney", "CCSK") < 0.75
