"""Score rounding and the embedding providers."""

import concurrent.futures
import hashlib
import math
import re
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomatch import embedding
from ontomatch.embedding import (
    SCORE_DECIMALS,
    DeterministicProvider,
    HttpProvider,
    PrecomputedFileProvider,
    load_vector_file,
    round_scores,
    round_window,
    seed_words,
    write_vector_file,
)
from ontomatch.errors import (
    ConfigError,
    DimensionMismatch,
    InvalidParameter,
    MalformedRecord,
    MissingVector,
    ProviderUnavailable,
)

from oracles import (
    oracle_cosine,
    oracle_hash_vector,
    oracle_load_vector_file,
    oracle_round,
    oracle_vector_fingerprint,
)
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
    assert round_scores([raw])[0] == expected


def test_round_score_differs_from_bankers_rounding():
    assert round(0.123455, 5) == 0.12345  # banker's / representation rounding
    assert round_scores([0.123455])[0] == 0.12346


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_round_score_rejects_non_finite(bad):
    with pytest.raises(InvalidParameter):
        round_scores([bad])


@given(finite_scores)
def test_round_score_idempotent_and_close(x):
    once = round_scores([x])[0]
    assert round_scores([once])[0] == once
    assert abs(once - x) <= 5.000001e-06
    assert once == oracle_round(x)


@given(finite_scores, finite_scores)
def test_round_score_monotone(x, y):
    lo, hi = min(x, y), max(x, y)
    assert round_scores([lo])[0] <= round_scores([hi])[0]


def _half_and_neighbours(m: int) -> list[float]:
    """(m + 0.5) / 1e5, a tie for 5-decimal rounding, and the floats on
    either side of it."""
    half = (m + 0.5) / 1e5
    return [half, float(np.nextafter(half, np.inf)), float(np.nextafter(half, -np.inf))]


edge_scores = (
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    | st.integers(min_value=-100000, max_value=99999).flatmap(
        lambda m: st.sampled_from(_half_and_neighbours(m))
    )
    | st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, -2e-308])
)


def _bits(values) -> list[int]:
    # bit patterns, so that the sign of a zero counts too
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@given(st.lists(edge_scores, min_size=1, max_size=40))
def test_round_scores_equal_the_oracle_element_for_element(values):
    assert _bits(round_scores(np.array(values))) == _bits(
        [oracle_round(x) for x in values]
    )


def test_round_scores_equal_the_oracle_on_ties_and_their_neighbours():
    rng = np.random.default_rng(5)
    values = np.concatenate([
        rng.uniform(-1.0, 1.0, 20000),
        [x for m in range(-100000, 100000, 13) for x in _half_and_neighbours(m)],
    ])
    assert _bits(round_scores(values)) == _bits([oracle_round(x) for x in values])


@given(edge_scores)
def test_round_window_covers_the_float_error_of_the_scaled_value(x):
    # |x| * 1e5 in float64 against 1e5 times the decimal repr(x) spells,
    # which is what the Decimal rule rounds
    scaled = np.abs(np.float64(x)) * 1e5
    exact = abs(Fraction(Decimal(repr(x)))) * 100000
    window = round_window(np.array([scaled]))[0]
    assert abs(Fraction(float(scaled)) - exact) <= Fraction(float(window))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_round_scores_rejects_non_finite(bad):
    with pytest.raises(InvalidParameter):
        round_scores(np.array([0.5, bad]))


def test_cosine_similarity_known_value():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([4.0, 5.0, 6.0])
    expected = 32.0 / math.sqrt(14.0 * 77.0)
    assert oracle_cosine(u, v) == pytest.approx(expected, abs=1e-15)
    assert round_scores([oracle_cosine(u, v)])[0] == 0.97463


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


# sha256 of encode(PINNED_LABELS).tobytes(), one default_rng per label
PINNED_LABELS = ["heart", "heart attack", "Myocardial infarction", "",
                 "\u00df-Zelle", "\u65e5\u672c\u8a9e", "a" * 100, "heart"]


@pytest.mark.parametrize("dim, seed, digest", [
    (64, 0, "6931450aefa833021b3e7a87fd6a64173723eea222dc0fef21b72ebeee860e08"),
    (3, 7, "e50c0b569878bf93d0009f3c9636c60c295d3fb7b5f811db143cbb7e66a8b752"),
])
def test_deterministic_rows_are_pinned(dim, seed, digest):
    rows = DeterministicProvider(dim=dim, seed=seed).encode(PINNED_LABELS)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("dim", [1, 3, 64, 402])
def test_deterministic_rows_equal_the_oracle_at_bench_widths(dim):
    rows = DeterministicProvider(dim=dim, seed=5).encode(PINNED_LABELS)
    expected = np.stack([oracle_hash_vector(l, dim, 5) for l in PINNED_LABELS])
    assert rows.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=70),
    seed=st.one_of(
        st.sampled_from([-1, 0, 2**32, 2**64, -(2**64)]),
        st.integers(min_value=-(2**70), max_value=2**70),
    ),
    distinct=st.lists(st.text(max_size=12), min_size=1, max_size=10, unique=True),
    data=st.data(),
)
def test_deterministic_rows_equal_the_oracle(dim, seed, distinct, data):
    labels = distinct + data.draw(st.lists(st.sampled_from(distinct), max_size=6))
    rows = DeterministicProvider(dim=dim, seed=seed).encode(labels)
    expected = np.stack([oracle_hash_vector(label, dim, seed) for label in labels])
    assert rows.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=20))
def test_seed_words_equal_seed_sequence_state(seeds):
    seeds += [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    words = seed_words(np.array(seeds, dtype=np.uint64))
    expected = np.stack([
        np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds
    ])
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    assert words.tobytes() == expected.tobytes()


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


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.text(max_size=8), min_size=1, max_size=20, unique=True),
    dim=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
def test_a_fresh_encode_is_read_only_and_equals_a_cached_encode(labels, dim, data):
    provider = DeterministicProvider(dim=dim, seed=2)
    fresh = provider.encode(labels)
    assert not fresh.flags.writeable
    with pytest.raises(ValueError):
        fresh[0, 0] = 1.0
    assert provider.encode(labels).tobytes() == fresh.tobytes()
    picks = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(labels) - 1), min_size=1, max_size=30,
    ))
    cached = provider.encode([labels[i] for i in picks])
    assert cached.tobytes() == fresh[picks].tobytes()


def test_vector_file_round_trip_is_exact(tmp_path):
    path = tmp_path / "vectors.tsv"
    vectors = {
        "plain": np.array([0.1, -0.2, 3.0]),
        "tiny": np.array([1e-17, -4.9e-324, 0.0]),
        "ugly": np.array([1 / 3, math.pi, -2.5]),
    }
    write_vector_file(path, vectors)
    loaded, _ = load_vector_file(path)
    assert set(loaded) == set(vectors)
    for label in vectors:
        np.testing.assert_array_equal(loaded[label], vectors[label])


# Each malformed vector file and the message, after its path, that names it.
VECTOR_FILE_ERRORS = {
    "label only no tab\n": ":1: expected 2 tab-separated fields, got 1",
    "a\t1.0,x,3.0\n": ":1: bad float: could not convert string to float: 'x'",
    # the first bad token of the row is the one named
    "a\t1.0,x,3.0,y\n": ":1: bad float: could not convert string to float: 'x'",
    "b\t1.0\na\t1.0,,2\n": ":2: bad float: could not convert string to float: ''",
    "a\t\n": ":1: bad float: could not convert string to float: ''",
    "a\t1.0,2.0\na\t3.0,4.0\n": ":2: duplicate label 'a'",
    "a\t1.0,2.0\nb\t1.0\n": ":2: dimension 1 != first row's 2",
    "a\tnan,1.0\n": ":1: non-finite vector component",
    "a\t1.0,-inf\n": ":1: non-finite vector component",
    "\t1.0\n": ":1: empty label",
    "# nothing\n": ":0: no vector rows",
    "a\t0.0,0.0,x\n": ":1: bad float: could not convert string to float: 'x'",
    # the earlier faulty row is named, whatever kinds of fault the two hold
    "a\t1.0,2.0\nb\t1.0\nc\tx,1.0\n": ":2: dimension 1 != first row's 2",
    "a\t1.0,2.0\nb\tnan,1.0\n\t1.0,x\n": ":2: non-finite vector component",
    # a faulty row read before a line the reader rejects
    "a\t1.0\nb\tx\nno tab\n": ":2: bad float: could not convert string to float: 'x'",
}

# A fault after more than two blocks of clean rows that are all '0.0'.
_ZERO_ROWS = 2 * embedding._BLOCK_TOKENS // 100 + 3
VECTOR_FILE_ERRORS["".join(
    f"r{i:05d}\t" + ",".join(["0.0"] * 100) + "\n" for i in range(_ZERO_ROWS)
) + "s\t" + ",".join(["0.0"] * 99 + ["inf"]) + "\n"] = (
    f":{_ZERO_ROWS + 1}: non-finite vector component"
)


def _short_id(content):
    """None (pytest's own id) for a short file, a summary for a long one."""
    return None if len(content) < 100 else f"{content.count(chr(10))}-line file"


@pytest.mark.parametrize("content", list(VECTOR_FILE_ERRORS), ids=_short_id)
def test_vector_file_malformed_inputs(tmp_path, content):
    path = tmp_path / "bad.tsv"
    path.write_text(content, encoding="utf-8")
    message = re.escape("bad.tsv" + VECTOR_FILE_ERRORS[content])
    with pytest.raises(MalformedRecord, match=message):
        load_vector_file(path)


# Unsorted rows, and tokens that are not their value's repr: a leading space,
# a sign, an underscore, an exponent, surplus digits, '-0'. The fingerprint
# is the start of the sha256 of these bytes.
PINNED_VECTOR_FILE = (
    "# c\n"
    "b\t1,1e0,0.50,-0, 2.5,+1.0,1_0,1.0000000000000001,5e-324,-0.0\n"
    "a\t0.1,0.2,0.30000000000000004,1E5,.5,1e16,1e-5,0.0001,"
    "100000000000000000,0.1\n"
)


def test_vector_file_fingerprint_is_pinned(tmp_path):
    path = tmp_path / "pinned.tsv"
    path.write_text(PINNED_VECTOR_FILE, encoding="utf-8")
    provider = PrecomputedFileProvider(path)
    assert provider.fingerprint == "file/d10/210b464a"
    assert provider.fingerprint == oracle_vector_fingerprint(path)
    loaded, _ = load_vector_file(path)
    for line in PINNED_VECTOR_FILE.splitlines()[1:]:
        label, payload = line.split("\t")
        expected = np.array([float(token) for token in payload.split(",")])
        assert loaded[label].tobytes() == expected.tobytes()


# Components where repr is at its edges: signed zero, subnormals, and both
# sides of 1e-4 and 1e16, where repr switches to exponent notation.
EDGE_COMPONENTS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e-05, 9.999999999999999e-06, 0.0001, 0.00010000000000000002,
    1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16, 0.1, 1.0, -2.5,
]


@st.composite
def vector_rows(draw):
    dim = draw(st.integers(1, 8))
    labels = draw(st.lists(
        st.text(alphabet="ab é_Z1-", min_size=1, max_size=5),
        min_size=1, max_size=6, unique=True,
    ))
    component = st.one_of(
        st.sampled_from(EDGE_COMPONENTS),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    rows = {}
    for label in labels:
        # a small palette per row, so components repeat within it
        palette = draw(st.lists(component, min_size=1, max_size=3))
        rows[label] = draw(st.lists(
            st.sampled_from(palette), min_size=dim, max_size=dim
        ))
    return rows


@settings(deadline=None, max_examples=150)
@given(rows=vector_rows(), data=st.data())
def test_vector_file_digest_matches_the_oracle(tmp_path_factory, rows, data):
    """Sorted and unsorted files give the oracle's fingerprint and the exact
    rows, whether each component is written as its repr or with 17
    significant digits."""
    directory = tmp_path_factory.mktemp("vectors")
    spell = {
        label: data.draw(st.lists(st.booleans(), min_size=len(row),
                                  max_size=len(row)))
        for label, row in rows.items()
    }

    def write(name, order):
        lines = [
            label + "\t" + ",".join(
                f"{x:.17e}" if odd else repr(x)
                for x, odd in zip(rows[label], spell[label])
            )
            for label in order
        ]
        path = directory / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    written = directory / "written.tsv"
    write_vector_file(written, {label: np.array(row) for label, row in rows.items()})
    paths = [
        written,
        write("sorted.tsv", sorted(rows)),
        write("shuffled.tsv", data.draw(st.permutations(list(rows)))),
    ]
    for path in paths:
        loaded, _ = load_vector_file(path)
        assert set(loaded) == set(rows)
        for label, row in rows.items():
            assert loaded[label].tobytes() == np.array(row).tobytes()
        assert PrecomputedFileProvider(path).fingerprint == (
            oracle_vector_fingerprint(path)
        )


# Zero spelled otherwise than repr(0.0), and tokens float() accepts that are
# not their value's repr.
ZERO_SPELLINGS = [" 0.0", "0.00", "-0.0", "0", "0e0", "+0.0", "0.0 "]
ODD_TOKENS = ["1_0", "\u0661", " 2.5", "+1.0", "1E5", "5e-324"]
VECTOR_FAULTS = ["empty label", "duplicate label", "bad token", "non-finite",
                 "dimension", "field count"]


@st.composite
def vector_files(draw):
    """A vector file's text: zero-heavy and all-distinct rows, labels in
    order or shuffled, and up to two faults at random rows."""
    dim = draw(st.integers(1, 10))
    labels = draw(st.lists(
        st.text(alphabet="ab é_Z1-", min_size=1, max_size=5),
        max_size=25, unique=True,
    ))
    labels = sorted(labels) if draw(st.booleans()) else draw(st.permutations(labels))
    zero_heavy = st.sampled_from(["0.0"] * 12 + ZERO_SPELLINGS + ODD_TOKENS)
    component = st.one_of(
        st.sampled_from(EDGE_COMPONENTS),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    rows = []
    for label in labels:
        if draw(st.booleans()):
            tokens = draw(st.lists(zero_heavy, min_size=dim, max_size=dim))
        else:
            tokens = [
                draw(st.sampled_from([repr(x), f"{x:.16e}", f"{x:.17g}"]))
                for x in draw(st.lists(component, min_size=dim, max_size=dim))
            ]
        rows.append([label, tokens])
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        tokens = row[1]
        where = draw(st.integers(0, len(tokens) - 1))
        fault = draw(st.sampled_from(VECTOR_FAULTS))
        if fault == "empty label":
            row[0] = ""
        elif fault == "duplicate label":
            row[0] = draw(st.sampled_from(rows))[0]
        elif fault == "bad token":
            tokens[where] = draw(st.sampled_from(["", "x", "0.0.0", "0. 0"]))
        elif fault == "non-finite":
            tokens[where] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
        elif fault == "dimension":
            if len(tokens) > 1 and draw(st.booleans()):
                del tokens[where]
            else:
                tokens.insert(where, "0.0")
        else:
            row[0] += "\tx"
    lines = ["# label\tcomponents"] + [
        f"{label}\t{','.join(tokens)}" for label, tokens in rows
    ]
    return "\n".join(lines) + "\n"


def _parse_outcome(load, path):
    """The rows as bytes and the digest, or the MalformedRecord text."""
    try:
        rows, digest = load(path)
    except MalformedRecord as exc:
        return str(exc)
    return {label: row.tobytes() for label, row in rows.items()}, digest


@settings(deadline=None, max_examples=200)
@given(text=vector_files(),
       block=st.sampled_from([1, 2, 7, 40, embedding._BLOCK_TOKENS]))
def test_vector_file_parse_matches_the_oracle(tmp_path_factory, text, block):
    """Rows, digest and error text equal the row-by-row parser's, at block
    sizes from one token (every row a block) to the module's own."""
    path = tmp_path_factory.mktemp("vectors") / "v.tsv"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(embedding, "_BLOCK_TOKENS", block):
        outcome = _parse_outcome(load_vector_file, path)
    assert outcome == _parse_outcome(oracle_load_vector_file, path)


@pytest.mark.parametrize("row, reason", [
    ("\tnan,x", "empty label"),
    ("a\tx,1.0,2.0", "duplicate label 'a'"),
    ("b\tnan,x", "bad float: could not convert string to float: 'x'"),
    ("b\tx,1.0,2.0", "bad float: could not convert string to float: 'x'"),
    ("b\tnan,1.0,2.0", "non-finite vector component"),
])
def test_a_row_with_two_faults_reports_the_first_in_check_order(tmp_path, row, reason):
    # empty label, duplicate, bad token, non-finite, dimension: the
    # row-by-row parser meets them in that order
    path = tmp_path / "v.tsv"
    path.write_text(f"a\t1.0,2.0\n{row}\n", encoding="utf-8")
    expected = f"{path}:2: {reason}"
    assert _parse_outcome(load_vector_file, path) == expected
    assert _parse_outcome(oracle_load_vector_file, path) == expected


@pytest.mark.parametrize("order", ["sorted", "reversed"])
def test_vector_file_of_several_blocks_matches_the_oracle(tmp_path, order):
    rng = np.random.default_rng(7)
    shape = (400, 120)
    rows = np.where(rng.random(shape) < 0.05, rng.standard_normal(shape), 0.0)
    labels = [f"label {i:03d}" for i in range(len(rows))]
    if order == "reversed":
        labels.reverse()
    path = tmp_path / "v.tsv"
    path.write_text("".join(
        f"{label}\t{','.join(map(repr, row.tolist()))}\n"
        for label, row in zip(labels, rows)
    ), encoding="utf-8")
    assert rows.size > 2 * embedding._BLOCK_TOKENS
    outcome = _parse_outcome(load_vector_file, path)
    assert outcome == _parse_outcome(oracle_load_vector_file, path)


def test_a_reordered_vector_file_has_the_same_rows_and_another_digest(tmp_path):
    rng = np.random.default_rng(3)
    shape = (400, 100)
    rows = np.where(rng.random(shape) < 0.1, rng.standard_normal(shape), 0.0)
    lines = [f"l{i:03d}\t{','.join(map(repr, row.tolist()))}\n"
             for i, row in enumerate(rows)]
    sorted_path, shuffled_path = tmp_path / "sorted.tsv", tmp_path / "shuffled.tsv"
    sorted_path.write_text("".join(lines), encoding="utf-8")
    shuffled_path.write_text("".join(rng.permutation(lines)), encoding="utf-8")
    assert rows.size > 2 * embedding._BLOCK_TOKENS
    vectors, digest = load_vector_file(sorted_path)
    shuffled, shuffled_digest = load_vector_file(shuffled_path)
    assert {k: v.tobytes() for k, v in shuffled.items()} == {
        k: v.tobytes() for k, v in vectors.items()
    }
    # the fingerprint names the bytes, so a reordered file needs a new KB
    assert shuffled_digest != digest
    assert (PrecomputedFileProvider(shuffled_path).fingerprint
            == oracle_vector_fingerprint(shuffled_path))


@pytest.mark.parametrize("text", [
    "# c\nb\t1.0,2\r\na\t0.0,-0.5\r\n",
    "a\t1.0\rb\t2.0\n\n# end",
    "é\t" + ",".join(["0.0"] * 5000) + "\n",
], ids=["crlf", "lone-cr", "one-long-row"])
def test_the_parse_hashes_the_raw_bytes_it_reads(tmp_path, text):
    path = tmp_path / "v.tsv"
    path.write_bytes(text.encode("utf-8"))
    _, digest = load_vector_file(path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_the_file_provider_parses_at_first_use(tmp_path, monkeypatch):
    path = tmp_path / "v.tsv"
    provider = PrecomputedFileProvider(str(path))  # the file need not exist yet
    with pytest.raises(ConfigError, match="cannot read"):
        provider.fingerprint
    write_vector_file(path, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 2.0])})
    parses = []
    monkeypatch.setattr(embedding, "load_vector_file",
                        lambda *args: parses.append(1) or load_vector_file(*args))
    provider = PrecomputedFileProvider(str(path))
    assert parses == []
    np.testing.assert_array_equal(provider.encode(["b"]), [[0.0, 2.0]])
    assert (provider.dim, parses) == (2, [1])
    provider.encode(["a"])
    assert provider.fingerprint == oracle_vector_fingerprint(path)
    assert parses == [1]


@st.composite
def spelled_vector_files(draw):
    """A well-formed vector file's bytes: rows sorted or shuffled, LF or
    CRLF line ends, comment and blank lines, tokens spelled otherwise than
    their value's repr."""
    dim = draw(st.integers(1, 6))
    labels = draw(st.lists(
        st.text(alphabet="ab é_Z1-", min_size=1, max_size=5),
        min_size=1, max_size=8, unique=True,
    ))
    labels = sorted(labels) if draw(st.booleans()) else draw(st.permutations(labels))
    component = st.one_of(
        st.sampled_from(EDGE_COMPONENTS),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    lines = []
    for label in labels:
        lines += draw(st.lists(st.sampled_from(["# c", "", "  ", " # x\ty"]),
                               max_size=2))
        tokens = [
            draw(st.sampled_from([repr(x), f"{x:.17e}", f"{x:.17g}"]))
            for x in draw(st.lists(component, min_size=dim, max_size=dim))
        ]
        for where in draw(st.lists(st.integers(0, dim - 1), max_size=2)):
            tokens[where] = draw(st.sampled_from(ZERO_SPELLINGS + ODD_TOKENS))
        lines.append(f"{label}\t{','.join(tokens)}")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    tail = end if draw(st.booleans()) else ""
    return (end.join(lines) + tail).encode("utf-8")


@settings(deadline=None, max_examples=100)
@given(data=spelled_vector_files())
def test_the_file_fingerprint_is_the_sha256_of_the_bytes(tmp_path_factory, data):
    """Read before any parse, the fingerprint hashes the file and never
    parses it; after encode it comes from the parse. Both are the raw-bytes
    rule."""
    path = tmp_path_factory.mktemp("vectors") / "v.tsv"
    path.write_bytes(data)

    def refuse(*args):
        raise AssertionError("the fingerprint parsed the vector file")

    with mock.patch.object(embedding, "load_vector_file", refuse):
        unparsed = PrecomputedFileProvider(str(path))
        hashed = (unparsed.fingerprint, unparsed.dim)
    rows, _ = load_vector_file(path)
    parsed = PrecomputedFileProvider(str(path))
    parsed.encode(list(rows))
    dim = next(iter(rows.values())).size
    expected = f"file/d{dim}/{hashlib.sha256(path.read_bytes()).hexdigest()[:8]}"
    assert hashed == (parsed.fingerprint, parsed.dim) == (expected, dim)
    assert expected == oracle_vector_fingerprint(path)


@pytest.mark.parametrize("vectors", [
    pytest.param({}, id="no-rows"),
    pytest.param({"": np.ones(2)}, id="empty-label"),
    pytest.param({"a": np.ones(2), "b": np.ones(1)}, id="mixed-widths"),
    pytest.param({"a": np.array([1.0, math.nan])}, id="nan"),
    pytest.param({"a": np.array([math.inf, 1.0])}, id="inf"),
    pytest.param({"a": np.ones(2), "b": np.array([])}, id="empty-row"),
    pytest.param({"a": np.ones((2, 2))}, id="two-dimensional"),
    pytest.param({"a": np.float64(1.0)}, id="scalar"),
])
def test_write_vector_file_rejects_what_cannot_load_back(tmp_path, vectors):
    path = tmp_path / "v.tsv"
    with pytest.raises(InvalidParameter):
        write_vector_file(path, vectors)
    assert not path.exists()


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
    # one batch per label, and the second reply is one component short
    with RecordingServer(lambda p, i: embedding_behavior(dim=3 - i)(p, i)) as server:
        provider = HttpProvider(server.url, dim=3, batch_size=1, backoff_seconds=0.01)
        with pytest.raises(DimensionMismatch):
            provider.encode(["a", "b"])


@pytest.mark.parametrize(
    "vectors, labels",
    [
        pytest.param(5, ["a"], id="not-a-list"),
        pytest.param([[1.0, 2.0], [1.0]], ["a", "b"], id="ragged-rows"),
        pytest.param([["a", "b"]], ["a"], id="strings"),
    ],
)
def test_http_provider_rejects_malformed_vectors(vectors, labels):
    with RecordingServer(lambda p, i: (200, {"vectors": vectors})) as server:
        provider = HttpProvider(server.url, dim=2, backoff_seconds=0.01)
        with pytest.raises(
            ProviderUnavailable,
            match="embedding service returned an unusable payload: ",
        ):
            provider.encode(labels)
        assert len(server.payloads) == 1


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
        return round_scores([oracle_cosine(rows[0], rows[1])])[0]

    assert sim("clear cell sarcoma of soft tissue", "clear cell sarcoma") == 0.80521
    assert sim("clear cell sarcoma - not kidney",
               "childhood kidney clear cell sarcoma") == 0.95621
    assert sim("clear cell sarcoma - not kidney",
               "kidney clear cell sarcoma") == 0.94
    assert sim("clear cell sarcoma of soft tissue",
               "childhood kidney clear cell sarcoma") == 0.0
    assert sim("clear cell sarcoma - not kidney", "CCSK") < 0.75
