"""Vector KBs, top-k label retrieval, and candidate databases.

Label-level retrieval is checked through build_candidate_dbs: with one label
per entity and entity ids that sort like labels, an entity's candidate list
is its label's hit list.
"""

import gc
import math
import os
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontomatch import retrieval
from ontomatch.embedding import (
    DeterministicProvider,
    PrecomputedFileProvider,
    write_vector_file,
)
from ontomatch.errors import (
    DimensionMismatch,
    InvalidParameter,
    MalformedRecord,
    StaleKB,
    UnknownEntity,
    ZeroVector,
)
from ontomatch.matcher import Alignment, Correspondence, read_alignment, write_alignment
from ontomatch.ontology import load_ontology
from ontomatch.retrieval import (
    DIRECTION_S2T,
    _BLOCK_ELEMENTS,
    _row_dots,
    _row_norms,
    _row_survivors,
    VectorKB,
    build_candidate_dbs,
    build_kb,
    f32_dot_error,
    load_candidate_db,
    load_kb,
    save_candidate_db,
    save_kb,
)
from ontomatch.synth import generate_corpus

from conftest import make_db, make_ontology, disease_vector_table
from stubs import PinnedProvider
from oracles import (
    oracle_direction_lists,
    oracle_entity_candidates,
    oracle_row_survivors,
    oracle_top_k_labels,
)

TAU = 0.75
CHUNKS = (1, 3, 128)


def fixture_provider(vectors, dim):
    return PinnedProvider(vectors, dim=dim)


def hit_lists(provider, source_labels, target_labels, k, tau, chunk):
    """Each label's hits [(label, score), ...] on the other side, as
    (source labels' hits, target labels' hits): the s2t and t2s DBs of one
    build_candidate_dbs call over one-label entities with id "E:" + label.
    """
    source = make_ontology("S", {f"E:{label}": [label] for label in source_labels})
    target = make_ontology("T", {f"E:{label}": [label] for label in target_labels})
    dbs = build_candidate_dbs(
        source, target, build_kb(source, provider), build_kb(target, provider),
        k=k, tau=tau, chunk=chunk,
    )
    return tuple(
        {
            owner[2:]: [(entity_id[2:], score) for entity_id, score in lst.candidates]
            for owner, lst in db.lists.items()
        }
        for db in dbs
    )


def query_hits(provider, query, corpus_labels, k, tau):
    """One query label's hits from the row cut and from the column cut, at
    each chunk size.

    Hashed decoy labels fill the query side up to the corpus size. The
    blocked pass walks its source side in row blocks when the sides are the
    same size, so the query side as source takes the row cut and as target
    the column cut.
    """
    padded = [query] + [f"decoy {i}" for i in range(1, len(corpus_labels))]
    results = []
    for chunk in CHUNKS:
        rows, _ = hit_lists(provider, padded, corpus_labels, k, tau, chunk)
        _, columns = hit_lists(provider, corpus_labels, padded, k, tau, chunk)
        results += [rows[query], columns[query]]
    return results


def every_cut(hits):
    """What query_hits returns when both cuts at every chunk size agree."""
    return [hits] * (2 * len(CHUNKS))


def test_build_kb_sorts_labels_and_holds_a_shared_label_once():
    onto = make_ontology(
        "X",
        {"E:2": ["beta", "shared"], "E:1": ["alpha", "shared"]},
    )
    kb = build_kb(onto, DeterministicProvider(dim=8, seed=0))
    assert kb.labels == ["alpha", "beta", "shared"]
    assert kb.label_to_row == {"alpha": 0, "beta": 1, "shared": 2}
    assert len(kb) == 3
    assert kb.dim == 8


def test_vector_kb_validation():
    with pytest.raises(ZeroVector):
        VectorKB("X", ["a"], np.zeros((1, 3)), "fp")
    with pytest.raises(InvalidParameter):
        VectorKB("X", ["a", "a"], np.ones((2, 3)), "fp")
    with pytest.raises(DimensionMismatch):
        VectorKB("X", ["a", "b"], np.ones((1, 3)), "fp")


def test_kb_save_load_round_trip(tmp_path):
    onto = make_ontology("X", {"E:1": ["alpha", "shared"], "E:2": ["shared"]})
    kb = build_kb(onto, DeterministicProvider(dim=6, seed=5))
    path = tmp_path / "x.kb"
    save_kb(kb, path)
    loaded = load_kb(path)
    assert loaded.ontology_name == "X"
    assert loaded.labels == kb.labels
    assert loaded.fingerprint == kb.fingerprint
    np.testing.assert_array_equal(loaded.matrix, kb.matrix)

    loaded_checked = load_kb(path, expected_fingerprint=kb.fingerprint)
    assert loaded_checked.labels == kb.labels
    with pytest.raises(StaleKB):
        load_kb(path, expected_fingerprint="other/fp")


def kb_bytes(dim="2", rows="1", index="a\n", values=(1.0, 0.0)):
    """A KB file's bytes in the save_kb layout, with parts overridable."""
    head = (
        f"# vector-kb X\n# dim {dim}\n# provider fp\n# rows {rows}\n{index}"
    )
    return head.encode("utf-8") + np.asarray(values, dtype="<f8").tobytes()


def test_kb_bytes_helper_builds_a_loadable_kb(tmp_path):
    path = tmp_path / "ok.kb"
    path.write_bytes(kb_bytes())
    kb = load_kb(path)
    assert kb.labels == ["a"]
    assert kb.matrix.tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(
            b"a\n" + np.array([1.0, 0.0]).tobytes(), id="no-headers"
        ),
        pytest.param(kb_bytes(dim="two"), id="dim-not-integer"),
        pytest.param(kb_bytes(rows="0", index="", values=()), id="zero-rows"),
        pytest.param(kb_bytes(rows="2"), id="index-shorter-than-rows"),
        pytest.param(kb_bytes(values=(1.0,)), id="matrix-truncated"),
        pytest.param(kb_bytes(values=(1.0, 0.0, 0.0)), id="matrix-oversized"),
        pytest.param(kb_bytes(values=(1.0, float("nan"))), id="matrix-not-finite"),
    ],
)
def test_kb_load_malformed(tmp_path, content):
    path = tmp_path / "bad.kb"
    path.write_bytes(content)
    with pytest.raises(MalformedRecord):
        load_kb(path)


@pytest.mark.parametrize("content, line_no, reason", [
    (kb_bytes(rows="2", values=(1.0, 0.0) * 2), 6, "index ends after 1 of 2 lines"),
    # the one index line ends, but not where the matrix starts
    (kb_bytes(index="a\nX"), 6, "matrix block has 17 bytes, expected 16"),
    (kb_bytes(values=(1.0,)), 6, "matrix block has 8 bytes, expected 16"),
    (kb_bytes(values=(float("inf"), 0.0)), 5,
     "label 'a' has a non-finite vector value"),
    (kb_bytes(rows="2", index="a\na\n", values=(1.0, 0.0) * 2), 6,
     "label 'a' repeats line 5"),
    (kb_bytes().replace(b"a\n", b"\xff\n"), 5, "bad index text: 'utf-8' codec "
     "can't decode byte 0xff in position 0: invalid start byte"),
])
def test_kb_load_names_the_line_and_the_fault(tmp_path, content, line_no, reason):
    path = tmp_path / "bad.kb"
    path.write_bytes(content)
    with pytest.raises(MalformedRecord) as caught:
        load_kb(path)
    assert (caught.value.line_no, caught.value.reason) == (line_no, reason)


# Header values hold no line break; the files are UTF-8, so no surrogates.
header_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    max_size=8,
)
HEADER_FAULTS = ("delete", "move-down", "key", "not-utf8", "value")


def break_header_line(data, n_lines, index, fault, bad_values):
    """(data with its header line index (0-based) of n_lines broken by
    fault, the start of the reason a load gives). "value" writes
    bad_values[index], or garbles the key if the line takes any value."""
    lines = data.split(b"\n", n_lines)
    key, value = lines[index][2:].split(b" ", 1)
    if fault == "value" and index not in bad_values:
        fault = "key"
    if fault == "delete":
        del lines[index]
    elif fault == "move-down":
        lines[index], lines[index + 1] = lines[index + 1], lines[index]
    elif fault == "key":
        lines[index] = b"# " + key + b"x " + value
    else:
        bad = b"\xff" + value if fault == "not-utf8" else bad_values[index]
        lines[index] = b"# " + key + b" " + bad
    reason = {
        "not-utf8": "bad header: ",
        "value": f"bad {key.decode()} header {bad_values.get(index, b'').decode()!r}",
    }.get(fault, f"missing header '# {key.decode()} ...'")
    return b"\n".join(lines), reason


@settings(deadline=None, max_examples=150)
@given(
    name=header_text, fingerprint=header_text, dim=st.integers(1, 6),
    rows=st.integers(1, 5), index=st.integers(0, 3),
    fault=st.sampled_from(HEADER_FAULTS),
)
def test_kb_header_round_trips_and_faults_at_its_line(
    tmp_path_factory, name, fingerprint, dim, rows, index, fault
):
    kb = VectorKB(
        name, [f"l{i}" for i in range(rows)],
        np.arange(1.0, rows * dim + 1.0).reshape(rows, dim), fingerprint,
    )
    path = tmp_path_factory.mktemp("kb") / "x.kb"
    save_kb(kb, path)
    data = path.read_bytes()
    loaded = load_kb(path)
    assert (loaded.ontology_name, loaded.dim, loaded.fingerprint, len(loaded)) == (
        name, dim, fingerprint, rows
    )
    save_kb(loaded, path)
    assert path.read_bytes() == data

    broken, reason = break_header_line(data, 4, index, fault, {1: b"0", 3: b"-1"})
    path.write_bytes(broken)
    with pytest.raises(MalformedRecord) as caught:
        load_kb(path)
    assert caught.value.line_no == index + 1
    assert caught.value.reason.startswith(reason)


def test_kb_keeps_labels_that_start_with_hash(tmp_path):
    dump = tmp_path / "x.tsv"
    dump.write_text("E:1\talpha\t#1 gene|  # spaced\nE:2\tbeta\n", encoding="utf-8")
    kb = build_kb(load_ontology(dump, name="X"), DeterministicProvider(dim=4))
    assert kb.labels == ["# spaced", "#1 gene", "alpha", "beta"]
    save_kb(kb, tmp_path / "x.kb")
    loaded = load_kb(tmp_path / "x.kb")
    assert loaded.labels == kb.labels
    assert loaded.matrix.tobytes() == kb.matrix.tobytes()


def test_save_kb_rejects_a_newline_in_a_label(tmp_path):
    path = tmp_path / "x.kb"
    kb = VectorKB("X", ["b", "new\nline"], np.ones((2, 2)), "fp")
    with pytest.raises(InvalidParameter, match=r"label 'new\\nline' cannot contain"):
        save_kb(kb, path)
    assert not path.exists()


@pytest.mark.parametrize("label", ["tab\tinside", "carriage\rreturn"])
def test_save_kb_keeps_a_tab_or_carriage_return_in_a_label(tmp_path, label):
    # an index line is one label, ended by LF alone
    path = tmp_path / "x.kb"
    save_kb(VectorKB("X", [label, "b"], np.ones((2, 2)), "fp"), path)
    assert load_kb(path).labels == ["b", label]


def test_a_kb_with_owner_fields_in_its_index_is_stale(tmp_path):
    # an index line of the older layout, 'label<TAB>owners', loads as one
    # label that no dump holds
    path = tmp_path / "x.kb"
    path.write_bytes(kb_bytes(index="a\tE:1\n"))
    old = load_kb(path)
    assert old.labels == ["a\tE:1"]
    onto = make_ontology("X", {"E:1": ["a"]})
    with pytest.raises(StaleKB) as caught:
        build_candidate_dbs(onto, onto, old, old, k=1, tau=0.5)
    assert str(caught.value) == "'X' label 'a' does not match its KB; run build-kb"


_KB_TEXT = st.characters(exclude_characters="\n", exclude_categories=("Cs",))
_KB_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, -1.5]
)


@st.composite
def random_kbs(draw):
    dim = draw(st.integers(min_value=1, max_value=8))
    labels = draw(st.lists(
        st.text(_KB_TEXT | st.sampled_from(["#", " "]), max_size=8),
        min_size=1, max_size=8, unique=True,
    ))
    rows = []
    for _ in labels:
        row = draw(st.lists(_KB_FLOATS, min_size=dim, max_size=dim))
        # A zero norm is rejected by VectorKB, so one component is normal.
        pinned = draw(st.integers(min_value=0, max_value=dim - 1))
        row[pinned] = draw(st.sampled_from([1.0, -1.0])) * draw(
            st.floats(min_value=1e-3, max_value=1e3)
        )
        rows.append(row)
    return VectorKB(
        draw(st.text(_KB_TEXT, max_size=6)),
        labels,
        np.array(rows, dtype=np.float64),
        draw(st.text(_KB_TEXT, max_size=12)),
    )


# Components near the float64 limit overflow the norm VectorKB computes.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(deadline=None, max_examples=150)
@given(kb=random_kbs())
# a CR that ends a header value is part of it in a binary KB
@example(kb=VectorKB("S\r", ["a"], np.ones((1, 2)), "fp\r"))
def test_kb_binary_round_trip_property(kb):
    order = sorted(range(len(kb)), key=kb.labels.__getitem__)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.kb"), os.path.join(tmp, "b.kb")
        save_kb(kb, first)
        loaded = load_kb(first, expected_fingerprint=kb.fingerprint)
        save_kb(loaded, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert loaded.ontology_name == kb.ontology_name
    assert loaded.fingerprint == kb.fingerprint
    assert loaded.labels == [kb.labels[i] for i in order]
    assert loaded.matrix.tobytes() == kb.matrix[order].tobytes()


@st.composite
def norm_matrices(draw, dims=st.integers(min_value=1, max_value=800)):
    """A float64 matrix whose row count is near or across a multiple of the
    norm block, of dense, sparse, huge, tiny and subnormal rows."""
    dim = draw(dims)
    step = max(1, _BLOCK_ELEMENTS // dim)
    n = draw(st.one_of(
        st.integers(min_value=0, max_value=2 * step + 1),
        st.sampled_from([step - 1, step, step + 1, 2 * step]),
    ))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    matrix = rng.standard_normal((n, dim))
    kind = rng.integers(0, 5, n)[:, None]
    matrix[(kind == 1) & (rng.random((n, dim)) < 0.95)] = 0.0  # sparse
    matrix *= np.where(kind == 2, 10.0 ** rng.uniform(100, 307, (n, 1)), 1.0)
    matrix *= np.where(kind == 3, 10.0 ** -rng.uniform(100, 300, (n, 1)), 1.0)
    # subnormal components, and for some rows one normal component besides
    subnormal = rng.integers(-2**20, 2**20, (n, dim)) * 5e-324
    matrix = np.where(kind == 4, subnormal, matrix)
    mixed = (kind[:, 0] == 4) & (rng.random(n) < 0.5)
    matrix[mixed, 0] += 1e-300
    return matrix


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Huge components overflow x*x, in the blocked norms as in the whole-matrix one.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(deadline=None, max_examples=150)
@given(matrix=norm_matrices(), data=st.data())
def test_blocked_norms_and_unit_rows_equal_the_whole_matrix_ones(matrix, data):
    norms = np.linalg.norm(matrix, axis=1)
    assert same_bits(_row_norms(matrix), norms)
    keep = norms > 0.0  # VectorKB rejects a zero vector
    matrix, norms = matrix[keep], norms[keep]
    if not len(matrix):
        return
    kb = VectorKB("X", [str(i) for i in range(len(matrix))], matrix, "fp")
    unit = matrix / norms[:, None]
    assert same_bits(kb.norms, norms)
    start = data.draw(st.integers(min_value=0, max_value=len(matrix)))
    stop = data.draw(st.integers(min_value=start, max_value=len(matrix)))
    assert same_bits(kb.unit_rows(slice(start, stop)), unit[start:stop])
    rows = np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=len(matrix) - 1), max_size=40,
    )), dtype=np.intp)
    assert same_bits(kb.unit_rows(rows), unit[rows])


def nonzero_kb(name, matrix):
    matrix = matrix[np.linalg.norm(matrix, axis=1) > 0.0]
    return VectorKB(name, [str(i) for i in range(len(matrix))], matrix, "fp")


# build_candidate_dbs computes each label pair's dot once, in the row side's
# orientation and wherever it falls in a batch, for both directions.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_row_dots_do_not_depend_on_the_side_or_the_position(data):
    left = nonzero_kb("L", data.draw(norm_matrices()))
    dim = left.matrix.shape[1]
    right = nonzero_kb("R", data.draw(norm_matrices(st.just(dim))))
    if not len(left) or not len(right):
        return
    step = max(1, _BLOCK_ELEMENTS // dim)
    n = data.draw(st.one_of(
        st.integers(min_value=0, max_value=2 * step + 1),
        st.sampled_from([step - 1, step, step + 1, 2 * step]),
    ))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    left_rows = rng.integers(0, len(left), n)
    right_rows = rng.integers(0, len(right), n)
    dots = _row_dots(left, left_rows, right, right_rows)
    assert same_bits(_row_dots(right, right_rows, left, left_rows), dots)
    start = data.draw(st.integers(min_value=0, max_value=n))
    assert same_bits(
        _row_dots(left, left_rows[start:], right, right_rows[start:]), dots[start:]
    )
    some = np.flatnonzero(rng.random(n) < 0.5)
    assert same_bits(
        _row_dots(right, right_rows[some], left, left_rows[some]), dots[some]
    )


def traced(fn):
    """fn()'s result and the (current, peak) bytes allocated while it ran;
    numpy reports its buffers to tracemalloc, so every array counts."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def one_label_ontology(name, n):
    return make_ontology(name, {f"{name}:{i}": [f"{name} label {i}"] for i in range(n)})


def test_a_deterministic_kb_build_peaks_below_two_matrices():
    onto = one_label_ontology("S", 4000)
    kb, _, peak = traced(lambda: build_kb(onto, DeterministicProvider(dim=256)))
    assert peak < 2 * kb.matrix.nbytes


def test_a_file_provider_build_holds_the_parsed_rows_and_each_kb_once(tmp_path):
    n, dim = 1000, 512
    source, target = one_label_ontology("S", n), one_label_ontology("T", n)
    rng = np.random.default_rng(0)
    rows = rng.integers(-64, 64, (2 * n, dim)) / 8 * (rng.random((2 * n, dim)) < 0.1)
    rows[:, 0] = 1.0
    labels = [e.labels[0] for onto in (source, target) for e in onto]
    path = tmp_path / "vectors.tsv"
    write_vector_file(path, dict(zip(labels, rows)))

    def build_both():
        provider = PrecomputedFileProvider(str(path))
        return build_kb(source, provider), build_kb(target, provider)

    kbs, _, peak = traced(build_both)
    matrices = sum(kb.matrix.nbytes for kb in kbs)
    assert peak < 1.25 * (rows.nbytes + matrices)


def test_loaded_kbs_hold_one_matrix_copy_each_after_retrieval(tmp_path):
    source, target = one_label_ontology("S", 1000), one_label_ontology("T", 1000)
    provider = DeterministicProvider(dim=512, seed=1)
    paths = [str(tmp_path / "s.kb"), str(tmp_path / "t.kb")]
    for onto, path in zip((source, target), paths):
        save_kb(build_kb(onto, provider), path)

    def load_and_retrieve():
        kbs = [load_kb(path) for path in paths]
        build_candidate_dbs(source, target, *kbs, k=5, tau=0.0)
        return kbs

    kbs, current, _ = traced(load_and_retrieve)
    assert current < 1.5 * sum(kb.matrix.nbytes for kb in kbs)


def disease_query_hits(target_kb, query, k):
    provider = fixture_provider(disease_vector_table(), dim=4)
    return query_hits(provider, query, target_kb.labels, k, TAU)


def test_top_k_labels_preferred_label_query(disease_pipeline):
    target_kb = disease_pipeline["target_kb"]
    query = "clear cell sarcoma of soft tissue"
    hits = [
        ("clear cell sarcoma", 0.80521),
        ("adult soft part clear cell sarcoma", 0.79),
        ("clear cell chondrosarcoma", 0.78),
    ]
    assert disease_query_hits(target_kb, query, k=5) == every_cut(hits)
    assert disease_query_hits(target_kb, query, k=3) == every_cut(hits)
    assert disease_query_hits(target_kb, query, k=2) == every_cut(hits[:2])


def test_top_k_labels_synonym_label_query(disease_pipeline):
    hits = disease_query_hits(
        disease_pipeline["target_kb"], "clear cell sarcoma - not kidney", k=5
    )
    assert hits == every_cut([
        ("childhood kidney clear cell sarcoma", 0.95621),
        ("kidney clear cell sarcoma", 0.94),
        ("renal clear cell carcinoma", 0.77),
        ("sarcoma", 0.76),
    ])


def test_top_k_keeps_score_exactly_at_tau():
    vectors = {
        "query": [1.0, 0.0],
        "at-tau": [0.75, math.sqrt(1.0 - 0.75 * 0.75)],
        "below": [0.74, math.sqrt(1.0 - 0.74 * 0.74)],
    }
    hits = query_hits(
        fixture_provider(vectors, dim=2), "query", ["at-tau", "below"], k=5, tau=0.75
    )
    assert hits == every_cut([("at-tau", 0.75)])


def test_top_k_rounded_tie_breaks_by_label():
    beta = math.sqrt(1.0 - 0.8 * 0.8)
    high = 0.8 + 4e-07  # rounds to 0.8 as well
    vectors = {
        "query": [1.0, 0.0],
        "zebra": [high, math.sqrt(1.0 - high * high)],
        "apple": [0.8, beta],
    }
    provider = fixture_provider(vectors, dim=2)
    hits = query_hits(provider, "query", ["zebra", "apple"], k=5, tau=0.75)
    assert hits == every_cut([("apple", 0.8), ("zebra", 0.8)])
    top1 = query_hits(provider, "query", ["zebra", "apple"], k=1, tau=0.75)
    assert top1 == every_cut([("apple", 0.8)])


def test_top_k_parameter_validation(disease_pipeline):
    args = [disease_pipeline[key] for key in ("source", "target", "source_kb", "target_kb")]
    with pytest.raises(InvalidParameter):
        build_candidate_dbs(*args, k=0, tau=0.75)
    with pytest.raises(InvalidParameter):
        build_candidate_dbs(*args, k=5, tau=1.5)


def test_entity_score_uses_full_cross_product():
    """The entity score may come from a label pair that fired no hit."""
    a = (1.44 - math.sqrt(1.44 * 1.44 - 4.0 * 0.45)) / 2.0
    b = (0.9 - 0.8 * a) / 0.6
    t = math.sqrt(1.0 - 0.95 * 0.95)
    h2 = [0.95 * a - t * b, 0.95 * b + t * a, 0.0]
    vectors = {
        "label one": [1.0, 0.0, 0.0],
        "label two": [a, b, 0.0],
        "hit one": [0.8, 0.6, 0.0],
        "hit two": h2,
    }
    source = make_ontology("S", {"E": ["label one", "label two"]})
    target = make_ontology("T", {"T:1": ["hit one"], "T:2": ["hit two"]})
    provider = fixture_provider(vectors, dim=3)
    s2t, _ = build_candidate_dbs(
        source, target, build_kb(source, provider), build_kb(target, provider),
        k=1, tau=0.75,
    )
    candidates = s2t.lists["E"].candidates
    # label one fired only "hit one" (0.8) and label two only "hit two"
    # (0.95), yet T:1 scores 0.9 via the unfired pair (label two, hit one).
    assert candidates == (("T:2", 0.95), ("T:1", 0.9))


def test_shared_corpus_label_yields_both_owners():
    """k caps each label's hits, not the entity lists: at k=1 the one hit
    label still brings both of its owners."""
    vectors = {
        "query": [1.0, 0.0],
        "shared": [0.9, math.sqrt(1.0 - 0.81)],
    }
    source = make_ontology("S", {"E": ["query"]})
    target = make_ontology("T", {"T:b": ["shared"], "T:a": ["shared"]})
    provider = fixture_provider(vectors, dim=2)
    for k in (1, 5):
        s2t, _ = build_candidate_dbs(
            source, target, build_kb(source, provider), build_kb(target, provider),
            k=k, tau=0.75,
        )
        assert s2t.lists["E"].candidates == (("T:a", 0.9), ("T:b", 0.9))


def test_disease_corpus_candidate_lists(disease_pipeline):
    s2t = disease_pipeline["s2t"]
    t2s = disease_pipeline["t2s"]
    sarcoma = s2t.candidates_of("ncit:C3745")
    assert sarcoma.candidates == (
        ("DOID:4880", 0.95621),
        ("DOID:4233", 0.80521),
        ("DOID:4467", 0.77),
        ("DOID:1115", 0.76),
    )
    autoimmune = s2t.candidates_of("ncit:C99383")
    assert autoimmune.candidates == (
        ("DOID:438", 0.93),
        ("DOID:0060004", 0.88),
        ("DOID:417", 0.8),
        ("DOID:11465", 0.78),
    )
    reverse = t2s.candidates_of("DOID:4880")
    assert reverse.candidates == (("ncit:C61325", 1.0), ("ncit:C3745", 0.95621))
    assert t2s.candidates_of("DOID:4233").candidates == (("ncit:C3745", 0.80521),)
    assert s2t.candidates_of("ncit:C61325").ids()[0] == "DOID:4880"
    assert s2t.candidates_of("ncit:C61325").candidates[0][1] == 1.0


def test_disease_candidates_match_brute_force_oracle(disease_pipeline):
    vectors = disease_vector_table()
    source = disease_pipeline["source"]
    target = disease_pipeline["target"]
    for db, query_onto, corpus_onto in (
        (disease_pipeline["s2t"], source, target),
        (disease_pipeline["t2s"], target, source),
    ):
        owners_by_label = {}
        for entity in corpus_onto:
            for label in entity.labels:
                owners_by_label.setdefault(label, set()).add(entity.id)
        corpus_vectors = {label: vectors[label] for label in owners_by_label}
        for entity in query_onto:
            expected = oracle_entity_candidates(
                entity.labels, owners_by_label, vectors, corpus_vectors, k=5, tau=TAU
            )
            assert list(db.lists[entity.id].candidates) == expected


def test_build_candidate_dbs_rejects_mismatched_kbs(disease_pipeline):
    source = disease_pipeline["source"]
    target = disease_pipeline["target"]
    other_kb = build_kb(target, DeterministicProvider(dim=4, seed=1))
    with pytest.raises(StaleKB):
        build_candidate_dbs(
            source, target, disease_pipeline["source_kb"], other_kb, k=5, tau=TAU
        )


def test_candidate_db_chunk_size_is_invisible(disease_pipeline, tmp_path):
    source = disease_pipeline["source"]
    target = disease_pipeline["target"]
    source_kb = disease_pipeline["source_kb"]
    target_kb = disease_pipeline["target_kb"]
    serializations = []
    for chunk in (1, 2, 128):
        s2t, t2s = build_candidate_dbs(
            source, target, source_kb, target_kb, k=5, tau=TAU, chunk=chunk
        )
        path = tmp_path / f"c{chunk}.tsv"
        save_candidate_db(s2t, path)
        save_candidate_db(t2s, tmp_path / f"c{chunk}-r.tsv")
        serializations.append(
            path.read_text() + (tmp_path / f"c{chunk}-r.tsv").read_text()
        )
    assert serializations[0] == serializations[1] == serializations[2]


def test_candidate_db_save_load_round_trip(disease_pipeline, tmp_path):
    s2t = disease_pipeline["s2t"]
    path = tmp_path / "s2t.tsv"
    save_candidate_db(s2t, path)
    loaded = load_candidate_db(path, disease_pipeline["source"])
    assert loaded.direction == DIRECTION_S2T
    assert loaded.query_name == "NCIT"
    assert loaded.corpus_name == "DOID"
    assert loaded.k == 5
    assert loaded.tau == 0.75
    assert loaded.fingerprint == s2t.fingerprint
    for entity_id, lst in s2t.lists.items():
        assert loaded.lists[entity_id].candidates == lst.candidates
    with pytest.raises(UnknownEntity):
        loaded.candidates_of("ncit:MISSING")


def test_candidate_db_round_trip_with_mostly_unlisted_entities(tmp_path):
    ids = [f"E:{i:02d}" for i in range(40)][::-1]
    onto = make_ontology("S", {entity_id: [f"label {entity_id}"] for entity_id in ids})
    listed = {
        "E:31": [("T:1", 0.9), ("T:2", 0.8)],
        "E:05": [("T:2", 0.95)],
        "E:17": [("T:3", 0.85), ("T:1", 0.85), ("T:4", 0.8)],
    }
    db = make_db("s2t", "S", "T", listed)
    path = tmp_path / "s2t.tsv"
    save_candidate_db(db, path)
    loaded = load_candidate_db(path, onto)
    assert list(loaded.lists) == list(onto.ids) == ids
    for entity_id in ids:
        assert loaded.lists[entity_id].candidates == tuple(listed.get(entity_id, ()))
    assert loaded.total_candidates == db.total_candidates == 6

    # Owners the ontology lacks, in file order Z:2, B:1, E:17 (known), A:9:
    # the error names the sorted-first.
    text = path.read_text(encoding="utf-8")
    path.write_text(
        text + "Z:2\tT:1\t0.90000\nB:1\tT:1\t0.90000\n"
        "E:17\tT:9\t0.10000\nA:9\tT:1\t0.90000\n",
        encoding="utf-8",
    )
    with pytest.raises(StaleKB, match="lists owner 'A:9' which 'S' does not contain"):
        load_candidate_db(path, onto)


def test_candidate_db_restores_empty_lists(tmp_path):
    vectors = {
        "near": [1.0, 0.0],
        "far": [0.0, 1.0],
        "corpus": [0.9, math.sqrt(0.19)],
    }
    source = make_ontology("S", {"E:near": ["near"], "E:far": ["far"]})
    target = make_ontology("T", {"T:1": ["corpus"]})
    provider = fixture_provider(vectors, dim=2)
    s2t, _ = build_candidate_dbs(
        source, target, build_kb(source, provider), build_kb(target, provider),
        k=5, tau=0.75,
    )
    assert s2t.lists["E:far"].candidates == ()
    path = tmp_path / "s2t.tsv"
    save_candidate_db(s2t, path)
    loaded = load_candidate_db(path, source)
    assert loaded.lists["E:far"].candidates == ()
    assert loaded.lists["E:near"].candidates == s2t.lists["E:near"].candidates
    assert loaded.total_candidates == 1


def test_candidate_db_load_rejects_unknown_owner(disease_pipeline, tmp_path):
    path = tmp_path / "s2t.tsv"
    save_candidate_db(disease_pipeline["s2t"], path)
    other = make_ontology("S", {"E:1": ["something"]})
    with pytest.raises(StaleKB):
        load_candidate_db(path, other)


def test_candidate_db_load_malformed(tmp_path):
    onto = make_ontology("S", {"E:1": ["alpha"]})
    headers = (
        "# candidate-db s2t\n# query S\n# corpus T\n# k 5\n# tau 0.75\n"
        "# provider fp\n"
    )
    bad_rank = headers + "E:1\tT:1\t0.80000\nE:1\tT:2\t0.90000\n"
    bad_score = headers + "E:1\tT:1\tx\n"
    bad_fields = headers + "E:1\tT:1\n"
    missing_header = "# candidate-db s2t\nE:1\tT:1\t0.8\n"
    bad_direction = headers.replace("s2t", "sideways") + "E:1\tT:1\t0.8\n"
    for content, expected in (
        (bad_rank, MalformedRecord),
        (bad_score, MalformedRecord),
        (bad_fields, MalformedRecord),
        (missing_header, MalformedRecord),
        (bad_direction, MalformedRecord),
    ):
        path = tmp_path / "bad.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(expected):
            load_candidate_db(path, onto)
    # a score is a cosine: a finite number in [-1, 1]; a nan before a
    # larger score must not blind the non-increasing check
    for rows, line_no in (
        ("E:1\tT:1\tnan\nE:1\tT:2\t0.9\n", 7),
        ("E:1\tT:1\t0.9\nE:1\tT:2\t-nan\n", 8),
        ("E:1\tT:1\t7.5\n", 7),
        ("E:1\tT:1\t1.00001\n", 7),
        ("E:1\tT:1\t0.5\nE:1\tT:2\t-1.00001\n", 8),
        ("E:1\tT:1\tinf\n", 7),
        ("E:1\tT:1\t0.5\nE:1\tT:2\t-inf\n", 8),
    ):
        path = tmp_path / "bad.tsv"
        path.write_text(headers + rows, encoding="utf-8")
        with pytest.raises(MalformedRecord) as caught:
            load_candidate_db(path, onto)
        assert caught.value.line_no == line_no
        assert caught.value.reason.startswith("bad score"), rows
    path.write_text(headers + "E:1\tT:1\t1.00000\nE:1\tT:2\t-1.00000\n", encoding="utf-8")
    assert load_candidate_db(path, onto).lists["E:1"].candidates == (
        ("T:1", 1.0), ("T:2", -1.0),
    )


@settings(deadline=None, max_examples=150)
@given(
    names=st.tuples(header_text, header_text, header_text),
    direction=st.sampled_from(["s2t", "t2s"]), k=st.integers(1, 50),
    tau=st.floats(0.0, 1.0), listed=st.lists(st.booleans(), min_size=1, max_size=4),
    index=st.integers(0, 5), fault=st.sampled_from(HEADER_FAULTS),
)
def test_candidate_db_header_round_trips_and_faults_at_its_line(
    tmp_path_factory, names, direction, k, tau, listed, index, fault
):
    query, corpus, fingerprint = names
    onto = make_ontology(query, {f"E:{i}": [f"l{i}"] for i in range(len(listed))})
    lists = {
        f"E:{i}": [("T:1", 0.9), ("T:2", 0.8)] for i, on in enumerate(listed) if on
    }
    db = make_db(direction, query, corpus, lists, k=k, tau=tau, fingerprint=fingerprint)
    path = tmp_path_factory.mktemp("db") / "db.tsv"
    save_candidate_db(db, path)
    data = path.read_bytes()
    loaded = load_candidate_db(path, onto)
    fields = ("direction", "query_name", "corpus_name", "k", "tau", "fingerprint")
    assert [getattr(loaded, f) for f in fields] == [getattr(db, f) for f in fields]
    save_candidate_db(loaded, path)
    assert path.read_bytes() == data

    bad_values = {0: b"sideways", 3: b"five", 4: b"tau"}
    broken, reason = break_header_line(data, 6, index, fault, bad_values)
    path.write_bytes(broken)
    with pytest.raises(MalformedRecord) as caught:
        load_candidate_db(path, onto)
    assert caught.value.line_no == index + 1
    assert caught.value.reason.startswith(reason)


@settings(deadline=None, max_examples=150)
@given(
    names=st.tuples(header_text, header_text, header_text), k=st.integers(1, 50),
    tau=st.floats(0.0, 1.0), n_rows=st.integers(0, 3), index=st.integers(0, 4),
    fault=st.sampled_from(HEADER_FAULTS),
)
def test_alignment_header_round_trips_and_faults_at_its_line(
    tmp_path_factory, names, k, tau, n_rows, index, fault
):
    source, target, fingerprint = names
    alignment = Alignment(source, target, k, tau, fingerprint, tuple(
        Correspondence(f"S:{i}", f"T:{i}", "equivalence", 0.5, "HCB")
        for i in range(n_rows)
    ))
    path = tmp_path_factory.mktemp("alignment") / "alignment.tsv"
    write_alignment(alignment, path)
    data = path.read_bytes()
    loaded = read_alignment(path)
    assert loaded == alignment
    write_alignment(loaded, path)
    assert path.read_bytes() == data

    broken, reason = break_header_line(data, 5, index, fault, {2: b"five", 3: b"tau"})
    path.write_bytes(broken)
    with pytest.raises(MalformedRecord) as caught:
        read_alignment(path)
    assert caught.value.line_no == index + 1
    assert caught.value.reason.startswith(reason)


def test_candidate_db_load_rejects_a_candidate_listed_twice(tmp_path):
    onto = make_ontology("S", {"E:1": ["alpha"], "E:2": ["beta"]})
    path = tmp_path / "dup.tsv"
    path.write_text(
        "# candidate-db s2t\n# query S\n# corpus T\n# k 5\n# tau 0.75\n"
        "# provider fp\nE:1\tT:1\t0.90000\nE:2\tT:1\t0.90000\n"
        "E:1\tT:2\t0.80000\nE:1\tT:1\t0.80000\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedRecord) as caught:
        load_candidate_db(path, onto)
    assert caught.value.line_no == 10
    assert str(caught.value).endswith(":10: repeated candidate 'T:1'")


def test_scaled_vectors_do_not_change_scores():
    vectors_unit = {"q": [1.0, 0.0], "t": [0.8, 0.6]}
    vectors_scaled = {"q": [7.0, 0.0], "t": [2.4, 1.8]}
    for vectors in (vectors_unit, vectors_scaled):
        hits = query_hits(fixture_provider(vectors, dim=2), "q", ["t"], k=1, tau=0.5)
        assert hits == every_cut([("t", 0.8)])


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.sampled_from([1, 3]),
    tau=st.sampled_from([0.0, 0.5]),
)
def test_top_k_matches_oracle_on_random_vectors(seed, k, tau):
    rng = np.random.default_rng(seed)
    sides = [
        [f"{side}{i:02d}" for i in range(int(rng.integers(1, 12)))]
        for side in ("s", "t")
    ]
    vectors = {label: rng.standard_normal(4) for labels in sides for label in labels}
    provider = fixture_provider(vectors, dim=4)
    for chunk in CHUNKS:
        got = hit_lists(provider, *sides, k=k, tau=tau, chunk=chunk)
        for labels, others, hits in zip(sides, sides[::-1], got):
            corpus = {label: vectors[label] for label in others}
            for label in labels:
                expected = oracle_top_k_labels(corpus, list(vectors[label]), k=k, tau=tau)
                assert hits[label] == expected
                assert all(score >= tau for _, score in hits[label])
                assert len(hits[label]) <= k


def _exact_dot(u, v):
    """u . v of two float64 vectors, exactly."""
    scale = 2 ** 1074  # every float64 is an integer multiple of 2**-1074

    def whole(x):
        num, den = float(x).as_integer_ratio()
        return num * (scale // den)

    return Fraction(sum(whole(a) * whole(b) for a, b in zip(u, v)), scale * scale)


def _raw_pair(case, dim, rng):
    """Two raw vectors of one family, the adversarial ones included."""
    x = rng.standard_normal(dim)
    if case == "same":
        return x, x.copy()
    if case == "equal":
        return np.ones(dim), np.ones(dim)
    if case == "cancel":
        # partial sums grow to about dim / 2 while the dot stays near 0
        signs = np.where(np.arange(dim) % 2, -1.0, 1.0)
        return signs * (1.0 + 1e-3 * rng.random(dim)), np.ones(dim)
    if case == "tiny":
        # components that become float32 subnormals or flush to zero, and
        # float64 subnormals
        tiny = rng.choice([1e-39, 3e-42, 1e-45, 1e-47, 5e-324, 0.0], size=(2, dim))
        tiny[:, 0] = 1.0
        return tiny[0] * np.sign(x), tiny[1] * np.sign(rng.standard_normal(dim))
    return x, rng.standard_normal(dim)


@settings(deadline=None, max_examples=120)
@given(
    dim=st.integers(min_value=1, max_value=4096)
    | st.sampled_from([1, 2, 64, 400, 2002, 4096]),
    case=st.sampled_from(["gaussian", "same", "equal", "cancel", "tiny"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_f32_dot_error_bounds_the_float32_score(dim, case, seed):
    rng = np.random.default_rng(seed)
    pairs = [_raw_pair(case, dim, rng) for _ in range(2)]
    # unit rows as VectorKB makes them, then the float32 product the
    # prefilter runs
    unit = [np.asarray(v) / np.linalg.norm(v) for pair in pairs for v in pair]
    left, right = np.array(unit[0::2]), np.array(unit[1::2])
    f32 = left.astype(np.float32) @ right.astype(np.float32).T
    bound = Fraction(f32_dot_error(dim))
    for i, u in enumerate(left):
        for j, v in enumerate(right):
            assert abs(Fraction(float(f32[i, j])) - _exact_dot(u, v)) <= bound


@st.composite
def planted_corpora(draw):
    """Multi-label source and target ontologies over one fixture provider.

    Target labels are random, copies of a source vector, duplicates of an
    earlier target vector (exact ties at any rank), near-duplicates (equal
    rounded scores whose raw order differs from the label order) or planted
    at cosine tau exactly against a source label; source labels may be
    duplicates or near-duplicates of each other.
    Labels may be shared between entities. Returns (source, target,
    provider, tau).
    """
    tau = draw(st.sampled_from([0.0, 0.5, 0.75, 1.0]))
    dim = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    vectors = {}
    sources = [f"s{i}" for i in range(draw(st.integers(min_value=1, max_value=8)))]
    for i, label in enumerate(sources):
        kind = draw(st.sampled_from(["random", "duplicate", "near"]))
        if kind != "random" and i:
            vectors[label] = vectors[sources[rng.integers(i)]].copy()
            if kind == "near":
                vectors[label] += 1e-6 * rng.standard_normal(dim)
        else:
            vectors[label] = rng.standard_normal(dim)
    targets = [f"t{i}" for i in range(draw(st.integers(min_value=1, max_value=10)))]
    for i, label in enumerate(targets):
        kind = draw(st.sampled_from(["random", "copy", "duplicate", "near", "at-tau"]))
        base = vectors[sources[rng.integers(len(sources))]]
        if kind == "copy":
            vectors[label] = base * rng.uniform(0.5, 2.0)
        elif kind in ("duplicate", "near") and i:
            vectors[label] = vectors[targets[rng.integers(i)]].copy()
            if kind == "near":
                vectors[label] += 1e-6 * rng.standard_normal(dim)
        elif kind == "at-tau":
            unit = base / np.linalg.norm(base)
            other = rng.standard_normal(dim)
            other -= (other @ unit) * unit
            other /= np.linalg.norm(other)
            vectors[label] = tau * unit + math.sqrt(1.0 - tau * tau) * other
        else:
            vectors[label] = rng.standard_normal(dim)

    def ontology(name, labels):
        groups = {}
        for label in labels:
            owners = draw(st.sets(st.integers(0, 3), min_size=1, max_size=2))
            for owner in sorted(owners):
                groups.setdefault(f"{name}:{owner}", []).append(label)
        return make_ontology(name, groups)

    provider = fixture_provider(vectors, dim)
    return ontology("S", sources), ontology("T", targets), provider, tau


def _db_rows(lists):
    return [
        f"{owner}\t{candidate}\t{score:.5f}"
        for owner in sorted(lists)
        for candidate, score in lists[owner]
    ]


@settings(deadline=None, max_examples=200)
@given(
    corpus=planted_corpora(),
    k=st.sampled_from([1, 3, 5]),
    chunk=st.sampled_from([1, 7, 128]),
)
def test_candidate_dbs_equal_the_float64_kernel(corpus, k, chunk):
    source, target, provider, tau = corpus
    source_kb, target_kb = build_kb(source, provider), build_kb(target, provider)
    s2t, t2s = build_candidate_dbs(
        source, target, source_kb, target_kb, k=k, tau=tau, chunk=chunk
    )
    for db, query, query_kb, corpus, corpus_kb in (
        (s2t, source, source_kb, target, target_kb),
        (t2s, target, target_kb, source, source_kb),
    ):
        expected = oracle_direction_lists(query, query_kb, corpus, corpus_kb, k, tau)
        got = {owner: lst.candidates for owner, lst in db.lists.items()}
        assert _db_rows(got) == _db_rows(expected)
        assert list(got) == list(expected)


@settings(deadline=None, max_examples=150)
@given(corpus=planted_corpora(), k=st.sampled_from([1, 3, 5]))
def test_a_pair_has_one_score_and_swapping_the_inputs_swaps_the_dbs(corpus, k):
    source, target, provider, tau = corpus
    source_kb, target_kb = build_kb(source, provider), build_kb(target, provider)
    s2t, t2s = build_candidate_dbs(source, target, source_kb, target_kb, k=k, tau=tau)
    forward = {
        (owner, candidate): score
        for owner, lst in s2t.lists.items() for candidate, score in lst.candidates
    }
    for owner, lst in t2s.lists.items():
        for candidate, score in lst.candidates:
            assert forward.get((candidate, owner), score) == score
    swapped = build_candidate_dbs(target, source, target_kb, source_kb, k=k, tau=tau)
    for db, other in zip(swapped, (t2s, s2t)):
        assert _db_rows(
            {owner: lst.candidates for owner, lst in db.lists.items()}
        ) == _db_rows({owner: lst.candidates for owner, lst in other.lists.items()})


DUMP_EDITS = ("move", "drop", "share", "rename-id", "new-label")


@st.composite
def edited_dumps(draw):
    """A planted corpus plus one side's ontology after one dump edit.

    The edit moves one entity's label to another entity, drops one of its
    labels, gives another entity a label it owns, renames the entity, or
    gives it a label no dump holds. An entity keeps its only label, so a
    drop of it changes nothing and a move of it is a share. Only a drop of
    a label no other entity names, or a new label, changes the label set.
    Returns (source, target, provider, tau, side, edited ontology).
    """
    source, target, provider, tau = draw(planted_corpora())
    side = draw(st.sampled_from([0, 1]))
    onto = (source, target)[side]
    groups = {entity.id: list(entity.labels) for entity in onto}
    owner, other = (draw(st.sampled_from(sorted(groups))) for _ in range(2))
    label = draw(st.sampled_from(groups[owner]))
    edit = draw(st.sampled_from(DUMP_EDITS))
    if edit in ("move", "drop") and len(groups[owner]) > 1:
        groups[owner].remove(label)
    if edit in ("move", "share") and label not in groups[other]:
        groups[other].append(label)
    if edit == "rename-id":
        groups[f"{onto.name}:renamed"] = groups.pop(owner)
    if edit == "new-label":
        groups[owner].append("new label")
    return source, target, provider, tau, side, make_ontology(onto.name, groups)


def label_set(onto):
    return {label for entity in onto for label in entity.labels}


@settings(deadline=None, max_examples=150)
@given(corpus=edited_dumps(), k=st.sampled_from([1, 3]))
def test_a_kb_fits_exactly_the_dumps_with_its_labels(corpus, k):
    # which entities a label names comes from the dump, so only an edit of
    # the label set needs a new KB
    source, target, provider, tau, side, edited = corpus
    kbs = [build_kb(source, provider), build_kb(target, provider)]
    ontologies = [source, target]
    changed = sorted(label_set(ontologies[side]) ^ label_set(edited))
    ontologies[side] = edited
    if changed:
        with pytest.raises(StaleKB) as caught:
            build_candidate_dbs(*ontologies, *kbs, k=k, tau=tau)
        assert str(caught.value) == (
            f"'{edited.name}' label '{changed[0]}' does not match its KB; run build-kb"
        )
        return
    got = build_candidate_dbs(*ontologies, *kbs, k=k, tau=tau)
    fresh = [build_kb(onto, provider) for onto in ontologies]
    assert [kb.labels for kb in fresh] == [kb.labels for kb in kbs]
    for db, expected in zip(got, build_candidate_dbs(*ontologies, *fresh, k=k, tau=tau)):
        lists = {owner: lst.candidates for owner, lst in db.lists.items()}
        expected_lists = {owner: lst.candidates for owner, lst in expected.lists.items()}
        assert _db_rows(lists) == _db_rows(expected_lists)
        assert list(lists) == list(expected_lists)


@pytest.mark.parametrize("tau", [0.75, 0.0])
def test_each_label_pair_is_scored_once_per_call(tmp_path, monkeypatch, tau):
    corpus = generate_corpus(str(tmp_path), 40, synonym_rate=0.3, seed=2)
    source = load_ontology(corpus.source_path, "S")
    target = load_ontology(corpus.target_path, "T")
    provider = PrecomputedFileProvider(corpus.vectors_path)
    source_kb, target_kb = build_kb(source, provider), build_kb(target, provider)
    row_dots = retrieval._row_dots
    pairs = []

    def spy(left, left_rows, right, right_rows):
        if left is source_kb:
            pairs.extend(zip(left_rows.tolist(), right_rows.tolist()))
        else:
            pairs.extend(zip(right_rows.tolist(), left_rows.tolist()))
        return row_dots(left, left_rows, right, right_rows)

    monkeypatch.setattr(retrieval, "_row_dots", spy)
    s2t, t2s = build_candidate_dbs(source, target, source_kb, target_kb, k=5, tau=tau)
    assert s2t.total_candidates and t2s.total_candidates
    assert len(pairs) == len(set(pairs))


ROW_KINDS = ("dead", "exactly-k", "k-plus-1", "ties", "random", "busy")


@st.composite
def score_blocks(draw):
    """A float32 score block and the (k, floor, rank_margin) of its row cut.

    Rows are dead (every score below the floor), hold exactly k or k + 1
    scores at the floor, tie with their k-th score within, at and beyond
    the margin, are random, or are busy (every score at or above the
    floor). Widths run from 0 to past k, and whole blocks may have no live
    row or only busy rows.
    """
    k = draw(st.integers(min_value=1, max_value=5))
    width = draw(st.integers(min_value=0, max_value=k)
                 | st.integers(min_value=k + 1, max_value=12))
    floor = draw(st.sampled_from([-0.5, 0.0, 0.3, 0.74997]))
    margin = draw(st.sampled_from([0.0, 2e-5, 0.05]))
    block_kind = draw(st.sampled_from(["mixed", "no-live-row", "all-busy"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    at_floor = np.float32(floor)
    below = float(np.nextafter(at_floor, np.float32(-np.inf)))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = {"no-live-row": "dead", "all-busy": "busy"}.get(
            block_kind, draw(st.sampled_from(ROW_KINDS))
        )
        row = rng.uniform(-1.0, below, width).astype(np.float32)
        if kind in ("exactly-k", "k-plus-1"):
            row[rng.permutation(width)[:k + (kind == "k-plus-1")]] = at_floor
        elif kind == "ties":
            kth = at_floor + np.float32(0.1)
            steps = rng.choice([0.0, 0.25, 0.5, 1.0, 1.5], width)
            row = kth - np.float32(margin) * steps.astype(np.float32)
        elif kind == "random":
            row = rng.uniform(-1.0, 1.0, width).astype(np.float32)
        elif kind == "busy":
            row = rng.uniform(float(at_floor), 1.0, width).astype(np.float32)
        rows.append(row)
    sims = np.array(rows, dtype=np.float32).reshape(len(rows), width)
    return sims, k, floor, margin


@settings(deadline=None, max_examples=400)
@given(block=score_blocks())
def test_the_count_first_row_cut_keeps_what_the_partition_kept(block):
    # A row with at most k scores at or above the floor skips the partition;
    # the pairs must be those of a partition of every live row wider than k.
    sims, k, floor, margin = block
    got = _row_survivors(sims, k, floor, margin)
    expected = oracle_row_survivors(sims, k, floor, margin)
    assert [a.tolist() for a in got] == [a.tolist() for a in expected]
