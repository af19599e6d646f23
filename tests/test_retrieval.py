"""Vector KBs, top-k label retrieval, and candidate databases."""

import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomatch.embedding import DeterministicProvider, PrecomputedFileProvider, round_score
from ontomatch.errors import (
    DimensionMismatch,
    InvalidParameter,
    MalformedRecord,
    StaleKB,
    UnknownEntity,
    ZeroVector,
)
from ontomatch.ontology import load_ontology
from ontomatch.retrieval import (
    DIRECTION_S2T,
    DIRECTION_T2S,
    VectorKB,
    build_candidate_dbs,
    build_kb,
    candidate_entities,
    f32_dot_error,
    load_candidate_db,
    load_kb,
    save_candidate_db,
    save_kb,
    top_k_labels,
)

from conftest import make_ontology, disease_vector_table
from oracles import (
    oracle_direction_lists,
    oracle_entity_candidates,
    oracle_top_k_labels,
)

TAU = 0.75


def fixture_provider(vectors, dim):
    arrays = {label: np.asarray(vec, dtype=np.float64) for label, vec in vectors.items()}
    return DeterministicProvider(dim=dim, seed=0, fixtures=arrays)


def test_build_kb_sorts_labels_and_merges_owners():
    onto = make_ontology(
        "X",
        {"E:2": ["beta", "shared"], "E:1": ["alpha", "shared"]},
    )
    kb = build_kb(onto, DeterministicProvider(dim=8, seed=0))
    assert kb.labels == ["alpha", "beta", "shared"]
    assert kb.owners[kb.label_to_row["shared"]] == frozenset({"E:1", "E:2"})
    assert kb.owners[kb.label_to_row["alpha"]] == frozenset({"E:1"})
    assert len(kb) == 3
    assert kb.dim == 8


def test_vector_kb_validation():
    with pytest.raises(ZeroVector):
        VectorKB("X", ["a"], [frozenset({"E"})], np.zeros((1, 3)), "fp")
    with pytest.raises(InvalidParameter):
        VectorKB("X", ["a", "a"], [frozenset({"E"})] * 2, np.ones((2, 3)), "fp")
    with pytest.raises(DimensionMismatch):
        VectorKB("X", ["a", "b"], [frozenset({"E"})], np.ones((2, 3)), "fp")


def test_kb_save_load_round_trip(tmp_path):
    onto = make_ontology("X", {"E:1": ["alpha", "shared"], "E:2": ["shared"]})
    kb = build_kb(onto, DeterministicProvider(dim=6, seed=5))
    path = tmp_path / "x.kb"
    save_kb(kb, path)
    loaded = load_kb(path)
    assert loaded.ontology_name == "X"
    assert loaded.labels == kb.labels
    assert loaded.owners == kb.owners
    assert loaded.fingerprint == kb.fingerprint
    np.testing.assert_array_equal(loaded.matrix, kb.matrix)

    loaded_checked = load_kb(path, expected_fingerprint=kb.fingerprint)
    assert loaded_checked.labels == kb.labels
    with pytest.raises(StaleKB):
        load_kb(path, expected_fingerprint="other/fp")


def kb_bytes(dim="2", rows="1", index="a\tE:1\n", values=(1.0, 0.0)):
    """A KB file's bytes in the save_kb layout, with parts overridable."""
    head = (
        f"# vector-kb X\n# dim {dim}\n# provider fp\n# rows {rows}\n{index}"
    )
    return head.encode("utf-8") + np.asarray(values, dtype="<f8").tobytes()


def test_kb_bytes_helper_builds_a_loadable_kb(tmp_path):
    path = tmp_path / "ok.kb"
    path.write_bytes(kb_bytes())
    kb = load_kb(path)
    assert kb.labels == ["a"] and kb.owners == [frozenset({"E:1"})]
    assert kb.matrix.tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(
            b"a\tE:1\n" + np.array([1.0, 0.0]).tobytes(), id="no-headers"
        ),
        pytest.param(kb_bytes(dim="two"), id="dim-not-integer"),
        pytest.param(kb_bytes(index="a\t\n"), id="empty-owner-list"),
        pytest.param(kb_bytes(index="a\tE:1\tx\n"), id="extra-index-field"),
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


def test_kb_keeps_labels_that_start_with_hash(tmp_path):
    dump = tmp_path / "x.tsv"
    dump.write_text("E:1\talpha\t#1 gene|  # spaced\nE:2\tbeta\n", encoding="utf-8")
    kb = build_kb(load_ontology(dump, name="X"), DeterministicProvider(dim=4))
    assert kb.labels == ["# spaced", "#1 gene", "alpha", "beta"]
    save_kb(kb, tmp_path / "x.kb")
    loaded = load_kb(tmp_path / "x.kb")
    assert loaded.labels == kb.labels
    assert loaded.matrix.tobytes() == kb.matrix.tobytes()


def test_save_kb_rejects_comma_in_entity_id(tmp_path):
    onto = make_ontology("X", {"E,1": ["alpha"]})
    kb = build_kb(onto, DeterministicProvider(dim=4))
    with pytest.raises(InvalidParameter):
        save_kb(kb, tmp_path / "x.kb")


@pytest.mark.parametrize("label", ["tab\tinside", "new\nline"])
def test_save_kb_rejects_tab_or_newline_in_label(tmp_path, label):
    kb = VectorKB("X", [label], [frozenset({"E:1"})], np.ones((1, 2)), "fp")
    with pytest.raises(InvalidParameter):
        save_kb(kb, tmp_path / "x.kb")


_KB_TEXT = st.characters(exclude_characters="\t\n", exclude_categories=("Cs",))
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
    owner_ids = st.text(
        st.characters(exclude_characters=",\t\n", exclude_categories=("Cs",)),
        min_size=1, max_size=5,
    )
    owners = [
        draw(st.frozensets(owner_ids, min_size=1, max_size=3)) for _ in labels
    ]
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
        owners,
        np.array(rows, dtype=np.float64),
        draw(st.text(_KB_TEXT, max_size=12)),
    )


# Components near the float64 limit overflow the norm VectorKB computes.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(deadline=None, max_examples=150)
@given(kb=random_kbs())
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
    assert loaded.owners == [kb.owners[i] for i in order]
    assert loaded.matrix.tobytes() == kb.matrix[order].tobytes()


def test_top_k_labels_preferred_label_query(disease_pipeline):
    target_kb = disease_pipeline["target_kb"]
    provider = disease_pipeline["provider"]
    query = provider.encode(["clear cell sarcoma of soft tissue"])[0]
    hits = top_k_labels(target_kb, query, k=5, tau=TAU)
    assert [(h.label, h.score) for h in hits] == [
        ("clear cell sarcoma", 0.80521),
        ("adult soft part clear cell sarcoma", 0.79),
        ("clear cell chondrosarcoma", 0.78),
    ]
    assert hits[0].entities == frozenset({"DOID:4233"})
    top3 = top_k_labels(target_kb, query, k=3, tau=TAU)
    assert {h.label for h in top3} == {
        "adult soft part clear cell sarcoma",
        "clear cell sarcoma",
        "clear cell chondrosarcoma",
    }
    top2 = top_k_labels(target_kb, query, k=2, tau=TAU)
    assert [h.label for h in top2] == [
        "clear cell sarcoma",
        "adult soft part clear cell sarcoma",
    ]


def test_top_k_labels_synonym_label_query(disease_pipeline):
    target_kb = disease_pipeline["target_kb"]
    provider = disease_pipeline["provider"]
    query = provider.encode(["clear cell sarcoma - not kidney"])[0]
    hits = top_k_labels(target_kb, query, k=5, tau=TAU)
    assert [(h.label, h.score) for h in hits] == [
        ("childhood kidney clear cell sarcoma", 0.95621),
        ("kidney clear cell sarcoma", 0.94),
        ("renal clear cell carcinoma", 0.77),
        ("sarcoma", 0.76),
    ]


def test_top_k_keeps_score_exactly_at_tau():
    vectors = {
        "query": [1.0, 0.0],
        "at-tau": [0.75, math.sqrt(1.0 - 0.75 * 0.75)],
        "below": [0.74, math.sqrt(1.0 - 0.74 * 0.74)],
    }
    onto = make_ontology("X", {"T:1": ["at-tau"], "T:2": ["below"]})
    provider = fixture_provider(vectors, dim=2)
    kb = build_kb(onto, provider)
    hits = top_k_labels(kb, np.array(vectors["query"]), k=5, tau=0.75)
    assert [(h.label, h.score) for h in hits] == [("at-tau", 0.75)]


def test_top_k_rounded_tie_breaks_by_label():
    beta = math.sqrt(1.0 - 0.8 * 0.8)
    high = 0.8 + 4e-07  # rounds to 0.8 as well
    vectors = {
        "query": [1.0, 0.0],
        "zebra": [high, math.sqrt(1.0 - high * high)],
        "apple": [0.8, beta],
    }
    onto = make_ontology("X", {"T:z": ["zebra"], "T:a": ["apple"]})
    kb = build_kb(onto, fixture_provider(vectors, dim=2))
    hits = top_k_labels(kb, np.array(vectors["query"]), k=5, tau=0.75)
    assert [(h.label, h.score) for h in hits] == [("apple", 0.8), ("zebra", 0.8)]
    top1 = top_k_labels(kb, np.array(vectors["query"]), k=1, tau=0.75)
    assert [h.label for h in top1] == ["apple"]


def test_top_k_parameter_validation(disease_pipeline):
    kb = disease_pipeline["target_kb"]
    query = np.ones(kb.dim)
    with pytest.raises(InvalidParameter):
        top_k_labels(kb, query, k=0, tau=0.75)
    with pytest.raises(InvalidParameter):
        top_k_labels(kb, query, k=5, tau=1.5)
    with pytest.raises(ZeroVector):
        top_k_labels(kb, np.zeros(kb.dim), k=5, tau=0.75)
    with pytest.raises(DimensionMismatch):
        top_k_labels(kb, np.ones(kb.dim + 1), k=5, tau=0.75)


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
    vectors = {
        "query": [1.0, 0.0],
        "shared": [0.9, math.sqrt(1.0 - 0.81)],
    }
    source = make_ontology("S", {"E": ["query"]})
    target = make_ontology("T", {"T:b": ["shared"], "T:a": ["shared"]})
    provider = fixture_provider(vectors, dim=2)
    s2t, _ = build_candidate_dbs(
        source, target, build_kb(source, provider), build_kb(target, provider),
        k=5, tau=0.75,
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
    assert s2t.candidates_of("ncit:C61325").top_score == 1.0


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


def test_candidate_entities_matches_batch_path(disease_pipeline):
    source = disease_pipeline["source"]
    provider = disease_pipeline["provider"]
    target_kb = disease_pipeline["target_kb"]
    for entity in source:
        single = candidate_entities(entity, provider, target_kb, k=5, tau=TAU)
        assert single.candidates == disease_pipeline["s2t"].lists[entity.id].candidates
        assert single.direction == DIRECTION_S2T


def test_candidate_entities_rejects_mismatched_provider(disease_pipeline):
    source = disease_pipeline["source"]
    other = DeterministicProvider(dim=4, seed=99)
    with pytest.raises(StaleKB):
        candidate_entities(
            source.entity("ncit:C3745"), other, disease_pipeline["target_kb"],
            k=5, tau=TAU,
        )


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


def test_scaled_vectors_do_not_change_scores():
    vectors_unit = {"q": [1.0, 0.0], "t": [0.8, 0.6]}
    vectors_scaled = {"q": [7.0, 0.0], "t": [2.4, 1.8]}
    for vectors in (vectors_unit, vectors_scaled):
        onto = make_ontology("T", {"T:1": ["t"]})
        kb = build_kb(onto, fixture_provider(vectors, dim=2))
        hits = top_k_labels(kb, np.array(vectors["q"]), k=1, tau=0.5)
        assert [(h.label, h.score) for h in hits] == [("t", 0.8)]


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.sampled_from([1, 3]),
    tau=st.sampled_from([0.0, 0.5]),
)
def test_top_k_matches_oracle_on_random_vectors(seed, k, tau):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    labels = [f"t{i:02d}" for i in range(n)]
    vectors = {label: rng.standard_normal(4) for label in labels}
    query = rng.standard_normal(4)
    onto = make_ontology("T", {f"E:{label}": [label] for label in labels})
    provider = fixture_provider(vectors, dim=4)
    kb = build_kb(onto, provider)
    hits = top_k_labels(kb, query, k=k, tau=tau)
    expected = oracle_top_k_labels(vectors, list(query), k=k, tau=tau)
    assert [(h.label, h.score) for h in hits] == expected
    assert all(h.score >= tau for h in hits)
    assert len(hits) <= k


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
    for db, query, query_kb, corpus_kb in (
        (s2t, source, source_kb, target_kb),
        (t2s, target, target_kb, source_kb),
    ):
        expected = oracle_direction_lists(query, query_kb, corpus_kb, k, tau)
        got = {owner: lst.candidates for owner, lst in db.lists.items()}
        assert _db_rows(got) == _db_rows(expected)
        assert list(got) == list(expected)
