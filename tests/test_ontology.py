"""Label-dump parsing."""

import dataclasses
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomatch.errors import (
    DuplicateEntityId,
    EmptyOntology,
    MalformedRecord,
    UnknownEntity,
)
from ontomatch.fileio import read_records
from ontomatch.ontology import (
    Entity,
    Ontology,
    load_ontology,
    normalize_label,
)

from conftest import make_ontology
from oracles import oracle_load_ontology, oracle_read_records


def write_dump(tmp_path, text):
    path = tmp_path / "dump.tsv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_basic_dump(tmp_path):
    path = write_dump(
        tmp_path,
        "# comment line\n"
        "\n"
        "A:1\talpha term\tfirst syn|second syn\n"
        "A:2\tbeta term\n"
        "A:3\tgamma term\t\n",
    )
    onto = load_ontology(path, name="ALPHA")
    assert onto.name == "ALPHA"
    assert len(onto) == 3
    assert onto.ids == ("A:1", "A:2", "A:3")
    assert onto.entity("A:1").labels == ("alpha term", "first syn", "second syn")
    assert onto.entity("A:2").labels == ("beta term",)
    assert onto.entity("A:3").synonyms == ()
    assert "A:2" in onto
    assert "A:9" not in onto


def test_synonyms_deduplicated_and_preferred_dropped(tmp_path):
    path = write_dump(tmp_path, "A:1\talpha\tbeta|alpha|beta|  gamma  delta \n")
    onto = load_ontology(path, name="X")
    assert onto.entity("A:1").labels == ("alpha", "beta", "gamma delta")


def test_labels_are_whitespace_normalized(tmp_path):
    path = write_dump(tmp_path, "A:1\t  alpha \t beta\n")
    onto = load_ontology(path, name="X")
    entity = onto.entity("A:1")
    assert entity.preferred_label == "alpha"
    assert entity.synonyms == ("beta",)


def test_malformed_line_reports_position(tmp_path):
    path = write_dump(tmp_path, "A:1\talpha\nA:2\tbeta\tsyn\textra\n")
    with pytest.raises(MalformedRecord) as excinfo:
        load_ontology(path, name="X")
    assert excinfo.value.line_no == 2
    assert str(path) in str(excinfo.value)


def test_a_lone_cr_ends_a_line(tmp_path):
    path = tmp_path / "dump.tsv"
    path.write_bytes(b"S1\talpha\rS2\tbeta\n")
    assert load_ontology(path, name="X").ids == ("S1", "S2")


def test_single_field_line_is_malformed(tmp_path):
    path = write_dump(tmp_path, "just-an-id\n")
    with pytest.raises(MalformedRecord):
        load_ontology(path, name="X")


def test_empty_id_and_empty_preferred_rejected(tmp_path):
    with pytest.raises(MalformedRecord):
        load_ontology(write_dump(tmp_path, "\talpha\n"), name="X")
    with pytest.raises(MalformedRecord):
        load_ontology(write_dump(tmp_path, "A:1\t   \n"), name="X")


def test_duplicate_entity_id_rejected(tmp_path):
    path = write_dump(tmp_path, "A:1\talpha\nA:1\tbeta\n")
    with pytest.raises(DuplicateEntityId):
        load_ontology(path, name="X")


def test_empty_dump_rejected(tmp_path):
    path = write_dump(tmp_path, "# nothing here\n\n")
    with pytest.raises(EmptyOntology):
        load_ontology(path, name="X")


def test_ontology_constructor_rejects_duplicates():
    with pytest.raises(DuplicateEntityId):
        Ontology(
            name="X",
            entities=(
                Entity(id="A:1", preferred_label="alpha"),
                Entity(id="A:1", preferred_label="beta"),
            ),
        )


def test_a_loaded_ontology_equals_one_built_by_the_constructor(tmp_path):
    path = write_dump(
        tmp_path, "A:1\talpha\tbeta|gamma\n# comment\nA:2\tdelta\nA:3\tepsilon\t\n"
    )
    loaded = load_ontology(path, name="X")
    built = Ontology("X", (
        Entity("A:1", "alpha", ("beta", "gamma")),
        Entity("A:2", "delta"),
        Entity(id="A:3", preferred_label="epsilon"),
    ))
    assert loaded == built
    assert loaded.entities == built.entities
    assert loaded.ids == built.ids == ("A:1", "A:2", "A:3")
    for entity in built:
        assert entity.id in loaded
        assert loaded.entity(entity.id) == entity
        assert hash(loaded.entity(entity.id)) == hash(entity)
    assert "A:9" not in loaded
    for onto in (loaded, built):
        with pytest.raises(UnknownEntity, match="'X' has no entity 'A:9'"):
            onto.entity("A:9")


def test_entity_lookup_unknown_id():
    onto = make_ontology("X", {"A:1": ["alpha"]})
    with pytest.raises(UnknownEntity):
        onto.entity("A:2")


def test_entities_are_immutable():
    entity = Entity(id="A:1", preferred_label="alpha")
    with pytest.raises(dataclasses.FrozenInstanceError):
        entity.preferred_label = "beta"


@given(st.text())
def test_normalize_label_is_idempotent(text):
    once = normalize_label(text)
    assert normalize_label(once) == once
    assert once == " ".join(text.split())
    assert once == re.sub(r"\s+", " ", text).strip()


@given(st.text(alphabet=st.sampled_from(" \t\n\x0b\x0c\r\x1c\x85\xa0\u2003\u3000ab")))
def test_normalize_label_equals_the_regex_form_on_whitespace_runs(text):
    assert normalize_label(text) == re.sub(r"\s+", " ", text).strip()


def test_str_split_and_regex_agree_on_every_whitespace_code_point():
    # normalize_label splits with str.split; labels were once normalized
    # with the \s of a str regex. Both must call the same code points space.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert {c for c in every if c.isspace()} == set(re.findall(r"\s", every))


def test_disease_corpus_loads(disease_pipeline):
    source = disease_pipeline["source"]
    target = disease_pipeline["target"]
    assert len(source) == 3
    assert len(target) == 8
    assert source.entity("ncit:C3745").labels == (
        "clear cell sarcoma of soft tissue",
        "clear cell sarcoma - not kidney",
    )
    assert len(target.entity("DOID:4880").labels) == 4


# str.splitlines() ends a line at each of these; a file read must not.
SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028"
dump_labels = st.text(st.sampled_from("ab |#\xa0" + SPLITLINES_ONLY), max_size=5)
# Mostly a label with a word in it, else one that may be blank.
worded_labels = st.one_of(
    st.tuples(dump_labels, st.sampled_from("xyz"), dump_labels).map("".join),
    st.tuples(dump_labels, st.sampled_from("xyz"), dump_labels).map("".join),
    dump_labels,
)


@st.composite
def dump_lines(draw):
    """One line of a label dump, without its end: mostly a record of 2 or 3
    fields, else one of 1 or 4, a blank line or a comment."""
    kind = draw(st.sampled_from(["record"] * 6 + ["blank", "comment"]))
    lead = draw(st.sampled_from(["", " ", "\t", "\x0c ", "\x85"]))
    if kind == "blank":
        return lead + draw(st.sampled_from(["", " ", "\u2028", "\x1f"]))
    if kind == "comment":
        return lead + "#" + draw(dump_labels)
    entity_id = draw(st.one_of(
        st.integers(0, 9).map("E:{}".format),
        st.integers(0, 9).map("E:{}".format),
        st.sampled_from([" E:1 ", "E:\x85", "E\x1c2", "", " "]),
    ))
    preferred = draw(worded_labels)
    synonyms = draw(st.lists(
        st.one_of(worded_labels, st.just(preferred), st.just(f" {preferred} "),
                  st.just("")),
        max_size=4,
    ))
    fields = [entity_id, preferred, "|".join(synonyms), draw(dump_labels)]
    return "\t".join(fields[:draw(st.sampled_from([2, 3] * 6 + [1, 4]))])


@st.composite
def dump_texts(draw):
    lines = draw(st.lists(dump_lines(), max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if text and draw(st.booleans()) else text


def outcome(read):
    """What read() returns, or its error's type, line number and message;
    a generator's records before the error are kept."""
    records = []
    try:
        result = read()
        if not isinstance(result, Ontology):
            records.extend(result)
            result = records
    except (MalformedRecord, DuplicateEntityId, EmptyOntology) as exc:
        return records, type(exc), getattr(exc, "line_no", None), str(exc)
    return result


@settings(deadline=None, max_examples=150)
@given(text=dump_texts())
def test_dump_parse_equals_the_per_line_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("dump") / "dump.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(lambda: load_ontology(path, "X")) == outcome(
        lambda: oracle_load_ontology(path, "X")
    )
    for n_fields in (None, 3):
        assert outcome(lambda: read_records(path, n_fields)) == outcome(
            lambda: oracle_read_records(path, n_fields)
        )
