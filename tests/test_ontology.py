"""Label-dump parsing."""

import dataclasses
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontomatch.errors import (
    DuplicateEntityId,
    EmptyOntology,
    MalformedRecord,
    UnknownEntity,
)
from ontomatch.ontology import (
    Entity,
    Ontology,
    load_ontology,
    normalize_label,
)

from conftest import make_ontology


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
