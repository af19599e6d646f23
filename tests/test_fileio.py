"""The shared text record grammar: read_records, its inverse write_records
and every artifact writer built on it, read_text, and the header lines
read_alignment reads before its records."""

import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomatch import cli
from ontomatch.candidates import CandidateDB, CandidateList, save_candidate_db
from ontomatch.embedding import write_vector_file
from ontomatch.errors import ConfigError, InvalidParameter, MalformedRecord
from ontomatch.evaluation import write_reference
from ontomatch.fileio import format_header, read_records, read_text, write_records
from ontomatch.matcher import (
    Alignment, Correspondence, MatchRunReport, TraceEvent, read_alignment,
    write_alignment, write_trace,
)
from ontomatch.synth import _write_corpus

# Fields hold no tab or line break; the file is UTF-8, so no surrogates.
FIELD_CHARS = st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\t\r\n"
)
field_text = st.text(FIELD_CHARS, max_size=6)
# A record's first field must not make the line read as blank or a comment.
first_field = field_text.filter(lambda s: s.strip() and not s.lstrip().startswith("#"))
skipped_lines = st.sampled_from(["", "   ", "\t", "#", "# comment", "  #\tindented"])


@st.composite
def record_files(draw):
    """Lines of a file: ("record", fields) mixed with ("skip", text)."""
    n_fields = draw(st.integers(1, 4))
    lines = draw(st.lists(st.one_of(
        st.tuples(st.just("skip"), skipped_lines),
        st.tuples(
            st.just("record"),
            st.tuples(first_field, st.lists(field_text, min_size=n_fields - 1,
                                            max_size=n_fields - 1)),
        ),
    ), max_size=12))
    lines = [
        (kind, [body[0], *body[1]] if kind == "record" else body)
        for kind, body in lines
    ]
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                            min_size=len(lines), max_size=len(lines)))
    last_ending = draw(st.sampled_from(["\n", "\r\n", ""]))
    return n_fields, lines, endings[:-1] + [last_ending] if lines else []


def write_lines(path, lines, endings):
    text = "".join(
        ("\t".join(body) if kind == "record" else body) + ending
        for (kind, body), ending in zip(lines, endings)
    )
    path.write_bytes(text.encode("utf-8"))


@settings(deadline=None, max_examples=150)
@given(data=record_files(), bad_at=st.integers(0, 12), extra=st.booleans())
def test_read_records_property(tmp_path_factory, data, bad_at, extra):
    n_fields, lines, endings = data
    path = tmp_path_factory.mktemp("records") / "file.tsv"
    write_lines(path, lines, endings)
    expected = [
        (line_no, body)
        for line_no, (kind, body) in enumerate(lines, start=1)
        if kind == "record"
    ]
    assert list(read_records(path, n_fields)) == expected
    assert list(read_records(path)) == expected

    # One record with a wrong field count raises at its own line, after the
    # records before it were yielded.
    bad_at = min(bad_at, len(lines))
    bad_fields = ["x"] * (n_fields + 1 if extra or n_fields == 1 else n_fields - 1)
    lines.insert(bad_at, ("record", bad_fields))
    endings.insert(bad_at, "\n")
    if bad_at == len(lines) - 1 and len(lines) > 1 and endings[-2] == "":
        endings[-2] = "\n"
    write_lines(path, lines, endings)
    seen = []
    with pytest.raises(MalformedRecord) as info:
        for record in read_records(path, n_fields):
            seen.append(record)
    assert info.value.line_no == bad_at + 1
    assert seen == [r for r in expected if r[0] <= bad_at]


def test_read_alignment_reads_its_opening_header_lines(tmp_path):
    # Five header lines, LF, CRLF or a lone CR, open the file and their
    # values are any text without a line break; later '#' lines are comments.
    path = tmp_path / "alignment.tsv"
    header = b"# source S  T\n# target \t\n# k 5\r\n# tau 0.75\n# provider fp \r\n"
    body = b"#\r\n#two\ns\tt\t=\t0.5\tHCB\n# late\n"
    for text in (header + body, (header + body).replace(b"\r\n", b"\n").replace(b"\n", b"\r")):
        path.write_bytes(text)
        alignment = read_alignment(path)
        assert (alignment.source_onto, alignment.target_onto) == ("S  T", "\t")
        assert (alignment.k, alignment.tau, alignment.fingerprint) == (5, 0.75, "fp ")
        assert alignment.correspondences == (("s", "t", "=", 0.5, "HCB"),)
        assert list(read_records(path, 5)) == [(8, ["s", "t", "=", "0.5", "HCB"])]
    row = b"S00000\tT\t=\t0.5\tHCB\n"
    for text, line_no, reason in (
        (b"", 1, "missing header '# source ...'"),
        (b"# S T 5 0.75 fp\n", 1, "missing header '# source ...'"),  # older layout
        (b" " + header, 1, "missing header '# source ...'"),
        (b"s\tt\t=\t0.5\tHCB\n" + header, 1, "missing header '# source ...'"),
        (header.replace(b"# k 5", b"# k high"), 3, "bad k header 'high'"),
        (header.replace(b"# provider fp \r\n", b""), 5,
         "missing header '# provider ...'"),
        (header + row + b"# a comment\n" + row, 8, "source 'S00000' repeats line 6"),
    ):
        path.write_bytes(text)
        with pytest.raises(MalformedRecord) as info:
            read_alignment(path)
        assert (info.value.line_no, info.value.reason) == (line_no, reason)


def test_text_that_is_not_utf8_is_a_malformed_record(tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(
        b"# source S\n# target T\n# k 5\n# tau 0.75\n# provider fp\n"
        b"# caf\xe9\na:1\t\xe9t\xe9\n"
    )
    for read in (read_alignment, lambda p: list(read_records(p)), read_text):
        with pytest.raises(MalformedRecord, match="not UTF-8 text") as info:
            read(path)
        assert info.value.line_no == 0


def test_a_file_that_cannot_be_opened_is_a_config_error(tmp_path):
    for path in (tmp_path / "missing.txt", tmp_path):
        message = re.escape(f"cannot read prompt template {path}: ")
        with pytest.raises(ConfigError, match=message):
            read_text(path, "prompt template")
        with pytest.raises(ConfigError, match=re.escape(f"cannot read {path}: ")):
            list(read_records(path))


def test_read_text_ends_every_line_in_lf(tmp_path):
    path = tmp_path / "text.txt"
    path.write_bytes("a\r\nb\rc\x85d\u2028e\n\nf".encode("utf-8"))
    assert read_text(path) == "a\nb\nc\x85d\u2028e\n\nf"


# Tab, LF and CR end a field or a line; '#' makes a comment; the last four
# are whitespace that lstrip() removes but that ends no line read_records
# reads. "!" sorts below "#" but starts a record like "a".
RECORD_CHARS = [
    "a", "!", "#", " ", "\t", "\n", "\r", "\x1c", "\u3000", "\x85", "\u2028"
]
record_lists = st.lists(
    st.lists(st.text(st.sampled_from(RECORD_CHARS), max_size=3),
             min_size=1, max_size=5),
    max_size=6,
)
# The heads the writers pass: a format_header block, or a comment line.
heads = st.one_of(
    st.just(""),
    st.just("# label\tcomma-separated components\n"),
    st.lists(st.text(st.sampled_from(RECORD_CHARS[:5] + RECORD_CHARS[7:]), max_size=4),
             max_size=3).map(
        lambda values: format_header([(f"key{i}", str) for i in range(len(values))],
                                     values)
    ),
)


@settings(deadline=None, max_examples=300)
@given(records=record_lists, head=heads)
def test_write_records_is_the_inverse_of_read_records(tmp_path_factory, records, head):
    # the file a writer that checks nothing would write
    naive = tmp_path_factory.mktemp("naive") / "file.tsv"
    naive.write_bytes(
        (head + "".join("\t".join(fields) + "\n" for fields in records)).encode()
    )
    expected = list(enumerate(records, start=head.count("\n") + 1))
    directory = tmp_path_factory.mktemp("records")
    path = directory / "file.tsv"
    try:
        write_records(path, records, head)
    except InvalidParameter:
        assert list(read_records(naive)) != expected
        assert os.listdir(directory) == []
    else:
        assert list(read_records(naive)) == expected
        assert path.read_bytes() == naive.read_bytes()


def _report(pipeline):
    alignment = Alignment("S", "T", 5, 0.75, "fp", ())
    return MatchRunReport(pipeline, alignment, [], 0, 0)


# Each artifact writer, writing into a directory a record that holds text.
WRITERS = {
    "candidate-db": lambda out, text: save_candidate_db(
        CandidateDB("s2t", "S", "T", 5, 0.75, "fp",
                    {text: CandidateList((("t", 0.9),))}),
        os.path.join(out, "s2t.tsv"),
    ),
    "alignment": lambda out, text: write_alignment(
        Alignment("S", "T", 5, 0.75, "fp", (
            Correspondence(text, "t", "equivalence", 0.9, "HCB"),
        )),
        os.path.join(out, "alignment.tsv"),
    ),
    "trace": lambda out, text: write_trace(
        [TraceEvent(text, 1, "t", "LLM-no")], os.path.join(out, "trace.tsv")
    ),
    "reference": lambda out, text: write_reference(
        frozenset({(text, "t")}), os.path.join(out, "reference.tsv")
    ),
    "vector-file": lambda out, text: write_vector_file(
        os.path.join(out, "vectors.tsv"), {text: np.ones(2)}
    ),
    "entity-dump": lambda out, text: _write_corpus(
        out, [(text, "label", "")], [], [], {}, n_pairs=0, hcb_pairs=0,
        parasite_pairs=0, dim=2, seed=0, synonym_rate=0.0, noise_level=0.0,
        hcb_fraction=0.0,
    ),
    # the pipeline names head compare.tsv's columns
    "compare-tsv": lambda out, text: cli._compare(
        SimpleNamespace(out=out), frozenset(), _report(text), _report("baseline")
    ),
}


@pytest.mark.parametrize("writer, text, reason", [
    *((name, "a\rb", "carriage return") for name in WRITERS),
    *((name, " #a", "comments") for name in WRITERS if name != "compare-tsv"),
])
def test_each_artifact_writer_refuses_a_record_that_would_not_read_back(
    tmp_path, writer, text, reason
):
    with pytest.raises(InvalidParameter, match=reason):
        WRITERS[writer](str(tmp_path), text)
    assert os.listdir(tmp_path) == []
