"""The shared text record grammar: read_records, read_text, and the one
header line read_alignment reads before its records."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomatch.errors import ConfigError, MalformedRecord
from ontomatch.fileio import read_records, read_text
from ontomatch.matcher import read_alignment

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


def test_read_alignment_reads_its_one_opening_header_line(tmp_path):
    # The header is the first line; later '#' lines are comments.
    path = tmp_path / "alignment.tsv"
    path.write_bytes(b"#S  T 5 0.75\tfp \r\n#\n#two\ns\tt\t=\t0.5\tHCB\n# late\n")
    alignment = read_alignment(path)
    assert (alignment.source_onto, alignment.target_onto) == ("S", "T")
    assert (alignment.k, alignment.tau, alignment.fingerprint) == (5, 0.75, "fp")
    assert alignment.correspondences == (("s", "t", "=", 0.5, "HCB"),)
    assert list(read_records(path, 5)) == [(4, ["s", "t", "=", "0.5", "HCB"])]
    for text, reason in (
        (b"", "missing alignment header"),
        (b" # S T 5 0.75 fp\n", "missing alignment header"),
        (b"s\tt\t=\t0.5\tHCB\n# S T 5 0.75 fp\n", "missing alignment header"),
        (b"# S T 5 0.75\n# fp\n", "header needs 5 fields"),
        (b"# S T 5 high fp\n", "bad k/tau in header"),
    ):
        path.write_bytes(text)
        with pytest.raises(MalformedRecord, match=reason) as info:
            read_alignment(path)
        assert info.value.line_no == 1


def test_text_that_is_not_utf8_is_a_malformed_record(tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(b"# caf\xe9\na:1\t\xe9t\xe9\n")
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
