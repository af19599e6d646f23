"""Prompt template, verdict parsing, and the three client kinds."""

import concurrent.futures
import json
import re
from contextlib import closing

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ontomatch import llm
from ontomatch.errors import (
    ConfigError,
    EndpointUnavailable,
    InvalidParameter,
    MissingPlaceholder,
)
from ontomatch.llm import (
    DEFAULT_PROMPT_TEMPLATE,
    PLACEHOLDERS,
    HttpChatClient,
    OracleClient,
    PromptTemplate,
    Verdict,
    parse_reply,
    render_prompt,
)
from ontomatch.matcher import match_baseline

from conftest import make_db, make_ontology
from stubs import RecordingServer, ScriptedClient, chat_behavior


def test_default_template_has_each_placeholder_once():
    template = PromptTemplate.default()
    for name in PLACEHOLDERS:
        assert template.text.count("{" + name + "}") == 1
    assert "answer 'Yes'" in template.text
    assert "Otherwise, answer 'No'." in template.text


def test_render_prompt_known_pair():
    rendered = render_prompt(
        PromptTemplate.default(),
        "NCIT",
        "DOID",
        "clear cell sarcoma of soft tissue",
        "kidney clear cell sarcoma",
    )
    assert "The source ontology is called NCIT" in rendered
    assert "the target ontology is called DOID" in rendered
    assert "Source concept: clear cell sarcoma of soft tissue\n" in rendered
    assert "Target concept: kidney clear cell sarcoma\n" in rendered
    assert "{" not in rendered
    again = render_prompt(
        PromptTemplate.default(),
        "NCIT",
        "DOID",
        "clear cell sarcoma of soft tissue",
        "kidney clear cell sarcoma",
    )
    assert rendered == again


def test_render_prompt_does_not_reexpand_label_text():
    rendered = render_prompt(
        PromptTemplate.default(), "S", "T", "{target_entity}", "real label"
    )
    assert "Source concept: {target_entity}\n" in rendered
    assert rendered.count("real label") == 1


def test_render_prompt_rejects_empty_fields():
    template = PromptTemplate.default()
    with pytest.raises(InvalidParameter):
        render_prompt(template, "", "T", "a", "b")
    with pytest.raises(InvalidParameter):
        render_prompt(template, "S", "T", "a", "")


def test_template_placeholder_validation():
    with pytest.raises(MissingPlaceholder):
        PromptTemplate("no placeholders at all")
    with pytest.raises(MissingPlaceholder):
        PromptTemplate(
            "{src_onto_name} {tgt_onto_name} {source_entity} "
            "{source_entity} {target_entity}"
        )
    missing_one = DEFAULT_PROMPT_TEMPLATE.replace("{target_entity}", "X")
    with pytest.raises(MissingPlaceholder):
        PromptTemplate(missing_one)


def test_template_from_file(tmp_path):
    path = tmp_path / "prompt.txt"
    path.write_text(DEFAULT_PROMPT_TEMPLATE, encoding="utf-8")
    assert PromptTemplate.from_file(path).text == DEFAULT_PROMPT_TEMPLATE
    path.write_text("broken", encoding="utf-8")
    with pytest.raises(MissingPlaceholder):
        PromptTemplate.from_file(path)


@pytest.mark.parametrize(
    "reply, expected",
    [
        ("yes", Verdict.YES),
        ("Yes.", Verdict.YES),
        ("'Yes'", Verdict.YES),
        ("YES!", Verdict.YES),
        ("  Yes\nthey are equivalent", Verdict.YES),
        ("NO", Verdict.NO),
        ("no way", Verdict.NO),
        ("No, these differ", Verdict.NO),
        ("maybe", Verdict.UNPARSEABLE),
        ("The answer is yes", Verdict.UNPARSEABLE),
        ("", Verdict.UNPARSEABLE),
        ("   ", Verdict.UNPARSEABLE),
        ("!!", Verdict.UNPARSEABLE),
    ],
)
def test_parse_reply_table(reply, expected):
    assert parse_reply(reply) is expected


@given(st.text(max_size=60))
def test_parse_reply_is_total_and_deterministic(text):
    first = parse_reply(text)
    assert first in (Verdict.YES, Verdict.NO, Verdict.UNPARSEABLE)
    assert parse_reply(text) is first


def test_oracle_membership_exhaustive():
    reference = {(f"S{i:02d}", f"T{i:02d}") for i in range(50)}
    client = OracleClient(reference)
    for i in range(50):
        for j in range(0, 50, 7):
            verdict = client.classify("p", pair=(f"S{i:02d}", f"T{j:02d}"))
            expected = Verdict.YES if i == j else Verdict.NO
            assert verdict.value is expected
    assert client.query_count == 50 * 8


def test_oracle_requires_pair_metadata():
    client = OracleClient([("a", "b")])
    with pytest.raises(InvalidParameter):
        client.classify("prompt without pair")


def test_oracle_flip_probability_validation():
    with pytest.raises(InvalidParameter):
        OracleClient([], flip_probability=1.5)


def test_oracle_flips_are_deterministic_and_order_independent():
    reference = {(f"S{i}", f"T{i}") for i in range(40)}
    pairs = [(f"S{i}", f"T{j}") for i in range(40) for j in (i, (i + 1) % 40)]
    first = OracleClient(reference, flip_probability=0.3, seed=9)
    verdicts_forward = {
        p: first.classify("x", pair=p).value for p in pairs
    }
    second = OracleClient(reference, flip_probability=0.3, seed=9)
    verdicts_reversed = {
        p: second.classify("x", pair=p).value for p in reversed(pairs)
    }
    assert verdicts_forward == verdicts_reversed
    different_seed = OracleClient(reference, flip_probability=0.3, seed=10)
    changed = {
        p: different_seed.classify("x", pair=p).value for p in pairs
    }
    assert changed != verdicts_forward


def test_oracle_flip_rate_is_plausible():
    client = OracleClient([], flip_probability=0.1, seed=1)
    flips = sum(
        client.classify("x", pair=(f"S{i}", f"T{j}")).value is Verdict.YES
        for i in range(50)
        for j in range(50)
    )
    assert 0.05 * 2500 < flips < 0.15 * 2500


def test_oracle_zero_flip_never_flips():
    client = OracleClient([("a", "b")], flip_probability=0.0, seed=3)
    assert client.classify("x", pair=("a", "b")).value is Verdict.YES
    assert client.classify("x", pair=("a", "c")).value is Verdict.NO


def test_scripted_client_sequence_and_exhaustion():
    client = ScriptedClient(["No", "Yes"])
    assert client.classify("a", pair=("s", "t")).value is Verdict.NO
    assert client.classify("b", pair=("s", "u")).value is Verdict.YES
    with pytest.raises(InvalidParameter):
        client.classify("c")
    assert client.query_count == 2


def test_query_count_includes_unparseable_and_is_thread_safe():
    client = ScriptedClient(["gibberish"] * 64)
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        verdicts = list(pool.map(lambda i: client.classify(f"p{i}"), range(64)))
    assert all(v.value is Verdict.UNPARSEABLE for v in verdicts)
    assert client.query_count == 64


def test_a_client_without_a_log_serializes_no_record(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a log line was built")

    # every log line encodes its prompt through llm._json_text
    monkeypatch.setattr(llm, "_json_text", refuse)
    client = OracleClient([("s", "t")])
    assert client.classify("prompt", pair=("s", "t")).is_yes
    assert client.query_count == 1
    # the same patch stops a client that has a log, so it is on the line's path
    logged = OracleClient([("s", "t")], log_path=str(tmp_path / "llm_log.jsonl"))
    with pytest.raises(AssertionError, match="a log line was built"):
        logged.classify("prompt", pair=("s", "t"))
    assert logged.query_count == 0


# Text that JSON escapes, or that ensure_ascii=False leaves as it is.
JSON_TRICKY = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\b\t\n\r\u2028\u2029\ufeff\U0001f600\U0010ffff'),
    st.characters(blacklist_categories=("Cs",)),
))


@given(
    pair=st.none() | st.just(()) | st.tuples(JSON_TRICKY, JSON_TRICKY),
    prompt=JSON_TRICKY,
    reply=JSON_TRICKY,
    verdict=st.sampled_from([verdict.value for verdict in Verdict]),
    latency=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    attempts=st.integers(min_value=1, max_value=2**40),
)
def test_a_log_line_is_the_json_dump_of_its_record(
    pair, prompt, reply, verdict, latency, attempts
):
    record = {
        "pair": list(pair) if pair else None,
        "prompt": prompt,
        "reply": reply,
        "verdict": verdict,
        "latency_s": round(latency, 6),
        "attempts": attempts,
    }
    line = llm._log_line(pair, prompt, reply, verdict, latency, attempts)
    assert line == json.dumps(record, ensure_ascii=False) + "\n"


REFERENCE_PLACEHOLDER = re.compile(r"\{(" + "|".join(PLACEHOLDERS) + r")\}")


def reference_render(text, src_onto, tgt_onto, src_label, tgt_label):
    """The single-pass regex substitution render_prompt must equal."""
    values = dict(zip(PLACEHOLDERS, (src_onto, tgt_onto, src_label, tgt_label)))
    return REFERENCE_PLACEHOLDER.sub(lambda match: values[match.group(1)], text)


# Braces, backslashes, regex group references and placeholder fragments.
FRAGMENTS = ["{", "}", "{{", "}}", "\\", "\\1", "\\g<1>", "$1", "x", " ", "\n",
             "é", "\U0001f600", "{src_onto_name", "tgt_onto_name}",
             "{ target_entity}", "{0}", "%s"]
GAP_TEXT = st.lists(st.sampled_from(FRAGMENTS)).map("".join)
LABEL_TEXT = st.lists(
    st.sampled_from(FRAGMENTS + ["{" + name + "}" for name in PLACEHOLDERS]),
    min_size=1,
).map("".join)


@given(
    order=st.permutations(PLACEHOLDERS),
    gaps=st.lists(GAP_TEXT, min_size=5, max_size=5),
    values=st.lists(LABEL_TEXT, min_size=4, max_size=4),
)
def test_render_prompt_equals_the_regex_reference(order, gaps, values):
    text = gaps[0] + "".join(
        "{" + name + "}" + gap for name, gap in zip(order, gaps[1:])
    )
    try:
        template = PromptTemplate(text)
    except MissingPlaceholder:  # a gap spelled out a second placeholder
        assume(False)
    assert template.text == text
    assert render_prompt(template, *values) == reference_render(text, *values)


class CountingPattern:
    """Wraps a compiled pattern and counts every method taken from it."""

    def __init__(self, pattern):
        self._pattern = pattern
        self.calls = 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self._pattern, name)


def test_a_logged_walk_builds_no_encoder_and_runs_no_regex(monkeypatch, tmp_path):
    ids = [f"S{i:02d}" for i in range(50)]
    source = make_ontology("S", {sid: [f"source {sid}"] for sid in ids})
    target = make_ontology("T", {
        f"T{sid}-{j}": [f"target {sid} {j}"] for sid in ids for j in range(4)
    })
    s2t = make_db("s2t", "S", "T", {
        sid: [(f"T{sid}-{j}", 0.9 - j / 10) for j in range(4)] for sid in ids
    })
    client = OracleClient([(sid, f"T{sid}-2") for sid in ids],
                          log_path=str(tmp_path / "llm_log.jsonl"))
    template = PromptTemplate.default()
    encoders = []
    built = json.JSONEncoder.__init__

    def counting_init(self, *args, **kwargs):
        encoders.append(self)
        built(self, *args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "__init__", counting_init)
    pattern = CountingPattern(llm._PLACEHOLDER_RE)
    monkeypatch.setattr(llm, "_PLACEHOLDER_RE", pattern)
    with closing(client):
        report = match_baseline(None, s2t, client, template,
                                source_onto=source, target_onto=target)
    assert client.query_count == 200
    assert len(report.alignment) == 50
    assert (encoders, pattern.calls) == ([], 0)
    lines = (tmp_path / "llm_log.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 200


def test_exchange_log_written_as_jsonl(tmp_path, monkeypatch):
    log_path = tmp_path / "log" / "llm_log.jsonl"
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(llm, "open", counting_open, raising=False)
    with closing(OracleClient([("s", "t")], log_path=str(log_path))) as client:
        client.classify("first prompt", pair=("s", "t"))
        client.classify("second prompt", pair=("s", "x"))
        # each record is flushed as it is written, while the log stays open
        lines = log_path.read_text(encoding="utf-8").splitlines()
    assert opened == [str(log_path)]
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    # the shared encoder writes what json.dumps writes, key order included
    assert [json.dumps(r, ensure_ascii=False) for r in records] == lines
    assert records[0]["pair"] == ["s", "t"]
    assert records[0]["verdict"] == "Yes"
    assert records[1]["verdict"] == "No"
    assert records[0]["prompt"] == "first prompt"
    assert records[0]["reply"] == "Yes"


def test_http_chat_client_happy_path(tmp_path):
    log_path = tmp_path / "llm_log.jsonl"
    with RecordingServer(chat_behavior(["Yes."])) as server:
        client = HttpChatClient(server.url, model="m-1", temperature=0.7,
                                backoff_seconds=0.01, log_path=str(log_path))
        with closing(client):
            verdict = client.classify("are these the same?", pair=("s", "t"))
        assert verdict.value is Verdict.YES
        assert json.loads(log_path.read_text(encoding="utf-8"))["reply"] == "Yes."
        assert verdict.attempts == 1
        payload = server.payloads[0]
        assert payload["model"] == "m-1"
        assert payload["temperature"] == 0.7
        assert payload["messages"] == [
            {"role": "user", "content": "are these the same?"}
        ]
        assert client.query_count == 1


def test_http_chat_client_retries_then_succeeds():
    def behavior(payload, index):
        if index == 0:
            return 502, {"error": "bad gateway"}
        return chat_behavior(["No"])(payload, index)

    with RecordingServer(behavior) as server:
        client = HttpChatClient(server.url, model="m", backoff_seconds=0.01)
        verdict = client.classify("prompt")
        assert verdict.value is Verdict.NO
        assert verdict.attempts == 2
        assert len(server.payloads) == 2


def test_http_chat_client_exhausts_retries():
    with RecordingServer(lambda p, i: (500, {"error": "down"})) as server:
        client = HttpChatClient(server.url, model="m", max_retries=3,
                                backoff_seconds=0.01)
        with pytest.raises(EndpointUnavailable):
            client.classify("prompt")
        assert len(server.payloads) == 3


def test_http_chat_client_rejection_fails_fast():
    with RecordingServer(lambda p, i: (401, {"error": "denied"})) as server:
        client = HttpChatClient(server.url, model="m", backoff_seconds=0.01)
        with pytest.raises(EndpointUnavailable):
            client.classify("prompt")
        assert len(server.payloads) == 1


def test_http_chat_client_bad_payload():
    with RecordingServer(lambda p, i: (200, {"unexpected": True})) as server:
        client = HttpChatClient(server.url, model="m", backoff_seconds=0.01)
        with pytest.raises(EndpointUnavailable):
            client.classify("prompt")


def test_http_chat_client_dead_endpoint():
    client = HttpChatClient("http://127.0.0.1:1/v1", model="m",
                            max_retries=2, backoff_seconds=0.01, timeout=0.5)
    with pytest.raises(EndpointUnavailable):
        client.classify("prompt")


def test_http_chat_client_sends_token(monkeypatch):
    monkeypatch.setenv("CHAT_TOKEN", "hunter2")
    with RecordingServer(chat_behavior(["Yes"])) as server:
        client = HttpChatClient(server.url, model="m", token_env="CHAT_TOKEN",
                                backoff_seconds=0.01)
        client.classify("p")
        assert server.auth_headers == ["Bearer hunter2"]


def test_http_chat_client_missing_token_env(monkeypatch):
    monkeypatch.delenv("CHAT_TOKEN", raising=False)
    with pytest.raises(ConfigError):
        HttpChatClient("http://127.0.0.1:9/v1", model="m", token_env="CHAT_TOKEN")

