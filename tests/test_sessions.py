"""Session records, JSONL round-trips, splits and the leakage guard."""

import json
import re

import pytest

from psygat import sessions as S


def make_session(sid="a", split="train", source="base", n=3, persona=1, label=0):
    return S.Session(
        id=sid,
        persona=persona,
        label=label,
        utterances=[S.Utterance(i, f"q{i}", f"answer {i}") for i in range(n)],
        peus=[{"utt": i, "peus": []} for i in range(n)],
        causes=[],
        split=split,
        source=source,
    )


class TestSession:
    def test_contiguous_indices_enforced(self):
        with pytest.raises(S.CorpusError):
            S.Session(id="x", persona=0, label=0,
                      utterances=[S.Utterance(0, "q", "a"), S.Utterance(2, "q", "b")])

    @pytest.mark.parametrize("cause", [
        {"target": 3, "category": "self_negativity", "sources": [1]},
        {"target": 1, "category": "self_negativity", "sources": [-1]},
        {"target": 2, "category": "self_negativity", "sources": [0, 5]},
    ])
    def test_cause_indices_outside_the_session_rejected(self, cause):
        with pytest.raises(S.CorpusError, match="cause index"):
            S.Session(id="x", persona=0, label=1,
                      utterances=[S.Utterance(i, "q", "a") for i in range(3)], causes=[cause])

    def test_unknown_cause_category_rejected(self):
        cause = {"target": 2, "category": "sadness", "sources": [1]}
        with pytest.raises(S.CorpusError, match="unknown cause category 'sadness'"):
            S.Session(id="x", persona=0, label=1,
                      utterances=[S.Utterance(i, "q", "a") for i in range(3)], causes=[cause])

    @pytest.mark.parametrize("label", [2, -1, 0.7, 1.0, True, "1"])
    def test_label_other_than_zero_or_one_rejected(self, label):
        with pytest.raises(S.CorpusError, match=f"label {label!r} is not 0 or 1"):
            make_session(label=label)

    @pytest.mark.parametrize("persona", [2.9, 1.0, True, "2", None])
    def test_persona_that_is_not_an_int_rejected(self, persona):
        with pytest.raises(S.CorpusError, match=f"persona {persona!r} is not an int"):
            make_session(persona=persona)

    @pytest.mark.parametrize("persona", [2**63, 2**70, -2**63 - 1])
    def test_persona_past_int64_rejected(self, persona):
        with pytest.raises(S.CorpusError, match=f"session a: persona {persona} does not fit "
                                                "in int64"):
            make_session(persona=persona)

    @pytest.mark.parametrize("persona", [2**63 - 1, -2**63, -1, 0, 7])
    def test_persona_within_int64_accepted(self, persona):
        # out-of-range ids are the model's to refuse, and only when it reads personas
        assert make_session(persona=persona).persona == persona

    @pytest.mark.parametrize("index", [0.6, 1.0, True, "1"])
    def test_utterance_index_that_is_not_an_int_rejected(self, index):
        with pytest.raises(S.CorpusError, match=f"utterance index {index!r} is not an int"):
            S.Session(id="x", persona=0, label=0,
                      utterances=[S.Utterance(0, "q", "a"), S.Utterance(index, "q", "b")])

    @pytest.mark.parametrize("target,sources,bad", [
        (1.7, [0], 1.7), (True, [0], True), (2, [0.2], 0.2), (2, [0, False], False),
        (2, ["1"], "1"),
    ])
    def test_cause_index_that_is_not_an_int_rejected(self, target, sources, bad):
        cause = {"target": target, "category": "self_negativity", "sources": sources}
        with pytest.raises(S.CorpusError, match=f"cause index {bad!r} is not an int"):
            S.Session(id="x", persona=0, label=1,
                      utterances=[S.Utterance(i, "q", "a") for i in range(3)], causes=[cause])

    def test_cause_sources_that_are_not_a_list_rejected(self):
        cause = {"target": 2, "category": "self_negativity", "sources": "01"}
        with pytest.raises(S.CorpusError, match="cause sources '01' is not a list"):
            S.Session(id="x", persona=0, label=1,
                      utterances=[S.Utterance(i, "q", "a") for i in range(3)], causes=[cause])

    @pytest.mark.parametrize("question,answer", [("", 5), (None, "a")])
    def test_non_string_utterance_text_rejected(self, question, answer):
        with pytest.raises(S.CorpusError, match="utterance 0 has a non-string q or a"):
            S.Session(id="x", persona=0, label=0, utterances=[S.Utterance(0, question, answer)])

    @pytest.mark.parametrize("split", ["dev", "", "Train", None, 3, True, [], {}, ["train"]],
                             ids=["dev", "empty", "Train", "null", "int", "bool", "list",
                                  "object", "list-of-train"])
    def test_split_other_than_train_val_or_test_rejected(self, split):
        with pytest.raises(S.CorpusError, match=re.escape(f"unknown split {split!r}")):
            make_session(split=split)

    @pytest.mark.parametrize("source", ["synthetic", "", None, 3, False, [], {}],
                             ids=["synthetic", "empty", "null", "int", "bool", "list", "object"])
    def test_source_other_than_base_or_augmented_rejected(self, source):
        with pytest.raises(S.CorpusError, match=re.escape(f"unknown source {source!r}")):
            make_session(source=source)

    def test_peus_that_are_not_a_list_rejected(self):
        with pytest.raises(S.CorpusError, match="peus 5 is not a list"):
            S.Session(id="x", persona=0, label=0, utterances=[], peus=5)

    def test_text_prepends_question(self):
        s = make_session()
        assert s.text(1) == "Q: q1 A: answer 1"

    def test_text_skips_empty_question(self):
        s = S.Session(id="x", persona=0, label=0, utterances=[S.Utterance(0, "", "hi")])
        assert s.text(0) == "hi"

    def test_json_round_trip(self):
        s = make_session(sid="rt", split="val", source="base", label=1)
        assert S.Session.from_json(s.to_json()) == s


class TestCorpusIo:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        original = [make_session("a"), make_session("b", split="test")]
        S.write_sessions(path, original)
        assert S.read_sessions(path) == original

    def test_deterministic_bytes(self, tmp_path):
        s = [make_session("a")]
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        S.write_sessions(p1, s)
        S.write_sessions(p2, s)
        assert p1.read_bytes() == p2.read_bytes()

    def test_negative_cause_source_fails_on_load(self, tmp_path):
        # the record a generator with causal_lag_min >= 2 once wrote for an
        # early target: source -1 would index the last utterance
        record = make_session("early", n=4, label=1).to_json()
        record["causes"] = [{"target": 1, "category": "self_negativity", "sources": [-1]}]
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(S.CorpusError, match=":1:.*cause index -1"):
            S.read_sessions(path)

    @pytest.mark.parametrize("sid", [None, 7, ["a"]], ids=["null", "int", "list"])
    def test_non_string_id_fails_on_load_naming_the_line(self, tmp_path, sid):
        # checked, not converted: null would load as the id "None", 7 as "7"
        path = tmp_path / "ids.jsonl"
        path.write_text(json.dumps(make_session().to_json()) + "\n"
                        + json.dumps({**make_session().to_json(), "id": sid}) + "\n")
        with pytest.raises(S.CorpusError, match=":2:.*" + re.escape(f"session id {sid!r} is not a string")):
            S.read_sessions(path)

    @pytest.mark.parametrize("field,value", [
        ("split", []), ("split", {}), ("split", "dev"),
        ("source", None), ("source", 3), ("source", []),
    ], ids=["split-list", "split-object", "split-unknown", "source-null", "source-int",
            "source-list"])
    def test_unknown_split_or_source_fails_on_load_naming_the_line(self, tmp_path, field, value):
        path = tmp_path / "fields.jsonl"
        path.write_text(json.dumps(make_session().to_json()) + "\n"
                        + json.dumps({**make_session("b").to_json(), field: value}) + "\n")
        with pytest.raises(S.CorpusError,
                           match=":2:.*" + re.escape(f"unknown {field} {value!r}")):
            S.read_sessions(path)

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x"}\n')
        with pytest.raises(S.CorpusError, match=":1:"):
            S.read_sessions(path)


class TestSplitsAndLeakage:
    def test_split_sessions(self):
        splits = S.split_sessions([make_session("a"), make_session("b", split="val"),
                                   make_session("c", split="test")])
        assert [s.id for s in splits["train"]] == ["a"]
        assert [s.id for s in splits["val"]] == ["b"]
        assert [s.id for s in splits["test"]] == ["c"]

    def test_unknown_split_rejected(self):
        with pytest.raises(S.CorpusError):
            S.split_sessions([make_session("a", split="dev")])

    def test_repeated_id_rejected_within_and_across_splits(self):
        for second in (make_session("a"), make_session("a", split="test")):
            with pytest.raises(S.CorpusError, match="^session id 'a' occurs more than once$"):
                S.split_sessions([make_session("a"), make_session("b", split="val"), second])

    def test_split_sessions_refuses_augmented_sessions_outside_train(self):
        with pytest.raises(S.CorpusError, match="outside the train split: leaky"):
            S.split_sessions([make_session("ok", source="augmented"),
                              make_session("leaky", split="val", source="augmented")])

    def test_leakage_guard_passes_clean_corpus(self):
        S.check_no_augmented_leakage(
            [make_session("a", source="augmented"), make_session("b", split="val")]
        )

    def test_leakage_guard_names_offenders(self):
        bad = [make_session("ok", source="augmented"),
               make_session("leaky", split="val", source="augmented")]
        with pytest.raises(S.CorpusError, match="leaky"):
            S.check_no_augmented_leakage(bad)
