"""PEU taxonomy, the per-session PEU array and the lexicon extractor."""

import numpy as np
import pytest

from psygat import peu
from psygat.sessions import Session, Utterance


def test_category_order_is_fixed():
    assert peu.CATEGORIES == (
        "cognitive_distortions",
        "hopelessness_helplessness",
        "self_negativity",
        "stressors_interpersonal",
        "emotional_behavioral_withdrawal",
        "somatic_fatigue_sleep",
        "rumination_affective_dysregulation",
        "protective_positive_coping",
    )
    assert peu.COPING == 7


class TestBuildPeuTensor:
    def _session(self, peus):
        return Session(
            id="s", persona=0, label=0,
            utterances=[Utterance(0, "q", "a"), Utterance(1, "q", "b")],
            peus=peus,
        )

    def _row(self, entries):
        """Utterance 1's row when its record lists entries."""
        return peu.build_peu_tensor(self._session([{"utt": 0, "peus": []},
                                                   {"utt": 1, "peus": entries}]))[1]

    def test_record_values_fill_its_row(self):
        row = self._row([
            {"category": "self_negativity", "value": 1, "spans": ["i am worthless"]},
            {"category": "protective_positive_coping", "value": -1, "spans": ["i try but"]},
        ])
        assert row.dtype == np.float32
        np.testing.assert_array_equal(row, [0, 0, 1, 0, 0, 0, 0, -1])

    def test_unknown_category_fails(self):
        with pytest.raises(peu.SchemaError, match="unknown PEU category 'optimism'"):
            self._row([{"category": "optimism", "value": 1}])

    def test_out_of_range_values_fail(self):
        with pytest.raises(peu.SchemaError, match="self_negativity value -1 outside 0/1"):
            self._row([{"category": "self_negativity", "value": -1}])
        with pytest.raises(peu.SchemaError, match="coping value 2 outside -1/0/1"):
            self._row([{"category": "protective_positive_coping", "value": 2}])

    @pytest.mark.parametrize("value", ["yes", "1", 0.5, None])
    def test_non_integer_value_rejected(self, value):
        with pytest.raises(peu.SchemaError, match=f"self_negativity value {value!r} outside"):
            self._row([{"category": "self_negativity", "value": value}])

    @pytest.mark.parametrize("utt,value,message", [
        (0.0, 1, "PEU annotation 0 has utt 0.0, not an int"),
        (True, 1, "PEU annotation 0 has utt True, not an int"),
        (0, True, "self_negativity value True outside 0/1"),
        (0, 1.0, "self_negativity value 1.0 outside 0/1"),
        (0, 0.0, "self_negativity value 0.0 outside 0/1"),
    ], ids=["utt-float", "utt-bool", "value-bool", "value-float", "value-zero-float"])
    def test_utt_and_value_must_be_ints(self, utt, value, message):
        # equal values of another type once filled rows silently
        s = self._session([{"utt": utt, "peus": [{"category": "self_negativity", "value": value}]},
                           {"utt": 1, "peus": []}])
        with pytest.raises(peu.SchemaError, match=message):
            peu.build_peu_tensor(s)

    @pytest.mark.parametrize("value", [True, -1.0])
    def test_coping_value_must_be_an_int(self, value):
        with pytest.raises(peu.SchemaError, match=f"coping value {value!r} outside -1/0/1"):
            self._row([{"category": "protective_positive_coping", "value": value}])

    def test_duplicate_category_with_conflicting_values_rejected(self):
        conflict = "session s: utterance 1 gives self_negativity the values 1 and 0"
        with pytest.raises(peu.SchemaError, match=conflict):
            self._row([
                {"category": "self_negativity", "value": 1, "spans": ["a"]},
                {"category": "self_negativity", "value": 0, "spans": ["b"]},
            ])

    def test_duplicate_category_with_agreeing_values_accepted(self):
        row = self._row([
            {"category": "protective_positive_coping", "value": -1, "spans": ["a"]},
            {"category": "protective_positive_coping", "value": -1, "spans": ["b"]},
        ])
        np.testing.assert_array_equal(row, [0] * 7 + [-1])

    def test_rows_follow_timeline_order(self):
        s = self._session([
            {"utt": 1, "peus": [{"category": "self_negativity", "value": 1, "spans": []}]},
            {"utt": 0, "peus": []},
        ])
        np.testing.assert_array_equal(peu.build_peu_tensor(s),
                                      [[0] * 8, [0, 0, 1, 0, 0, 0, 0, 0]])

    def test_missing_annotation_names_the_utterance(self):
        s = self._session([{"utt": 0, "peus": []}])
        with pytest.raises(peu.DataError, match="utterance 1"):
            peu.build_peu_tensor(s)

    def test_duplicate_annotation_rejected(self):
        sad = {"utt": 0, "peus": [{"category": "self_negativity", "value": 1, "spans": []}]}
        s = self._session([sad, {"utt": 1, "peus": []}, {"utt": 0, "peus": []}])
        with pytest.raises(peu.SchemaError, match="two PEU annotations for utterance 0"):
            peu.build_peu_tensor(s)

    def test_annotation_for_a_missing_utterance_rejected(self):
        s = self._session([{"utt": 0, "peus": []}, {"utt": 1, "peus": []},
                           {"utt": 7, "peus": []}])
        with pytest.raises(peu.SchemaError, match="utterance 7"):
            peu.build_peu_tensor(s)

    def test_annotation_without_utterance_index_rejected(self):
        s = self._session([{"utt": 0, "peus": []}, {"peus": []}])
        with pytest.raises(peu.SchemaError, match="without an 'utt' key"):
            peu.build_peu_tensor(s)

    def test_entry_that_is_not_a_record_rejected(self):
        with pytest.raises(peu.SchemaError,
                           match="session s: utterance 1 has PEU entry 'self_negativity', "
                                 "not a record"):
            self._row(["self_negativity"])

    @pytest.mark.parametrize("entries", ["self_negativity", {"category": "self_negativity"}, None])
    def test_entries_that_are_not_a_list_rejected(self, entries):
        with pytest.raises(peu.SchemaError,
                           match=r"session s: utterance 1 has PEU entries .*, not a list"):
            self._row(entries)

    @pytest.mark.parametrize("record", ["utt 1", [1, []], 1])
    def test_annotation_that_is_not_a_record_rejected(self, record):
        s = self._session([{"utt": 0, "peus": []}, record])
        with pytest.raises(peu.SchemaError,
                           match=r"session s: PEU annotation 1 is .*, not a record"):
            peu.build_peu_tensor(s)

    def test_empty_tensor_array_shape(self):
        rows = peu.build_peu_tensor(Session(id="e", persona=0, label=0, utterances=[]))
        assert rows.shape == (0, 8) and rows.dtype == np.float32


class TestKeywordExtract:
    def test_returns_a_float32_row(self):
        row, _ = peu.keyword_extract("I am worthless.", peu.DEFAULT_LEXICON)
        assert row.dtype == np.float32 and row.shape == (8,)

    def test_case_insensitive_match_with_verbatim_evidence(self):
        row, evidence = peu.keyword_extract("Honestly, I Am Worthless these days.",
                                            peu.DEFAULT_LEXICON)
        assert row[2] == 1
        assert ("self_negativity", "I Am Worthless") in evidence

    def test_coping_sign_from_lexicon(self):
        pos, _ = peu.keyword_extract("talking to my sister helps.", peu.DEFAULT_LEXICON)
        neg, _ = peu.keyword_extract("i try but it never helps.", peu.DEFAULT_LEXICON)
        assert pos[7] == 1
        assert neg[7] == -1

    def test_no_match_yields_zero_vector(self):
        row, evidence = peu.keyword_extract("The weather was ordinary.", peu.DEFAULT_LEXICON)
        assert not row.any() and evidence == []

    @pytest.mark.parametrize("text", ["Chi am worthless", "i stopped going outsidework",
                                      "i am worthlessness itself"])
    def test_phrase_inside_a_longer_word_does_not_match(self, text):
        row, evidence = peu.keyword_extract(text, peu.DEFAULT_LEXICON)
        assert not row.any() and evidence == []

    def test_phrase_between_punctuation_matches(self):
        _, evidence = peu.keyword_extract("(I am worthless)--really.", peu.DEFAULT_LEXICON)
        assert evidence == [("self_negativity", "I am worthless")]

    def test_every_lexicon_phrase_round_trips(self):
        for name, phrases in peu.DEFAULT_LEXICON.items():
            idx = peu.CATEGORY_INDEX[name]
            for entry in phrases:
                phrase, sign = entry if idx == peu.COPING else (entry, 1)
                row, _ = peu.keyword_extract(f"Filler before. {phrase}. Filler after.",
                                             {name: phrases})
                assert row[idx] == sign, (name, phrase)
