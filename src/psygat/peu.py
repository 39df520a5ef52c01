"""Psychological expression units: per-utterance evidence vectors.

Eight categories in a fixed canonical order. The first seven are binary
presence flags; the coping dimension is ternary (-1 mitigating, 0 absent,
+1 positive). A session's annotations become one float32 (T, 8) array,
one row per utterance, and that array is all the model, the graph edges
and the causal scorer read. The spans in the raw records stay in
`Session.peus`; only `keyword_extract` returns evidence, for display.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

from .errors import DataError, SchemaError

CATEGORIES = (
    "cognitive_distortions",
    "hopelessness_helplessness",
    "self_negativity",
    "stressors_interpersonal",
    "emotional_behavioral_withdrawal",
    "somatic_fatigue_sleep",
    "rumination_affective_dysregulation",
    "protective_positive_coping",
)
NUM_CATEGORIES = 8
COPING = NUM_CATEGORIES - 1
CATEGORY_INDEX = {name: i for i, name in enumerate(CATEGORIES)}


def _fill_row(row, rec, session_id, utt):
    """Write one record's {"category", "value", "spans"} entries into row.

    A category listed twice must give the same value both times.
    """
    entries = rec.get("peus", [])
    if not isinstance(entries, list):
        raise SchemaError(f"session {session_id}: utterance {utt} has PEU entries "
                          f"{entries!r}, not a list")
    seen = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise SchemaError(f"session {session_id}: utterance {utt} has PEU entry "
                              f"{entry!r}, not a record")
        name = entry.get("category")
        if name not in CATEGORIES:
            raise SchemaError(f"unknown PEU category {name!r}")
        idx = CATEGORY_INDEX[name]
        value = entry.get("value", 1)
        allowed = (-1, 0, 1) if idx == COPING else (0, 1)
        if type(value) is not int or value not in allowed:  # rejects True and 1.0 too
            label = "coping" if idx == COPING else name
            raise SchemaError(f"{label} value {value!r} outside {'/'.join(map(str, allowed))}")
        if seen.setdefault(idx, value) != value:
            raise SchemaError(f"session {session_id}: utterance {utt} gives {name} "
                              f"the values {seen[idx]} and {value}")
        row[idx] = value


def build_peu_tensor(session):
    """float32 (T, 8) PEU values of a session, one row per utterance in
    timeline order.

    Every participant utterance must carry exactly one annotation record
    {"utt": int, "peus": [...]} (an empty one is fine); a gap is a data
    error, not a silent zero row, and a second record or one for a
    missing utterance is a schema error, not a silently dropped one. An
    utt or entry value that is not an int (a bool or float) is a schema
    error, not a silently rounded one.
    """
    for k, rec in enumerate(session.peus):
        if not isinstance(rec, dict):
            raise SchemaError(f"session {session.id}: PEU annotation {k} is {rec!r}, not a record")
        if "utt" not in rec:
            raise SchemaError(f"session {session.id}: a PEU annotation without an 'utt' key")
        if type(rec["utt"]) is not int:  # 0.0 and True would index rows 0 and 1
            raise SchemaError(f"session {session.id}: PEU annotation {k} has utt "
                              f"{rec['utt']!r}, not an int")
    by_utt = {rec["utt"]: rec for rec in session.peus}
    if len(by_utt) != len(session.peus):
        dup = next(u for u, n in Counter(rec["utt"] for rec in session.peus).items() if n > 1)
        raise SchemaError(f"session {session.id}: two PEU annotations for utterance {dup}")
    rows = np.zeros((session.T, NUM_CATEGORIES), dtype=np.float32)
    for utt in session.utterances:
        rec = by_utt.get(utt.index)
        if rec is None:
            raise DataError(f"session {session.id}: no PEU annotation for utterance {utt.index}")
        _fill_row(rows[utt.index], rec, session.id, utt.index)
    if len(by_utt) != session.T:  # every utterance has its record, so the rest name none
        extra = next(u for u in by_utt if u not in range(session.T))
        raise SchemaError(f"session {session.id}: PEU annotation for utterance {extra}, "
                          f"which the session does not have")
    return rows


def keyword_extract(text, lexicon):
    """Deterministic lexicon matcher: (float32 (8,) PEU row, evidence), the
    evidence a list of (category name, verbatim span) pairs.

    lexicon: category name -> list of phrases, or for coping a list of
    (phrase, sign) pairs. Matching is case-insensitive whole-phrase: a
    phrase does not match inside a longer word.
    """
    low = text.lower()
    row = np.zeros(NUM_CATEGORIES, dtype=np.float32)
    evidence = []
    for name, phrases in lexicon.items():
        idx = CATEGORY_INDEX[name]
        for entry in phrases:
            if idx == COPING and isinstance(entry, (tuple, list)):
                phrase, sign = entry
            else:
                phrase, sign = entry, 1
            found = re.search(rf"(?<!\w){re.escape(phrase.lower())}(?!\w)", low)
            if found:
                row[idx] = sign
                evidence.append((name, text[found.start() : found.end()]))
    return row, evidence


# Small built-in lexicon: enough for the procedural generator and for
# reproducible extraction in tests. Coping entries carry their sign.
DEFAULT_LEXICON = {
    "cognitive_distortions": [
        "everything i do goes wrong",
        "i always ruin things",
        "nobody ever listens to me",
        "it is all my fault",
        "i can never do anything right",
        "everyone assumes the worst of me",
        "things never work out",
        "if i fail once i fail at everything",
        "one mistake means the whole day is ruined",
        "they must all hate me",
    ],
    "hopelessness_helplessness": [
        "nothing will ever change",
        "there is no point anymore",
        "i have no future",
        "no way out of this",
        "nothing i do matters",
        "i feel completely stuck",
        "it will never get better",
        "i have given up hoping",
        "there is nothing left for me",
        "i am powerless to change it",
    ],
    "self_negativity": [
        "i am worthless",
        "i hate myself",
        "i am such a burden",
        "i am a failure",
        "i do not deserve anything good",
        "i am useless to everyone",
        "i am broken inside",
        "i am not good enough",
        "i disgust myself",
        "i let everyone down",
    ],
    "stressors_interpersonal": [
        "we had a terrible argument",
        "my boss keeps criticizing me",
        "my marriage is falling apart",
        "i lost my job last month",
        "my family keeps fighting",
        "my friend stopped talking to me",
        "the bills keep piling up",
        "my landlord threatened to evict us",
        "my partner walked out on me",
        "they passed me over again at work",
    ],
    "emotional_behavioral_withdrawal": [
        "i stopped seeing my friends",
        "i cancel every plan",
        "i just stay in my room",
        "i avoid everyone now",
        "i do not answer calls anymore",
        "i skipped the gathering again",
        "i keep to myself these days",
        "i stopped going outside",
        "i feel numb around people",
        "i pulled away from everybody",
    ],
    "somatic_fatigue_sleep": [
        "i feel exhausted all the time",
        "i can barely sleep at night",
        "i wake up at three and stare",
        "my body feels so heavy",
        "i have no energy left",
        "i sleep all day and still feel tired",
        "my appetite is gone",
        "i get these constant headaches",
        "i toss and turn all night",
        "i am drained before noon",
    ],
    "rumination_affective_dysregulation": [
        "i keep replaying it in my head",
        "i cannot stop thinking about it",
        "my thoughts just spiral",
        "i cry out of nowhere",
        "i snap at everyone lately",
        "the same worry loops all night",
        "i cannot let it go",
        "my mood swings wildly",
        "i keep going over every mistake",
        "i obsess over what they said",
    ],
    "protective_positive_coping": [
        ("i went for a walk to clear my head", 1),
        ("talking to my sister helps", 1),
        ("i started journaling again", 1),
        ("exercise keeps me steady", 1),
        ("i practice breathing when it gets bad", 1),
        ("i try but it never helps", -1),
        ("nothing i try makes it better", -1),
        ("i used to cope but i cannot anymore", -1),
        ("the things that helped stopped working", -1),
        ("i gave up on my routines", -1),
    ],
}
