"""Session records and the JSONL corpus format.

One session per line:
    {"id", "persona", "label", "split", "source",
     "utterances": [{"i", "q", "a"}],
     "peus": [{"utt", "peus": [{"category", "value", "spans"}]}],
     "causes": [{"target", "category", "sources"}]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CorpusError
from .peu import CATEGORIES

SPLITS = ("train", "val", "test")
SOURCES = ("base", "augmented")


@dataclass
class Utterance:
    index: int
    question: str
    answer: str


@dataclass
class Session:
    id: str
    persona: int
    label: int
    utterances: list
    peus: list = field(default_factory=list)
    causes: list = field(default_factory=list)
    split: str = "train"
    source: str = "base"

    def __post_init__(self):
        # types are checked, not converted: True and 1.0 equal 1, int(2.9) is 2
        if not isinstance(self.id, str):
            raise CorpusError(f"session id {self.id!r} is not a string")
        if type(self.label) is not int or self.label not in (0, 1):
            raise CorpusError(f"session {self.id}: label {self.label!r} is not 0 or 1")
        if type(self.persona) is not int:
            raise CorpusError(f"session {self.id}: persona {self.persona!r} is not an int")
        # graph batches hold personas as int64; range checks come later, in the model
        if not -2**63 <= self.persona < 2**63:
            raise CorpusError(f"session {self.id}: persona {self.persona} does not fit in int64")
        # tuple membership compares, so a list or dict is refused, not unhashable
        if self.split not in SPLITS:
            raise CorpusError(f"session {self.id}: unknown split {self.split!r}")
        if self.source not in SOURCES:
            raise CorpusError(f"session {self.id}: unknown source {self.source!r}")
        for k, utt in enumerate(self.utterances):
            if type(utt.index) is not int:
                raise CorpusError(f"session {self.id}: utterance index {utt.index!r} is not an int")
            if utt.index != k:
                raise CorpusError(f"session {self.id}: utterance indices not contiguous at {k}")
            if not (isinstance(utt.question, str) and isinstance(utt.answer, str)):
                raise CorpusError(f"session {self.id}: utterance {k} has a non-string q or a")
        if not isinstance(self.peus, list):
            raise CorpusError(f"session {self.id}: peus {self.peus!r} is not a list")
        n = len(self.utterances)
        for rec in self.causes:
            if not isinstance(rec, dict):
                raise CorpusError(f"session {self.id}: cause record {rec!r} is not an object")
            if rec["category"] not in CATEGORIES:
                raise CorpusError(f"session {self.id}: unknown cause category {rec['category']!r}")
            if not isinstance(rec["sources"], list):
                raise CorpusError(f"session {self.id}: cause sources {rec['sources']!r} "
                                  f"is not a list")
            for index in (rec["target"], *rec["sources"]):
                if type(index) is not int:
                    raise CorpusError(f"session {self.id}: cause index {index!r} is not an int")
                if not 0 <= index < n:
                    raise CorpusError(
                        f"session {self.id}: cause index {index} outside the {n} utterances")

    @property
    def T(self):
        return len(self.utterances)

    def text(self, index):
        utt = self.utterances[index]
        if utt.question:
            return f"Q: {utt.question} A: {utt.answer}"
        return utt.answer

    def to_json(self):
        return {
            "id": self.id,
            "persona": self.persona,
            "label": self.label,
            "split": self.split,
            "source": self.source,
            "utterances": [{"i": u.index, "q": u.question, "a": u.answer} for u in self.utterances],
            "peus": self.peus,
            "causes": self.causes,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            id=obj["id"],
            persona=obj["persona"],
            label=obj["label"],
            utterances=[Utterance(u["i"], u.get("q", ""), u.get("a", "")) for u in obj["utterances"]],
            peus=obj.get("peus", []),
            causes=obj.get("causes", []),
            split=obj.get("split", "train"),
            source=obj.get("source", "base"),
        )


def write_jsonl(path, records):
    """One sorted-key JSON line per record, written to a temporary file
    that then replaces path."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    tmp.replace(path)


def write_sessions(path, sessions):
    write_jsonl(path, (s.to_json() for s in sessions))


def read_sessions(path):
    sessions = []
    with Path(path).open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise CorpusError(f"expected a JSON object, got {type(obj).__name__}")
                sessions.append(Session.from_json(obj))
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: bad session record: {exc}") from exc
    return sessions


def split_sessions(sessions):
    """Sessions by split, in corpus order, once the corpus-level checks pass:
    no augmented session outside train and no id twice, train and test alike."""
    check_no_augmented_leakage(sessions)
    splits = {name: [] for name in SPLITS}
    seen = set()
    for s in sessions:
        if s.id in seen:
            raise CorpusError(f"session id {s.id!r} occurs more than once")
        seen.add(s.id)
        splits[s.split].append(s)
    return splits


def check_no_augmented_leakage(sessions):
    """Augmented sessions are train-only; anything else is a hard error."""
    offenders = [s.id for s in sessions if s.source == "augmented" and s.split != "train"]
    if offenders:
        raise CorpusError(
            "augmented sessions found outside the train split: " + ", ".join(sorted(offenders))
        )
