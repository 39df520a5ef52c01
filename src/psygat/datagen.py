"""Seeded procedural generator of synthetic interview sessions.

Sessions carry planted PEU annotations, persona labels, depression labels
and causal ground truth. Answer text is template-composed from the PEU
lexicon so keyword extraction recovers the planted annotations exactly at
zero noise. Augmented-source sessions are generated clean but with a
deliberate style shift (over-expressive symptoms, coping mixed into the
depressed class) so they help in moderation and hurt when they dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .errors import ConfigError
from .peu import CATEGORIES, COPING, DEFAULT_LEXICON
from .sessions import Session, Utterance


@dataclass
class PersonaProfile:
    id: int
    tag: str
    prominence: tuple  # 8 non-negative weights, sum 1
    expressiveness: float  # in [0, 1]
    coping_bias: float  # in [-1, 1]
    # cdf of the seven negative categories' renormalized weights, as
    # Generator.choice(p=...) builds it; None when they sum to zero
    negative_cdf: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        w = np.asarray(self.prominence, dtype=float)
        if w.shape != (8,) or (w < 0).any() or not np.isclose(w.sum(), 1.0):
            raise ConfigError(f"persona {self.id}: prominence must be 8 non-negative weights summing to 1")
        if not 0.0 <= self.expressiveness <= 1.0:
            raise ConfigError(f"persona {self.id}: expressiveness outside [0, 1]")
        if not -1.0 <= self.coping_bias <= 1.0:
            raise ConfigError(f"persona {self.id}: coping bias outside [-1, 1]")
        negative = w[:COPING]
        if negative.sum() > 0:
            cdf = (negative / negative.sum()).cumsum()
            cdf /= cdf[-1]
            self.negative_cdf = cdf


def _prom(*weights):
    w = np.asarray(weights, dtype=float)
    return tuple(w / w.sum())


DEFAULT_PERSONAS = (
    PersonaProfile(0, "guarded-minimizer", _prom(1, 1, 1, 2, 3, 4, 1, 2), 0.30, -0.2),
    PersonaProfile(1, "somatic-focused", _prom(1, 1, 1, 2, 2, 5, 2, 1), 0.50, 0.1),
    PersonaProfile(2, "ruminative-verbal", _prom(3, 2, 3, 2, 1, 1, 5, 1), 0.70, -0.4),
    PersonaProfile(3, "expressive-distressed", _prom(2, 4, 3, 3, 2, 2, 3, 1), 0.90, -0.6),
)

# Larger persona pool for augmentation sweeps; model persona label is id mod 4.
EXTENDED_PERSONAS = DEFAULT_PERSONAS + (
    PersonaProfile(4, "withdrawn-quiet", _prom(1, 2, 1, 1, 5, 2, 1, 1), 0.35, 0.0),
    PersonaProfile(5, "self-critical", _prom(3, 1, 5, 1, 1, 1, 2, 1), 0.55, -0.3),
    PersonaProfile(6, "stress-reactive", _prom(1, 1, 1, 5, 1, 2, 3, 1), 0.65, -0.1),
    PersonaProfile(7, "hopeless-flat", _prom(1, 5, 2, 1, 2, 2, 1, 1), 0.45, -0.5),
    PersonaProfile(8, "anxious-looping", _prom(2, 1, 1, 2, 1, 1, 5, 1), 0.75, 0.2),
    PersonaProfile(9, "coping-oriented", _prom(1, 1, 1, 2, 1, 2, 1, 5), 0.60, 0.7),
    PersonaProfile(10, "fatigued-overloaded", _prom(1, 1, 1, 3, 1, 5, 1, 1), 0.40, -0.2),
    PersonaProfile(11, "volatile-open", _prom(2, 2, 2, 2, 2, 1, 4, 1), 0.85, -0.4),
)


@dataclass
class GenConfig(Config):
    seed: int = 0
    n_sessions: int = 200
    class_balance: float = 0.5
    utterances_min: int = 8
    utterances_max: int = 14
    val_fraction: float = 0.2
    test_fraction: float = 0.2
    augmentation_ratio: float = 0.0
    label_flip: float = 0.0
    peu_dropout: float = 0.0
    causal_lag_min: int = 1
    causal_lag_max: int = 3
    # chance per cause of a non-causal "echo" activation planted just past
    # the causal lag range; a distractor only wider windows can see
    echo_rate: float = 0.0
    persona_set: str = "default"  # default (4) or extended (12)
    model_persona_count: int = 4

    def __post_init__(self):
        super().__post_init__()
        self._check(lambda v: 0 <= v <= 1, "in [0, 1]", "class_balance", "val_fraction",
                    "test_fraction", "label_flip", "peu_dropout", "echo_rate")
        self._check(lambda v: 0 <= v < 1, "in [0, 1)", "augmentation_ratio")
        self._check(lambda v: v >= 0, ">= 0", "seed")
        if self.utterances_min < 2 or self.utterances_max < self.utterances_min:
            raise ConfigError("bad utterance count range")
        if self.causal_lag_min < 1 or self.causal_lag_max < self.causal_lag_min:
            raise ConfigError("bad causal lag range")
        if self.utterances_min <= self.causal_lag_min:
            raise ConfigError("utterances_min must exceed causal_lag_min, or a session has no cause target")
        if self.persona_set not in ("default", "extended"):
            raise ConfigError(f"unknown persona set {self.persona_set!r}")

    def personas(self):
        return DEFAULT_PERSONAS if self.persona_set == "default" else EXTENDED_PERSONAS


QUESTIONS = (
    "How have you been feeling lately?",
    "Can you tell me about your week?",
    "How are things going at home?",
    "What does a typical day look like for you?",
    "How have you been sleeping?",
    "Is there anything that has been on your mind?",
    "How are things with the people around you?",
    "What do you usually do in the evenings?",
    "Has anything changed for you recently?",
    "How do you usually handle difficult days?",
    "What has your energy been like?",
    "Anything else you would like to share today?",
)

_FILLER_TEMPLATES = (
    "I spent {day} mostly {activity}.",
    "Work has been {pace} this {span}.",
    "I had {meal} with {person} on {day}.",
    "The weather made me think about {topic}.",
    "I have been meaning to {chore} for a while.",
    "My {relative} called about {topic} recently.",
    "I watched a show about {topic} last {day}.",
    "The commute was {pace} again this {span}.",
    "I tidied the {room} over the {span}.",
    "We talked a little about {topic} at {meal}.",
)

_SLOTS = {
    "day": ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday"),
    "activity": ("reading", "running errands", "gardening", "cooking", "fixing the bike",
                 "sorting old photos", "walking the dog", "doing laundry"),
    "pace": ("steady", "busy", "quiet", "hectic", "slow", "ordinary"),
    "span": ("week", "month", "weekend", "stretch"),
    "meal": ("lunch", "dinner", "breakfast", "coffee"),
    "person": ("a neighbor", "an old colleague", "my cousin", "a friend from school"),
    "topic": ("the news", "the garden", "an old trip", "the house", "a recipe", "the game"),
    "chore": ("clean the garage", "repot the plants", "sort the mail", "fix the shelf"),
    "relative": ("sister", "brother", "aunt", "uncle", "mother", "father"),
    "room": ("kitchen", "garage", "study", "hallway"),
}


# Each template with positional fields, one per slot in _SLOTS order, and a
# filler's bounded draws: its template, then every slot in that order.
_FILLER_FORMATS = tuple(
    t.format(**{name: "{%d}" % k for k, name in enumerate(_SLOTS)}) for t in _FILLER_TEMPLATES)
_SLOT_WORDS = tuple(_SLOTS.values())
_FILLER_BOUNDS = [len(_FILLER_TEMPLATES)] + [len(words) for words in _SLOT_WORDS]
_FILLER_DRAWS = len(_FILLER_BOUNDS)


def _phrase_table(category_idx, sign):
    entries = DEFAULT_LEXICON[CATEGORIES[category_idx]]
    if category_idx == COPING:
        entries = [p for p, s in entries if s == sign]
    return tuple((p, p[0].upper() + p[1:] + ".") for p in entries)


# (category, sign) -> ((phrase, sentence), ...), for every planted pair
_PHRASES = {(c, 1): _phrase_table(c, 1) for c in range(COPING + 1)}
_PHRASES[(COPING, -1)] = _phrase_table(COPING, -1)


def generate_session(seed, persona, label, config=None, source="base", session_id=None):
    """Deterministically compose one session for (seed, persona, label).

    Depressed sessions plant symptomatic PEU activations at a rate driven
    by persona expressiveness; each symptomatic utterance gets 1-2 causal
    source utterances at a short lag, themselves carrying a persona-drawn
    negative activation. Control sessions carry sparse positive coping.
    """
    config = config or GenConfig()
    rng = np.random.default_rng(seed)
    T = int(rng.integers(config.utterances_min, config.utterances_max + 1))
    augmented = source == "augmented"
    # planted[t] -> list of (category_idx, sign); dropout applies per item
    planted = [[] for _ in range(T)]
    causes = []

    if label == 1:
        cdf = persona.negative_cdf
        if cdf is None:
            raise ConfigError(f"persona {persona.id}: negative category weights sum to zero")

        def negative_category():
            # the inverse-cdf lookup Generator.choice(COPING, p=...) makes
            return int(cdf.searchsorted(rng.random(), "right"))

        lag_min = config.causal_lag_min
        rate = 0.70 if augmented else 0.15 + 0.5 * persona.expressiveness
        n_sym = max(1, round(T * rate))
        n_sym = min(n_sym, T - lag_min)
        targets = sorted(rng.choice(np.arange(lag_min, T), size=n_sym, replace=False))
        for t in targets:
            cat = negative_category()
            if not any(c == cat for c, _ in planted[t]):
                planted[t].append((cat, 1))
            n_src = int(rng.integers(1, 3))
            lags = list(range(lag_min, config.causal_lag_max + 1))
            rng.shuffle(lags)  # the draws of rng.permutation on the same range
            sources = []
            for lag in lags[:n_src]:
                s = t - lag
                if s >= 0:
                    sources.append(s)
            if not sources:
                sources = [t - lag_min]
            for s in sources:
                scat = negative_category()
                if not any(c == scat for c, _ in planted[s]):
                    planted[s].append((scat, 1))
            causes.append({"target": int(t), "category": CATEGORIES[cat], "sources": sorted(set(int(s) for s in sources))})
            if config.echo_rate > 0 and rng.random() < config.echo_rate:
                e = t - int(rng.integers(config.causal_lag_max + 1, config.causal_lag_max + 4))
                if e >= 0:
                    ecat = negative_category()
                    if not any(c == ecat for c, _ in planted[e]):
                        planted[e].append((ecat, 1))
        if augmented:
            # style shift: synthetic depressed often voice positive coping
            for t in range(T):
                if rng.random() < 0.3 and not any(c == COPING for c, _ in planted[t]):
                    planted[t].append((COPING, 1))
        else:
            n_cop = round(T * 0.15 * persona.expressiveness)
            sign = -1 if persona.coping_bias <= 0 else (1 if rng.random() < 0.5 else -1)
            for t in rng.choice(T, size=min(n_cop, T), replace=False):
                if not any(c == COPING for c, _ in planted[t]):
                    planted[t].append((COPING, sign))
    else:
        if not augmented:
            n_cop = round(T * (0.1 + 0.3 * persona.expressiveness))
            for t in rng.choice(T, size=min(n_cop, T), replace=False):
                planted[t].append((COPING, 1))
        # augmented controls plant nothing: pure neutral filler

    # noise knobs apply to base sessions only; augmented stay clean
    if not augmented and config.peu_dropout > 0:
        for t in range(T):
            planted[t] = [item for item in planted[t] if rng.random() >= config.peu_dropout]
        kept_causes = []
        for rec in causes:
            cat = CATEGORIES.index(rec["category"])
            if not any(c == cat for c, _ in planted[rec["target"]]):
                continue
            srcs = [s for s in rec["sources"] if planted[s]]
            if srcs:
                kept_causes.append({**rec, "sources": srcs})
        causes = kept_causes

    emitted_label = label
    if not augmented and config.label_flip > 0 and rng.random() < config.label_flip:
        emitted_label = 1 - label

    # Per utterance the stream holds the filler's template and ten slots,
    # one pick per planted phrase, a shuffle of the utterance's sentences
    # (skipped for a lone filler, where it draws nothing), then its question.
    # Each run of bounded picks between two shuffles is one integers call:
    # numpy draws an array of bounds element by element, exactly as
    # successive scalar calls do. A shuffle's draws depend only on the list
    # length, so shuffling sentence indices gives the order to apply later.
    bounds, shuffles = [], []  # shuffles: (position in bounds, sentence count)
    for items in planted:
        bounds += _FILLER_BOUNDS
        bounds += [len(_PHRASES[item]) for item in items]
        if items:
            shuffles.append((len(bounds), len(items) + 1))
        bounds.append(len(QUESTIONS))
    bounds = np.array(bounds)
    picks, orders, start = [], [], 0
    for cut, n in shuffles:
        picks += rng.integers(bounds[start:cut]).tolist()
        order = list(range(n))
        rng.shuffle(order)
        orders.append(order)
        start = cut
    picks += rng.integers(bounds[start:]).tolist()

    utterances = []
    annotations = []
    orders = iter(orders)
    k = 0
    for t, items in enumerate(planted):
        slots = picks[k + 1 : k + _FILLER_DRAWS]
        sentences = [_FILLER_FORMATS[picks[k]].format(*[w[j] for w, j in zip(_SLOT_WORDS, slots)])]
        k += _FILLER_DRAWS
        peu_entries = []
        for cat, sign in items:
            phrase, sentence = _PHRASES[(cat, sign)][picks[k]]
            k += 1
            sentences.append(sentence)
            peu_entries.append({"category": CATEGORIES[cat], "value": int(sign), "spans": [phrase]})
        if items:
            sentences = [sentences[i] for i in next(orders)]
        utterances.append(Utterance(t, QUESTIONS[picks[k]], " ".join(sentences)))
        k += 1
        annotations.append({"utt": t, "peus": peu_entries})

    return Session(
        id=session_id or f"g{seed}",
        persona=persona.id % config.model_persona_count,
        label=int(emitted_label),
        utterances=utterances,
        peus=annotations,
        causes=causes,
        source=source,
    )


def _balanced_labels(n, balance, rng):
    n_pos = round(n * balance)
    labels = np.array([1] * n_pos + [0] * (n - n_pos))
    rng.shuffle(labels)
    return labels


def generate_corpus(config):
    """Generate {train, val, test} with augmented sessions in train only."""
    if config.n_sessions < 10:
        raise ConfigError(f"n_sessions={config.n_sessions} too small (need >= 10)")
    n_val = round(config.n_sessions * config.val_fraction)
    n_test = round(config.n_sessions * config.test_fraction)
    n_train = config.n_sessions - n_val - n_test
    if min(n_train, n_val) < 2:
        raise ConfigError("split fractions leave too few base sessions for train/val")
    for frac, size in ((config.class_balance, n_train), (config.class_balance, n_val)):
        if size and not 0 < round(size * frac) < size:
            raise ConfigError("class balance infeasible: a split would be single-class")

    personas = config.personas()
    master = np.random.default_rng(config.seed)
    splits = {"train": [], "val": [], "test": []}
    counter = 0
    for split, size in (("train", n_train), ("val", n_val), ("test", n_test)):
        labels = _balanced_labels(size, config.class_balance, master)
        for k in range(size):
            persona = personas[int(master.integers(len(personas)))]
            sid = f"s{config.seed}-{split}-{counter:04d}"
            session_seed = config.seed * 1_000_003 + counter
            s = generate_session(session_seed, persona, int(labels[k]), config,
                                 source="base", session_id=sid)
            s.split = split
            splits[split].append(s)
            counter += 1

    if config.augmentation_ratio > 0:
        r = config.augmentation_ratio
        n_aug = round(r / (1 - r) * n_train)
        labels = _balanced_labels(n_aug, config.class_balance, master)
        for k in range(n_aug):
            persona = personas[int(master.integers(len(personas)))]
            sid = f"s{config.seed}-aug-{counter:04d}"
            session_seed = config.seed * 1_000_003 + counter
            s = generate_session(session_seed, persona, int(labels[k]), config,
                                 source="augmented", session_id=sid)
            s.split = "train"
            splits["train"].append(s)
            counter += 1
    return splits


def corpus_manifest(config, splits):
    def count(sessions):
        return {
            "sessions": len(sessions),
            "depressed": sum(s.label for s in sessions),
            "augmented": sum(1 for s in sessions if s.source == "augmented"),
        }

    return {
        "seed": config.seed,
        "config": config.to_json(),
        "splits": {name: count(sessions) for name, sessions in splits.items()},
    }
