"""Seeded inputs of the serving benchmark.

Everything the benchmark sends to the server is made here from the run's
``--seed``: the 1,500-entry synthetic corpus, the short and LaTeX-dense
lecture notes, the Zipf-popular read sequence of ``browse`` and the
author edits.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.core.models import CorpusObject
from repro.corpus.generator import GeneratorParams, SyntheticCorpus, generate_corpus
from repro.corpus.lecture_notes import LectureNote, generate_lecture_notes

CORPUS_ENTRIES = 1500
#: The corpus is the same in every run (the generator's default seed);
#: the run's seed draws the traffic over it: notes, reads and edits.
CORPUS_SEED = GeneratorParams().seed
#: Zipf exponent of entry popularity in ``browse``.
READ_ZIPF = 1.0
#: One author edit every this many operations in a ``browse`` round (5%).
BROWSE_ROUND = 20
#: ``linkEntry`` calls per round in the two API workloads.
LINK_API_ROUND = 8
LONG_NOTES_ROUND = 1
#: Untimed operations per client thread before the timed phase.
WARMUP_READS = 24
#: Author edits made on an otherwise idle server after every timed
#: slice, on every workload.
EDIT_PROBE = 96
#: Entries compared after the cold restart.
COLD_CHECK_SAMPLE = 40

SHORT_NOTES = 64
SHORT_NOTE_INVOCATIONS = 8
LONG_NOTES = 16
LONG_NOTE_INVOCATIONS = 120
#: Closed ``\\begin{...}...\\end{...}`` blocks per long note.
LONG_NOTE_ENVIRONMENTS = 4

_ENVIRONMENTS = ("equation", "align", "theorem", "proof")
_MATH_SYMBOLS = ("x", "y", "n", "k", "\\alpha", "\\beta", "\\lambda", "f(x)")
_MATH_OPS = ("+", "-", "\\leq", "=", "\\subseteq", "\\cdot")


@dataclass
class Note:
    """One document sent to ``linkEntry``.

    ``escaped`` lists the ``[start, end)`` character spans of the math
    and environments the benchmark itself placed; no link may touch
    them.
    """

    text: str
    classes: list[str]
    note: LectureNote
    escaped: list[tuple[int, int]]


def build_corpus() -> SyntheticCorpus:
    return generate_corpus(GeneratorParams(n_entries=CORPUS_ENTRIES, seed=CORPUS_SEED))


def short_notes(corpus: SyntheticCorpus, seed: int) -> list[Note]:
    """About 0.7 KB each, eight planted invocations, no added markup."""
    notes = generate_lecture_notes(
        corpus,
        count=SHORT_NOTES,
        seed=seed,
        invocations_per_note=SHORT_NOTE_INVOCATIONS,
    )
    return [Note(n.text, n.classes, n, []) for n in notes]


def long_notes(corpus: SyntheticCorpus, seed: int) -> list[Note]:
    """About 12 KB each: ~120 invocations, one inline ``$...$`` span per
    sentence and a few closed environments.

    The math deliberately contains concept words of the corpus, so a
    link made inside an escaped region is caught by the checks.
    """
    rng = random.Random(seed)
    words = sorted({w for obj in corpus.objects for p in obj.defines for w in p.split()})
    notes = generate_lecture_notes(
        corpus,
        count=LONG_NOTES,
        seed=seed,
        invocations_per_note=LONG_NOTE_INVOCATIONS,
    )
    return [_latex_dense(note, rng, words) for note in notes]


def _math(rng: random.Random, words: list[str]) -> str:
    word = rng.choice(words)
    return (
        f"${rng.choice(_MATH_SYMBOLS)} {rng.choice(_MATH_OPS)} "
        f"\\mathrm{{{word}}}_{{{rng.randint(0, 9)}}}$"
    )


def _environment(rng: random.Random, words: list[str]) -> str:
    name = rng.choice(_ENVIRONMENTS)
    body = " ".join(rng.choice(words) for __ in range(6))
    return f"\\begin{{{name}}} {body} \\end{{{name}}}"


def _latex_dense(note: LectureNote, rng: random.Random, words: list[str]) -> Note:
    # Generated notes are sentences ending in "." joined by one space;
    # no planted phrase or filler word contains ". ".
    sentences = note.text.split(". ")
    env_after = set(rng.sample(range(len(sentences)), LONG_NOTE_ENVIRONMENTS))
    parts: list[str] = []
    escaped: list[tuple[int, int]] = []
    offset = 0

    def emit(piece: str, placed: bool = False) -> None:
        nonlocal offset
        if placed:
            escaped.append((offset, offset + len(piece)))
        parts.append(piece)
        offset += len(piece)

    for index, sentence in enumerate(sentences):
        if index:
            emit(" ")
        emit(sentence.rstrip(".") + " ")
        emit(_math(rng, words), placed=True)
        emit(".")
        if index in env_after:
            emit(" ")
            emit(_environment(rng, words), placed=True)
    return Note("".join(parts), note.classes, note, escaped)


def read_sequence(seed: int, object_ids: list[int], length: int) -> list[int]:
    """Zipf-popular entry ids: a seeded popularity order, weight 1/rank."""
    rng = random.Random(seed)
    ranked = list(object_ids)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** READ_ZIPF for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=length)


class EditMaker:
    """Author edits of one client thread, each relative to the original.

    An edit appends a sentence to an entry; every other edit also adds,
    as a synonym, a concept phrase another entry of the same section
    defines, so some invalidated renderings really change (§2.5's
    superset has true positives as well as false ones).  Threads edit
    disjoint entries, so the final corpus is each entry's last edit.
    """

    def __init__(self, corpus: SyntheticCorpus, seed: int, thread: int, threads: int):
        self._rng = random.Random(seed * 31 + thread)
        self._objects = corpus.objects
        self._by_section: dict[str, list[CorpusObject]] = {}
        for obj in corpus.objects:
            if obj.classes:
                self._by_section.setdefault(obj.classes[0][:3], []).append(obj)
        self._mine = [
            obj for index, obj in enumerate(corpus.objects) if index % threads == thread
        ]
        self._count = 0

    def next(self) -> CorpusObject:
        rng = self._rng
        obj = rng.choice(self._mine)
        self._count += 1
        sentence = f"Edit {self._count} recalls the {rng.choice(obj.defines)} again."
        synonyms = list(obj.synonyms)
        if self._count % 2 == 0 and obj.classes:
            donor = rng.choice(self._by_section[obj.classes[0][:3]])
            phrase = rng.choice(donor.defines)
            if donor.object_id != obj.object_id and phrase not in synonyms:
                synonyms.append(phrase)
        return replace(obj, text=f"{obj.text} {sentence}", synonyms=synonyms)
