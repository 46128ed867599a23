"""The benchmark's correctness checks fail on corrupted answers.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q

Each case takes a real answer of the linker, corrupts it the way a
faulty server could, and asserts the matching check reports it; the
uncorrupted answer must pass, so a check that flags everything is
caught too.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (  # noqa: E402
    check_links,
    check_quality,
    check_renderings,
    check_restart,
    score,
)
from workloads import EditMaker, long_notes  # noqa: E402

from repro.core.linker import NNexus  # noqa: E402
from repro.core.render import render_html  # noqa: E402
from repro.corpus.generator import GeneratorParams, generate_corpus  # noqa: E402
from repro.server.protocol import links_payload  # noqa: E402


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(GeneratorParams(n_entries=400, seed=5))


@pytest.fixture(scope="module")
def linker(corpus):
    linker = NNexus(scheme=corpus.scheme)
    for obj in corpus.objects:
        linker.add_object(obj)
    return linker


@pytest.fixture(scope="module")
def answer(corpus, linker):
    """A long note and the linker's answer to it, as the wire carries it."""
    note = long_notes(corpus, seed=3)[0]
    document = linker.link_text(note.text, source_classes=note.classes)
    return note, render_html(document), links_payload(document)


def test_clean_answer_passes(answer):
    note, body, links = answer
    assert links
    assert check_links(note.text, body, links, note.escaped) == []
    precision, recall = score([(links, note.note.ground_truth)])
    assert check_quality(precision, recall) == []


def test_link_moved_into_math_span(answer):
    note, body, links = answer
    lo, hi = note.escaped[len(note.escaped) // 2]
    word = re.search(r"[A-Za-z]{3,}", note.text[lo:hi])
    start, end = lo + word.start(), lo + word.end()
    moved = [dict(links[0], start=str(start), end=str(end), phrase=note.text[start:end])]
    problems = check_links(note.text, body, moved + links[1:], note.escaped)
    assert any("inside escaped region" in p for p in problems)


def test_anchor_dropped(answer):
    note, body, links = answer
    first = re.search(r'<a class="nnexus-link" href="[^"]*">(.*?)</a>', body)
    dropped = body[: first.start()] + first.group(1) + body[first.end():]
    problems = check_links(note.text, dropped, links, note.escaped)
    assert any("anchors in the body" in p for p in problems)


def test_link_span_not_its_phrase(answer):
    note, body, links = answer
    shifted = [dict(links[0], start=str(int(links[0]["start"]) + 1))] + links[1:]
    assert check_links(note.text, body, shifted, note.escaped)


def test_missing_links_fail_the_recall_floor(answer):
    note, _, links = answer
    precision, recall = score([(links[: len(links) // 2], note.note.ground_truth)])
    assert any("recall" in p for p in check_quality(precision, recall))


def test_stale_rendering_served(corpus, linker):
    edited = EditMaker(corpus, seed=1, thread=0, threads=1).next()
    oid = edited.object_id
    stale = render_html(linker.link_object(oid))
    oracle = NNexus(scheme=corpus.scheme)
    for obj in corpus.objects:
        oracle.add_object(edited if obj.object_id == oid else obj)
    fresh = render_html(oracle.link_object(oid))
    assert check_renderings({oid: fresh}, {oid: fresh}) == []
    assert any("stale" in p for p in check_renderings({oid: stale}, {oid: fresh}))


def test_restored_entry_missing(corpus, linker):
    ids = [obj.object_id for obj in corpus.objects[:5]]
    oracle = {oid: render_html(linker.link_object(oid)) for oid in ids}
    served = dict(oracle)
    served[ids[2]] = None  # the restarted server answered 404
    assert any("missing" in p for p in check_renderings(served, oracle))
    del served[ids[2]]
    assert any("missing" in p for p in check_renderings(served, oracle))
    assert check_restart(len(ids) - 1, len(ids))
    assert check_restart(len(ids), len(ids)) == []
