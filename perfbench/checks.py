"""Correctness checks of the serving benchmark.

Each check takes what the server answered and returns a list of
problems (empty when the answer is right).  None compares against a
recorded copy of an earlier output: link answers are checked against the
text that was sent and the benchmark's own markup, renderings against a
linker rebuilt from scratch.
"""

from __future__ import annotations

import html
import re
from typing import Mapping, Sequence

from repro.core.morphology import canonicalize_phrase
from repro.corpus.generator import GroundTruthInvocation

#: Quality floors for ``linkEntry`` over generated lecture notes (see
#: README.md, "Correctness checks", for where they come from).
PRECISION_FLOOR = 0.85
RECALL_FLOOR = 0.95

_ANCHOR = re.compile(r'<a class="nnexus-link" href="[^"]*">(.*?)</a>', re.DOTALL)


def check_links(
    text: str,
    body: str,
    links: Sequence[Mapping[str, str]],
    escaped: Sequence[tuple[int, int]] = (),
) -> list[str]:
    """One ``linkEntry`` answer against the text that was sent."""
    problems: list[str] = []
    spans: list[tuple[int, int, str]] = []
    for link in links:
        start, end, phrase = int(link["start"]), int(link["end"]), link["phrase"]
        if not 0 <= start < end <= len(text):
            problems.append(f"link [{start},{end}) outside the text")
            continue
        if text[start:end] != phrase:
            problems.append(f"link [{start},{end}) is {text[start:end]!r}, not {phrase!r}")
        spans.append((start, end, phrase))
    spans.sort()
    for (_, prev_end, _), (start, _, _) in zip(spans, spans[1:]):
        if start < prev_end:
            problems.append(f"links overlap at offset {start}")
    for start, end, _ in spans:
        for lo, hi in escaped:
            if start < hi and lo < end:
                problems.append(f"link [{start},{end}) inside escaped region [{lo},{hi})")
    surfaces: list[str] = []

    def strip(match: re.Match[str]) -> str:
        surfaces.append(html.unescape(match.group(1)))
        return surfaces[-1]

    if _ANCHOR.sub(strip, body) != text:
        problems.append("body without its anchors is not the sent text")
    if surfaces != [phrase for _, _, phrase in spans]:
        problems.append(
            f"anchors in the body ({len(surfaces)}) do not match the links ({len(spans)})"
        )
    return problems


def score(
    answers: Sequence[tuple[Sequence[Mapping[str, str]], Sequence[GroundTruthInvocation]]],
) -> tuple[float, float]:
    """Precision and recall of links against the planted invocations.

    A link is correct when its canonical phrase was planted with that
    target.  Lecture notes plant each canonical phrase at most once and
    the linker links first occurrences only, so phrase identity decides.
    """
    links_made = correct = planted = found = 0
    for links, truth in answers:
        expected = {inv.canonical: inv.target_id for inv in truth}
        made = {canonicalize_phrase(link["phrase"]): int(link["target"]) for link in links}
        links_made += len(links)
        for canonical, target in made.items():
            if canonical in expected and expected[canonical] == target:
                correct += 1
        for inv in truth:
            if inv.target_id is not None:
                planted += 1
                found += inv.canonical in made
    precision = correct / links_made if links_made else 0.0
    recall = found / planted if planted else 0.0
    return precision, recall


def check_quality(precision: float, recall: float) -> list[str]:
    problems = []
    if precision < PRECISION_FLOOR:
        problems.append(f"precision {precision:.3f} below the floor {PRECISION_FLOOR}")
    if recall < RECALL_FLOOR:
        problems.append(f"recall {recall:.3f} below the floor {RECALL_FLOOR}")
    return problems


def check_renderings(
    served: Mapping[int, str | None], oracle: Mapping[int, str]
) -> list[str]:
    """Served renderings byte for byte against fresh ones.

    ``None`` stands for an entry the server did not return.
    """
    problems = []
    for object_id in sorted(oracle):
        body = served.get(object_id)
        if body is None:
            problems.append(f"entry {object_id} missing")
        elif body != oracle[object_id]:
            problems.append(f"entry {object_id} served a stale or wrong rendering")
    return problems


def check_restart(objects: int, expected_objects: int) -> list[str]:
    if objects != expected_objects:
        return [f"restarted server holds {objects} objects, expected {expected_objects}"]
    return []
