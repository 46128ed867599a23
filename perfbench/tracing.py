"""Span recording for the traced run, and the per-layer metrics.

The server process of a traced run switches on the program's own
:class:`~repro.obs.trace.Tracer` (stage spans of the Fig. 2 pipeline,
``server.*``/``http.*`` roots, ``linker.render_object``).  Layers the
tracer does not cover are timed by wrapping their public entry points
in spans of that same tracer (:meth:`SpanRecorder.wrap`), so one parent
chain runs through wrapped and program spans alike.  Every finished
span reaches :class:`SpanRecorder` as a tracer sink and lands in one
list, each with name, start, end, parent and request id, kept in memory
and written out when the run ends; :func:`layer_metrics` turns that
file into the per-layer metrics.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from statistics import fmean
from time import perf_counter
from typing import Any, Callable

from repro.obs.trace import Tracer, current_span

#: Phases whose spans the per-layer request metrics aggregate.
MEASURED_PHASES = ("timed", "epilogue")


class SpanRecorder:
    """The tracer's sink: an in-memory span list, plus counters.

    A request id is the span id of the wrapped call that begins a
    request (``starts_request``); every span that finishes on that
    thread until the next request begins carries it.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.spans: list[tuple[Any, ...]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        tracer.add_sink(self.sink)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[f"{self.phase}:{name}"] += value

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        starts_request: bool = False,
        result_size: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a version that runs in a span.

        ``result_size`` stores ``len(result)`` on the span as ``size``
        (fan-out of an invalidation, for instance).
        """
        original: Callable[..., Any] = getattr(owner, attr)
        tracer, local = self.tracer, self._local

        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name) as span:
                if starts_request:
                    local.rid = span.span_id
                result = original(*args, **kwargs)
                if result_size:
                    span.set_attribute("size", len(result))
                return result

        setattr(owner, attr, traced)

    def sink(self, data: dict[str, Any]) -> None:
        """One finished span into the list.

        The tracer calls its sinks on the finishing thread right after
        the span closed, so ``end`` is now and ``start`` is ``end -
        duration``.  A request handler's root span (``start_trace``)
        has no parent of its own; when a wrapped call encloses it, that
        call's span, current again, is its parent.
        """
        end = perf_counter()
        parent = data["parent_id"]
        if not parent:
            enclosing = current_span()
            parent = enclosing.span_id if enclosing is not None else ""
        record = (
            data["name"],
            end - float(data["duration"]),
            end,
            data["span_id"],
            parent,
            getattr(self._local, "rid", None),
            self.phase,
            data.get("attributes") or {},
        )
        with self._lock:
            self.spans.append(record)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[list[Any]]) -> dict[str, float]:
    """Span id -> duration minus the time its children cover.

    Children of a span run on its thread one after another, so the
    time they cover is the sum of their durations.
    """
    covered: dict[str, float] = defaultdict(float)
    for span in spans:
        covered[span[4]] += span[2] - span[1]
    return {span[3]: max(0.0, span[2] - span[1] - covered[span[3]]) for span in spans}


def _mean_ms(values: list[float]) -> float:
    return fmean(values) * 1000.0 if values else 0.0


def layer_metrics(
    dump: dict[str, Any], client: dict[str, Any]
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from a server dump and the client's figures,
    and the mean self time of every span name (for the run report).

    A request-path metric comes from the timed phase when its layer
    worked there, else from the epilogue (probe edits and the check's
    fetches), so that every layer has a figure on every workload.
    Ingest figures come from the set-up.  ``client`` holds, per phase,
    the load generator's wire and ``GET`` latencies, plus its CPU per
    operation, the disk use and the restart's restore time.
    """
    by_phase: dict[str, dict[str, list[list[Any]]]] = defaultdict(lambda: defaultdict(list))
    for span in dump["spans"]:
        by_phase[span[6]][span[0]].append(span)
    counts = dump["counts"]
    marks = dump["marks"]

    def spans(name: str) -> list[list[Any]]:
        return by_phase["timed"][name] or by_phase["epilogue"][name]

    def ms(name: str) -> float:
        return _mean_ms([s[2] - s[1] for s in spans(name)])

    def ratio(top: str, *rest: str) -> float:
        """counts[top] / (counts[top] + counts[rest...]) in one phase."""
        for phase in MEASURED_PHASES:
            values = [counts.get(f"{phase}:{name}", 0.0) for name in (top, *rest)]
            if sum(values):
                return values[0] / sum(values)
        return 0.0

    def per(numerator: str, denominator: str) -> float:
        for phase in MEASURED_PHASES:
            below = counts.get(f"{phase}:{denominator}", 0.0)
            if below:
                return counts.get(f"{phase}:{numerator}", 0.0) / below
        return 0.0

    def window(key: str, field: str) -> tuple[float, float]:
        """Change of a cumulative figure over the timed phase, else the epilogue."""
        for start, end in (("timed", "epilogue"), ("epilogue", "end")):
            delta = [b - a for a, b in zip(marks[start][key][field], marks[end][key][field])]
            if delta[0]:
                return delta[0], delta[1]
        return 0.0, 0.0

    def wait_ms(mode: str) -> float:
        count, total = window("waits", mode)
        return total / count * 1000.0 if count else 0.0

    def client_ms(kind: str) -> float:
        values = client["timed"][kind] or client["epilogue"][kind]
        return _mean_ms(values)

    for phase in MEASURED_PHASES:
        counts[f"{phase}:wire_requests"] = len(by_phase[phase]["protocol.decode"])
    decode, encode = ms("protocol.decode"), ms("protocol.encode")
    # Dispatch covers decoded request to response built: the dispatch
    # span minus its encode child.
    encode_by_parent = {s[4]: s[2] - s[1] for s in spans("protocol.encode")}
    dispatch = _mean_ms(
        [s[2] - s[1] - encode_by_parent.get(s[3], 0.0) for s in spans("server.dispatch")]
    )
    entry = ms("gateway.entry")
    updates = spans("linker.update_object")
    steer = spans("stage.steer")
    matches = spans("stage.match")
    lookups = window("cache", "lookups")
    setup = by_phase["setup"]
    components = dump["memory"]["components"]

    def attr_total(pool: list[list[Any]], key: str) -> float:
        return sum(float(s[7].get(key, 0)) for s in pool)

    sig_hits = attr_total(steer, "signature_cache_hits")
    sig_lookups = sig_hits + attr_total(steer, "signature_cache_misses")
    metrics = {
        "protocol.decode_ms": decode,
        "protocol.encode_ms": encode,
        "protocol.frame_kb": per("frame_bytes", "wire_requests") / 1024.0,
        "server.dispatch_ms": dispatch,
        "server.residual_ms": client_ms("wire") - decode - dispatch - encode,
        "resilience.rwlock_read_wait_ms": wait_ms("reader"),
        "resilience.rwlock_write_wait_ms": wait_ms("writer"),
        "resilience.admission_wait_ms": wait_ms("admission"),
        "gateway.entry_ms": entry,
        "gateway.overhead_ms": client_ms("get") - entry,
        "tokenizer.tokenize_ms": ms("stage.tokenize"),
        "tokenizer.escaped_spans": per("escaped_spans", "link_tokenize"),
        "match.match_ms": ms("stage.match"),
        "match.matches": attr_total(matches, "matches") / len(matches) if matches else 0.0,
        "policy.filter_ms": ms("stage.policy"),
        "steer.steer_ms": ms("stage.steer"),
        "steer.signature_cache_hit_ratio": sig_hits / sig_lookups if sig_lookups else 0.0,
        "render.render_ms": ms("stage.render"),
        "cache.hit_ratio": lookups[1] / lookups[0] if lookups[0] else 0.0,
        "cache.miss_render_ms": _mean_ms(
            [s[2] - s[1] for s in spans("linker.render_object") if not s[7].get("cache_hit")]
        ),
        # Invalidation time per edit: every invalidate_many call inside
        # the edits of the phase the edits came from.
        "invalidation.invalidate_ms": (
            sum(s[2] - s[1] for s in by_phase[updates[0][6]]["invalidation.invalidate"])
            / len(updates)
            * 1000.0
            if updates
            else 0.0
        ),
        "invalidation.fanout": fmean(s[7]["size"] for s in updates) if updates else 0.0,
        "invalidation.changed_ratio": ratio("changed", "unchanged"),
        "invalidation.index_ms": _mean_ms(
            [s[2] - s[1] for s in setup["invalidation.index"]]
        ),
        "linker.update_object_ms": _mean_ms([s[2] - s[1] for s in updates]),
        "linker.add_object_ms": _mean_ms([s[2] - s[1] for s in setup["linker.add_object"]]),
        "storage.write_journal_ms": ms("storage.record_update"),
        "storage.render_journal_ms": ms("storage.record_rendering"),
        "storage.restore_s": client["restore_s"],
        "storage.disk_mb": client["disk_mb"],
        "memory.invalidation_mb": components["invalidation"]["bytes"] / 2**20,
        "memory.objects_mb": components["objects"]["bytes"] / 2**20,
        "memory.render_cache_mb": components["render_cache"]["bytes"] / 2**20,
        "memory.map_mb": components["map_segments"]["bytes"] / 2**20,
        "generator.cpu_ms_per_op": client["generator_cpu_ms_per_op"],
    }
    measured = [s for phase in MEASURED_PHASES for v in by_phase[phase].values() for s in v]
    own = self_times(measured)
    self_ms: dict[str, list[float]] = defaultdict(list)
    for span in measured:
        self_ms[span[0]].append(own[span[3]])
    return metrics, {name: _mean_ms(v) for name, v in sorted(self_ms.items())}
