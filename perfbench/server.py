"""The benchmark's server process: a durable NNexus behind both front ends.

Run by ``perfbench/run.py``; not meant to be started by hand.  It
composes the program's public constructors the way a deployment would:
``NNexus`` over a sqlite ``open_storage`` backend, an ``NNexusServer``
for the XML wire protocol and ``serve_http`` sharing the server's
readers-writer lock.

Given ``--corpus FILE`` it ingests that corpus into an empty data
directory and renders every entry once (set-up); without it, it cold
starts from the data directory.  It then prints ``ready <wire port>
<http port>`` and obeys one command per line on stdin:

``mark <phase>``  tag later spans with ``phase`` (traced runs), answer ``ok``
``dump <path>``   write spans, counters and resource figures, answer ``ok``
``stop``          drain, checkpoint, close the storage and exit
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

from repro.core.linker import NNexus
from repro.core.tokenizer import Tokenizer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, current_span
from repro.ontology.msc import build_msc
from repro.persistence import open_storage
from repro.persistence.api import object_from_payload
from repro.server import protocol
from repro.server.http_gateway import serve_http
from repro.server.server import NNexusServer

#: sqlite ``synchronous=NORMAL`` in WAL mode: every mutation is one
#: committed transaction, fsynced at checkpoints rather than per commit.
SYNC = "batch"


def _instrument_storage(storage, recorder) -> None:
    recorder.wrap(storage, "load", "storage.load")
    recorder.wrap(storage, "record_update", "storage.record_update")
    recorder.wrap(storage, "record_rendering", "storage.record_rendering")


def _instrument_linker(linker: NNexus, recorder) -> None:
    recorder.wrap(linker, "add_object", "linker.add_object")
    recorder.wrap(linker, "update_object", "linker.update_object", result_size=True)
    index = linker.invalidation_index
    recorder.wrap(index, "index_object", "invalidation.index")
    recorder.wrap(index, "invalidate_many", "invalidation.invalidate")

    # Escaped regions of the documents link_text tokenizes.
    tokenize = Tokenizer.tokenize

    def counted_tokenize(self, text):
        result = tokenize(self, text)
        span = current_span()
        if span is not None and span.name == "linker.link_text":
            recorder.count("link_tokenize")
            recorder.count("escaped_spans", len(result.escaped_regions))
        return result

    Tokenizer.tokenize = counted_tokenize

    # Share of invalidated renderings whose next rendering differs.
    cache = linker.cache
    last: dict[int, str] = {}
    pending: dict[int, str] = {}
    put, invalidate = cache.put, cache.invalidate

    def tracked_put(object_id, rendered, fmt="html"):
        if fmt == "html":
            before = pending.pop(object_id, None)
            if before is not None:
                recorder.count("changed" if before != rendered else "unchanged")
            last[object_id] = rendered
        return put(object_id, rendered, fmt)

    def tracked_invalidate(object_ids):
        object_ids = list(object_ids)
        for object_id in object_ids:
            if object_id in last and object_id not in pending:
                pending[object_id] = last[object_id]
        return invalidate(object_ids)

    cache.put = tracked_put
    cache.invalidate = tracked_invalidate


def _instrument_front_ends(server: NNexusServer, gateway, recorder) -> None:
    recorder.wrap(protocol, "decode_request", "protocol.decode", starts_request=True)
    recorder.wrap(protocol, "encode_response", "protocol.encode")
    recorder.wrap(server, "dispatch_message", "server.dispatch")
    recorder.wrap(gateway, "entry", "gateway.entry", starts_request=True)
    frame = protocol.frame

    def counted_frame(message):
        payload = frame(message)
        recorder.count("frame_bytes", len(payload))
        return payload

    protocol.frame = counted_frame
    decode = protocol.decode_request

    def counted_decode(message):
        recorder.count("frame_bytes", len(message.encode("utf-8")) + protocol.FRAME_HEADER_BYTES)
        return decode(message)

    protocol.decode_request = counted_decode


def _cumulative(linker: NNexus, registry: MetricsRegistry) -> dict:
    """Running totals a phase's share is the difference of:
    (count, sum) of the lock and admission wait histograms, and
    (lookups, hits) of the render cache."""
    waits = {}
    for key, name, labels in (
        ("reader", "nnexus_rwlock_wait_seconds", {"mode": "reader"}),
        ("writer", "nnexus_rwlock_wait_seconds", {"mode": "writer"}),
        ("admission", "nnexus_admission_wait_seconds", {}),
    ):
        summary = registry.histogram_summary(name, **labels)
        waits[key] = (summary.count, summary.sum)
    cache = linker.cache.counter_snapshot()
    return {
        "waits": waits,
        "cache": {"lookups": (cache["hits"] + cache["misses"], cache["hits"])},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--corpus", default="")
    parser.add_argument("--leaves-per-section", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    recorder = registry = tracer = None
    if args.trace:
        from tracing import SpanRecorder

        registry = MetricsRegistry()
        tracer = Tracer(seed=0, metrics=registry)
        recorder = SpanRecorder(tracer)

    storage = open_storage("sqlite", args.data, sync=SYNC)
    if recorder is not None:
        _instrument_storage(storage, recorder)
    server = gateway = None
    try:
        linker = NNexus(
            scheme=build_msc(leaves_per_section=args.leaves_per_section),
            storage=storage,
            metrics=registry,
            tracer=tracer,
        )
        if recorder is not None:
            _instrument_linker(linker, recorder)
        if args.corpus:
            with open(args.corpus, encoding="utf-8") as handle:
                for line in handle:
                    linker.add_object(object_from_payload(json.loads(line)))
            for object_id in linker.object_ids():
                linker.render_object(object_id)
        server = NNexusServer(linker, max_in_flight=16)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        gateway = serve_http(linker, max_in_flight=16, rwlock=server.rwlock)
        if recorder is not None:
            _instrument_front_ends(server, gateway, recorder)
        print(f"ready {server.address[1]} {gateway.address[1]}", flush=True)

        marks: dict[str, dict] = {}
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "mark" and recorder is not None:
                marks[argument] = _cumulative(linker, registry)
                recorder.phase = argument
            elif command == "dump" and recorder is not None:
                marks["end"] = _cumulative(linker, registry)
                dump = {
                    "spans": recorder.spans,
                    "counts": dict(recorder.counts),
                    "marks": marks,
                    "memory": linker.resource_stats()["memory"],
                }
                Path(argument).write_text(json.dumps(dump), encoding="utf-8")
            elif command == "stop":
                break
            print("ok", flush=True)
    finally:
        if gateway is not None:
            gateway.set_ready(False)
        if server is not None:
            server.shutdown_gracefully(drain_timeout=10.0)
        if gateway is not None:
            gateway.shutdown()
            gateway.server_close()
        if server is not None:
            linker.accountant.stop()
            linker.checkpoint_storage()
        storage.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
