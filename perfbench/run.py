"""Serving benchmark of the NNexus linker: one run of one workload.

    python3 perfbench/run.py --workload link-api --seed 1 --seconds 18 --trace 0

Starts the linker as a server in its own process (``perfbench/server.py``)
on an empty sqlite data directory, three times, and drives one slice of
the workload against each from two closed-loop client threads; checks
every answer; restarts the server on the data directory the last one
left behind; and prints a run report followed by one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same inputs with spans recorded in the server and reports the per-layer
metrics instead (see README.md).  Run from the root of a checkout: the
program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: ``browse`` is not in BENCHMARK.json: on a shared host its rates
#: spread too far between runs to gate on (see README.md).
WORKLOADS = ("browse", "link-api", "long-notes")
#: The metrics a run reports, with their units, as BENCHMARK.json
#: declares them; the report line carries the rest.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
CLIENT_THREADS = 2
#: Set-ups and cold restarts per run; each metric is their median.
SETUPS = 3
COLD_STARTS = 3
#: A process that does not answer within this many seconds is killed.
PROCESS_TIMEOUT = 150.0


class BenchError(Exception):
    """The run could not be carried out (not a wrong answer)."""


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


class ServerProcess:
    """``perfbench/server.py`` as a child process with a line protocol."""

    def __init__(self, data: Path, corpus: Path | None, leaves: int, trace: int) -> None:
        command = [
            sys.executable,
            str(HERE / "server.py"),
            "--data",
            str(data),
            "--leaves-per-section",
            str(leaves),
            "--trace",
            str(trace),
        ]
        if corpus is not None:
            command += ["--corpus", str(corpus)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )
        # Kill a process that hangs instead of answering.
        self._watchdog = threading.Timer(PROCESS_TIMEOUT, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        words = self._line().split()
        if len(words) != 3 or words[0] != "ready":
            self.close()
            raise BenchError(f"server did not start: {' '.join(words)!r}")
        self.wire_port, self.http_port = int(words[1]), int(words[2])

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"server exited with code {self.proc.poll()}")
        return line.strip()

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if self._line() != "ok":
            raise BenchError(f"server refused {text!r}")

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM not reported")

    def close(self) -> None:
        """Ask the server to stop; kill it if it does not; wait for it."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self._watchdog.cancel()
            for stream in (self.proc.stdin, self.proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass
        if self.proc.returncode != 0:
            raise BenchError(f"server exited with code {self.proc.returncode}")


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------


class Http:
    """One keep-alive HTTP/1.1 connection to the gateway."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def entry(self, object_id: int) -> tuple[int, bytes]:
        self.conn.request("GET", f"/entry/{object_id}")
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def html_of(status: int, body: bytes) -> str | None:
    return json.loads(body)["html"] if status == 200 else None


def fetch_entries(port: int, object_ids: list[int]) -> tuple[dict[int, str | None], list[float]]:
    """Renderings served for ``object_ids`` (None: not served) and latencies."""
    served: dict[int, str | None] = {}
    latency: list[float] = []
    web = Http(port)
    try:
        for object_id in object_ids:
            started = perf_counter()
            status, body = web.entry(object_id)
            latency.append(perf_counter() - started)
            served[object_id] = html_of(status, body)
    finally:
        web.close()
    return served, latency


def wire_client(port: int):
    from repro.server.client import NNexusClient
    from repro.server.resilience import RetryPolicy

    return NNexusClient("127.0.0.1", port, timeout=60, retry=RetryPolicy.none())


class Tally:
    """Latencies and outcomes of one client thread."""

    def __init__(self) -> None:
        self.latency: dict[str, list[float]] = {"read": [], "write": []}
        self.attempted = {"read": 0, "write": 0}
        self.failed = {"read": 0, "write": 0}
        self.answers: list[tuple[int, str, list[dict[str, str]]]] = []
        self.edited: dict[int, object] = {}
        self.errors: list[str] = []
        self.finished = 0.0

    def merge(self, other: "Tally") -> None:
        for kind, values in other.latency.items():
            self.latency[kind] += values
        for kind in self.attempted:
            self.attempted[kind] += other.attempted[kind]
            self.failed[kind] += other.failed[kind]
        self.answers += other.answers
        self.edited.update(other.edited)
        self.errors += other.errors


def edit(client, obj, tally: Tally) -> None:
    tally.attempted["write"] += 1
    start = perf_counter()
    try:
        client.update_object(obj)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted
        tally.failed["write"] += 1
        tally.errors.append(f"updateObject {obj.object_id}: {exc}")
        return
    tally.latency["write"].append(perf_counter() - start)
    tally.edited[obj.object_id] = obj


class Workload:
    """The operations of one workload, as rounds per client thread."""

    def __init__(self, name: str, seed: int, corpus) -> None:
        from workloads import (
            EditMaker,
            long_notes,
            read_sequence,
            short_notes,
        )

        self.name = name
        self.editors = [
            EditMaker(corpus, seed, thread, CLIENT_THREADS) for thread in range(CLIENT_THREADS)
        ]
        ids = [obj.object_id for obj in corpus.objects]
        self.reads = [
            read_sequence(seed * 7 + thread, ids, 4096) for thread in range(CLIENT_THREADS)
        ]
        self.notes = []
        if name == "link-api":
            self.notes = short_notes(corpus, seed)
        elif name == "long-notes":
            self.notes = long_notes(corpus, seed)

    def warm_up(self, server: ServerProcess) -> None:
        from workloads import WARMUP_READS

        if self.name == "browse":
            fetch_entries(server.http_port, self.reads[0][:WARMUP_READS])
        else:
            with wire_client(server.wire_port) as client:
                for index in range(WARMUP_READS):
                    note = self.notes[index % len(self.notes)]
                    client.link_entry(note.text, note.classes)

    def thread(self, index: int, server: ServerProcess, start, clock: dict) -> Tally:
        from workloads import BROWSE_ROUND, LINK_API_ROUND, LONG_NOTES_ROUND

        tally = Tally()
        wire = wire_client(server.wire_port)
        web = Http(server.http_port) if self.name == "browse" else None
        try:
            start.wait()
            deadline = clock["deadline"]
            rounds = 0
            while True:
                if self.name == "browse":
                    for position in range(BROWSE_ROUND):
                        if position == BROWSE_ROUND // 2:
                            edit(wire, self.editors[index].next(), tally)
                            continue
                        reads = self.reads[index]
                        step = rounds * (BROWSE_ROUND - 1) + position
                        self._get(web, reads[step % len(reads)], tally)
                else:
                    size = LINK_API_ROUND if self.name == "link-api" else LONG_NOTES_ROUND
                    for position in range(size):
                        step = (rounds * size + position) * CLIENT_THREADS + index
                        self._link(wire, step % len(self.notes), tally)
                rounds += 1
                if perf_counter() >= deadline:
                    break
        finally:
            tally.finished = perf_counter()
            wire.close()
            if web is not None:
                web.close()
        return tally

    @staticmethod
    def _get(web: Http, object_id: int, tally: Tally) -> None:
        tally.attempted["read"] += 1
        started = perf_counter()
        try:
            status, _ = web.entry(object_id)
        except (OSError, http.client.HTTPException) as exc:
            tally.failed["read"] += 1
            tally.errors.append(f"GET /entry/{object_id}: {exc}")
            return
        if status != 200:
            tally.failed["read"] += 1
            tally.errors.append(f"GET /entry/{object_id}: HTTP {status}")
            return
        tally.latency["read"].append(perf_counter() - started)

    def _link(self, wire, note_index: int, tally: Tally) -> None:
        note = self.notes[note_index]
        tally.attempted["read"] += 1
        started = perf_counter()
        try:
            body, links = wire.link_entry(note.text, note.classes)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            tally.failed["read"] += 1
            tally.errors.append(f"linkEntry note {note_index}: {exc}")
            return
        tally.latency["read"].append(perf_counter() - started)
        tally.answers.append((note_index, body, links))


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def cpu_probe() -> float:
    """Milliseconds of a fixed pure-Python loop: drift of the shared host."""
    started = perf_counter()
    total = 0
    for value in range(1_500_000):
        total += value * value % 7
    return (perf_counter() - started) * 1000.0


def tail(values: list[float]) -> dict[str, float]:
    """Median plus the highest percentile with at least ten samples beyond."""
    ordered = sorted(values)
    count = len(ordered)
    out: dict[str, float] = {"n": count}
    if not count:
        return out
    out["p50_ms"] = median(ordered) * 1000.0
    if count < 40:
        return out
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(count * pct / 100.0)
        if count - rank >= 10:
            out[f"p{pct:g}_ms"] = ordered[rank - 1] * 1000.0
            out["beyond"] = count - rank
            break
    return out


def host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, all CPUs."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def disk_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20


def timed_slice(workload: Workload, server: ServerProcess, seconds: float) -> tuple[Tally, dict]:
    """One timed slice: both client threads for ``seconds`` of whole rounds."""
    start = threading.Barrier(CLIENT_THREADS + 1)
    results: list[Tally | None] = [None] * CLIENT_THREADS
    failures: list[BaseException] = []
    clock: dict[str, float] = {}

    def drive(index: int) -> None:
        try:
            results[index] = workload.thread(index, server, start, clock)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failures.append(exc)
            start.abort()

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    cpu_before = server.cpu_seconds()
    steal_before = host_steal_s()
    own_before = os.times()
    began = perf_counter()
    clock["deadline"] = began + seconds
    try:
        start.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    wall = max(t.finished for t in results) - began
    own_after = os.times()
    cpu = server.cpu_seconds() - cpu_before
    tally = Tally()
    for part in results:
        tally.merge(part)
    ops = sum(tally.attempted.values())
    reads, writes = tally.latency["read"], tally.latency["write"]
    figures = {
        "ops": ops,
        "failed": sum(tally.failed.values()),
        "errors": tally.errors[:5],
        "ops_per_s": (len(reads) + len(writes)) / wall,
        "read_p50_ms": median(reads) * 1000.0 if reads else None,
        "write_p50_ms": median(writes) * 1000.0 if writes else None,
        "cpu_ms_per_op": cpu / ops * 1000.0 if ops else None,
        "generator_cpu_ms_per_op": (
            (own_after.user + own_after.system - own_before.user - own_before.system)
            / ops
            * 1000.0
            if ops
            else None
        ),
        "host_steal_s": host_steal_s() - steal_before,
        **{
            kind: {
                "attempted": tally.attempted[kind],
                "failed": tally.failed[kind],
                **tail(tally.latency[kind]),
            }
            for kind in ("read", "write")
        },
    }
    return tally, figures


def run(workload_name: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    from checks import (
        check_links,
        check_quality,
        check_renderings,
        check_restart,
        score,
    )
    from workloads import (
        COLD_CHECK_SAMPLE,
        EDIT_PROBE,
        build_corpus,
    )

    from repro.core.linker import NNexus
    from repro.core.render import render_html
    from repro.persistence.api import object_to_payload

    report: dict = {"workload": workload_name, "seed": seed, "trace": trace}
    phases: dict[str, float] = {}
    mark = perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = perf_counter()
        phases[name] = now - mark
        mark = now

    report["cpu_probe_ms_before"] = cpu_probe()
    corpus = build_corpus()
    leaves = corpus.params.leaves_per_section
    corpus_file = work / "corpus.jsonl"
    with corpus_file.open("w", encoding="utf-8") as handle:
        for obj in corpus.objects:
            handle.write(json.dumps(object_to_payload(obj)) + "\n")
    workload = Workload(workload_name, seed, corpus)
    ids = [obj.object_id for obj in corpus.objects]
    problems: list[str] = []
    phase("inputs")

    # Set-up and a timed slice, several times, each on a server launched
    # on an empty data directory: ingest, render every entry once, warm
    # up the clients, time a slice of the run's operations, then probe
    # the server with author edits.  Slices far apart in time keep one
    # stall of the shared host from deciding a run.  The last server
    # stays up for the stale-rendering check: every entry is fetched,
    # whether or not the server reported it invalidated.
    setups: list[float] = []
    slices: list[dict] = []
    answers: list[tuple[int, str, list[dict[str, str]]]] = []
    attempted = failed = 0
    for attempt in range(SETUPS):
        data = work / f"data{attempt}"
        last = attempt == SETUPS - 1
        server = ServerProcess(data, corpus_file, leaves, trace)
        try:
            workload.warm_up(server)
            setups.append(perf_counter() - server.started)
            if last:
                server.command("mark timed")
            tally, figures = timed_slice(workload, server, seconds / SETUPS)
            answers += tally.answers
            if last:
                rss_mb = server.peak_rss_mb()
                server.command("mark epilogue")
            probe = Tally()
            with wire_client(server.wire_port) as client:
                for number in range(EDIT_PROBE):
                    edit(client, workload.editors[number % CLIENT_THREADS].next(), probe)
            figures["probe_write_p50_ms"] = median(probe.latency["write"]) * 1000.0
            slices.append(figures)
            figures["probe_write"] = {
                "attempted": probe.attempted["write"],
                "failed": probe.failed["write"],
                **tail(probe.latency["write"]),
            }
            attempted += figures["ops"] + probe.attempted["write"]
            failed += figures["failed"] + probe.failed["write"]
            if last:
                # The last server's state: its slice's edits, then the probe's.
                edited = {**tally.edited, **probe.edited}
                served, get_latency = fetch_entries(server.http_port, ids)
                if trace:
                    dump_path = work / "spans.json"
                    server.command(f"dump {dump_path}")
                    dump = json.loads(dump_path.read_text(encoding="utf-8"))
        finally:
            server.close()
        if not last:
            shutil.rmtree(data)
    report["disk_mb"] = disk_mb(data)
    phase("setup_timed_probe")

    # Answers of the timed phase.
    if workload.notes:
        by_note: dict[int, tuple[str, list[dict[str, str]]]] = {}
        for note_index, body, links in answers:
            note = workload.notes[note_index]
            for problem in check_links(note.text, body, links, note.escaped):
                problems.append(f"note {note_index}: {problem}")
            first = by_note.setdefault(note_index, (body, links))
            if first != (body, links):
                problems.append(f"note {note_index}: answers differ between calls")
        precision, recall = score(
            [(links, workload.notes[i].note.ground_truth) for i, (_, links) in by_note.items()]
        )
        report["precision"], report["recall"] = precision, recall
        problems += check_quality(precision, recall)

    # Oracle: a fresh in-memory linker over the final corpus, no cache.
    final = [edited.get(obj.object_id, obj) for obj in corpus.objects]
    oracle = NNexus(scheme=corpus.scheme)
    for obj in final:
        oracle.add_object(obj)

    def fresh(object_id: int) -> str:
        return render_html(oracle.link_object(object_id))

    problems += check_renderings(served, {oid: fresh(oid) for oid in ids})
    phase("checks")

    # Cold restarts on the directory the run left behind.
    cold_ids = sorted(random.Random(seed + 202).sample(ids, COLD_CHECK_SAMPLE))
    expected = {oid: fresh(oid) for oid in cold_ids}
    colds: list[float] = []
    restore_s: list[float] = []
    for attempt in range(COLD_STARTS):
        restarted = ServerProcess(data, None, leaves, trace)
        try:
            # The first answer ends the cold start; all are checked.
            after, _ = fetch_entries(restarted.http_port, cold_ids[attempt:attempt + 1])
            colds.append(perf_counter() - restarted.started)
            rest = [oid for oid in cold_ids if oid not in after]
            after.update(fetch_entries(restarted.http_port, rest)[0])
            problems += check_renderings(after, expected)
            with wire_client(restarted.wire_port) as client:
                problems += check_restart(client.describe()["objects"], len(final))
            if trace:
                cold_dump = work / "cold.json"
                restarted.command("mark restored")
                restarted.command(f"dump {cold_dump}")
                spans = json.loads(cold_dump.read_text(encoding="utf-8"))["spans"]
                restore_s += [s[2] - s[1] for s in spans if s[0] == "storage.load"]
        finally:
            restarted.close()
    phase("cold_starts")
    report["cpu_probe_ms_after"] = cpu_probe()

    def across(key: str, pick=median) -> float:
        values = [f[key] for f in slices if f[key] is not None]
        return pick(values) if values else 0.0

    report["setup_s_runs"] = setups
    report["cold_start_s_runs"] = colds
    report["slices"] = slices
    report["generator.cpu_ms_per_op"] = across("generator_cpu_ms_per_op")
    # Rates and latencies are the best slice's: other guests of the
    # shared host only ever slow a slice down.  CPU time excludes the
    # time the host took away, so its median is kept.  Writes are the
    # slice's own where the workload has them, else the probe's.
    end_to_end = {
        "setup_s": median(setups),
        "cold_start_s": median(colds),
        "ops_per_s": across("ops_per_s", max),
        "read_p50_ms": across("read_p50_ms", min),
        "write_p50_ms": across("write_p50_ms", min) or across("probe_write_p50_ms", min),
        "cpu_ms_per_op": across("cpu_ms_per_op"),
        "rss_mb": rss_mb,
    }
    report["end_to_end"] = end_to_end

    if trace:
        from tracing import layer_metrics

        # Client latencies per phase of the last server: its timed
        # slice and the epilogue (probe edits, the check's fetches).
        reads, writes = tally.latency["read"], tally.latency["write"]
        client_side = {
            "timed": {
                "wire": writes + (reads if workload.notes else []),
                "get": [] if workload.notes else reads,
            },
            "epilogue": {"wire": probe.latency["write"], "get": get_latency},
            "restore_s": median(restore_s),
            "disk_mb": report["disk_mb"],
            "generator_cpu_ms_per_op": report["generator.cpu_ms_per_op"],
        }
        values, report["self_ms"] = layer_metrics(dump, client_side)
        units = PER_LAYER
    else:
        values, units = end_to_end, END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["attempted"], report["failed"] = attempted, failed
    report["errors"] = [e for f in slices for e in f["errors"]][:5] + probe.errors[:5]
    report["problems"] = problems[:20]
    report["phase_s"] = phases
    return {
        "report": report,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = run(args.workload, args.seed, args.seconds, args.trace, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("report " + json.dumps(outcome["report"], sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
