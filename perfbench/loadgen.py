"""serve-mix: an open-loop load generator against a ``repro serve`` process.

Requests go out on a fixed schedule (``RATE`` per second, evenly
spaced) whatever the server's state, so a stall shows as queueing and
lateness instead of as a slower client.  Latency runs from the time a
request was *due* to the time its verdict was observed: the ``POST``
answer for a cache hit, and for a cold refutation the job document
fetched after its event stream closes.

The specs are a seeded shuffle of a pool of distinct small questions
(candidate x f x reduction mode x proposals, deduplicated by the
server's own cache key).  Every ``COLD_EVERY``-th request asks a question
not asked before; the rest re-ask earlier ones, except the newest, with
Zipf popularity, so they are cache hits.  Requests rotate over enough
tenants that each stays well under the default token bucket (5/s, burst
10) and nothing is refused.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import random
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from workloads import Op, Workload, _note

#: About half of the capacity of a 2-CPU host when it runs slow (see
#: README.md).
RATE = 60.0
COLD_EVERY = 40
LATENCY_LIMIT_S = 1.0
ZIPF_S = 1.1
#: Pool questions: tob(2,f) under every reduction mode, 48 distinct cache
#: keys that each cost about 0.05 s in-process, so the cold jobs keep the
#: server's interpreter lock busy a small share of the time and the tail
#: does not depend on which questions the seed picks.
POOL = (("tob", 2, 0), ("tob", 2, 1))
POOL_SMOKE = (("delegation", 2, 0), ("delegation", 2, 1))
REDUCTIONS = ("none", "symmetry", "por", "full")
PROPOSAL_VALUES = 3
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
DRAIN_TIMEOUT_S = 60.0


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live process (Linux ``VmHWM``), 0 if unknown."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``python -m repro serve --port 0`` subprocess on a fresh data dir."""

    def __init__(self, data_dir: Path, root: Path) -> None:
        # A shell that starts a job in the background makes it ignore
        # SIGINT, and the server would inherit that and ignore stop().
        signal.signal(signal.SIGINT, signal.default_int_handler)
        started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--data-dir", str(data_dir)],
            cwd=root,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = self._banner()
        except BaseException:
            self.stop()
            raise
        self.start_seconds = perf_counter() - started
        match = re.search(r"http://([\d.]+):(\d+)", line)
        self.host, self.port = match.group(1), int(match.group(2))

    def _banner(self) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(START_TIMEOUT_S):
                raise RuntimeError("repro serve did not start in time")
        line = self.process.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"repro serve failed to start: {line!r}")
        return line

    def stop(self) -> int:
        """SIGINT (the graceful path), then wait; returns the peak RSS in KiB."""
        peak = _vm_hwm_kb(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        return peak


async def _http(host: str, port: int, method: str, path: str, body=None):
    """One ``Connection: close`` request; returns ``(status, body bytes)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n".encode()
            + payload
        )
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, content = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), content


class Serve(Workload):
    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.root = Path.cwd()
        self.servers: list[Server] = []
        self.library: dict = {}

    # -- set-up ------------------------------------------------------------

    def probe_setup(self) -> float:
        """Start a server on a fresh data dir; it serves a later window."""
        server = Server(self.tmp / f"serve-{len(self.servers)}", self.root)
        self.servers.append(server)
        return server.start_seconds

    def setup(self) -> None:
        from repro.serve.cache import job_key
        from repro.serve.wire import JobSpec, build_system

        rng = random.Random(self.seed)
        pool, keys = [], set()
        for (candidate, n, f), reduction in itertools.product(
            POOL_SMOKE if self.smoke else POOL, REDUCTIONS
        ):
            system = build_system(candidate, n, f)
            for values in itertools.product(range(PROPOSAL_VALUES), repeat=n):
                document = {
                    "candidate": candidate,
                    "n": n,
                    "f": f,
                    "reduction": reduction,
                    "proposals": {
                        str(endpoint): value
                        for endpoint, value in zip(system.process_ids, values)
                    },
                }
                key = job_key(JobSpec.from_json(document), system)
                if key not in keys:
                    keys.add(key)
                    pool.append(document)
        rng.shuffle(pool)
        self.pool = pool
        self.rng = rng

    def _schedule(self, count: int) -> list:
        """``count`` request bodies: every COLD_EVERY-th a new question."""
        cold = iter(self.pool)
        seen, weights, requests = [], [], []
        tenants = max(4, math.ceil(RATE / 2))
        for index in range(count):
            document = next(cold, None) if index % COLD_EVERY == 0 else None
            if document is not None:
                seen.append(document)
                weights.append((weights[-1] if weights else 0.0) + len(seen) ** -ZIPF_S)
            else:
                # The newest question is likely still running: re-asking it
                # would coalesce onto its job instead of hitting the cache.
                known = max(1, len(seen) - 1)
                document = self.rng.choices(seen[:known], cum_weights=weights[:known])[0]
            requests.append({**document, "tenant": f"tenant-{index % tenants}"})
        return requests

    # -- one window ----------------------------------------------------------

    def op(self) -> Op:
        if self.ops_done < len(self.servers):
            server = self.servers[self.ops_done]
        else:
            server = Server(self.tmp / f"serve-{len(self.servers)}", self.root)
            self.servers.append(server)
        seconds = 1.0 if self.smoke else self.window_seconds
        requests = self._schedule(max(1, int(RATE * seconds)))
        # The server and the generator run on both CPUs.
        try:
            (records, wall), _, scale = self.timed(
                lambda: asyncio.run(self._window(server, requests)), both_cpus=True
            )
        finally:
            rss_kb = server.stop()
        self.ops_done += 1
        result = self._result(requests, records, wall, rss_kb)
        result.scale = scale
        result.paced = True
        return result

    async def _window(self, server: Server, requests: list):
        start = perf_counter()
        tasks = []
        for index, body in enumerate(requests):
            due = start + index / RATE
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(self._request(server, body, due)))
        records = await asyncio.wait_for(
            asyncio.gather(*tasks, return_exceptions=True), DRAIN_TIMEOUT_S
        )
        observed = [r["observed"] for r in records if isinstance(r, dict)]
        if self.recorder is not None:
            # Requests overlap, so they are spans without a parent and
            # outside the recorder's call stack.
            for record in records:
                if isinstance(record, dict):
                    due = record["observed"] - record["latency"]
                    self.recorder.spans.append(
                        [len(self.recorder.spans), None, "serve.request", due,
                         record["observed"]]
                    )
        return records, (max(observed) if observed else perf_counter()) - start

    async def _request(self, server: Server, body: dict, due: float) -> dict:
        sent, sent_epoch = perf_counter(), time.time()
        record = {"lag": sent - due, "kind": "error", "verdict": None}
        status, content = await _http(server.host, server.port, "POST", "/jobs", body)
        record["submit"] = perf_counter() - sent
        document = json.loads(content)
        if status == 200 and document.get("cached"):
            record["kind"] = "hit"
            record["verdict"] = document.get("verdict")
        elif status == 202:
            record["kind"] = "coalesced" if document.get("coalesced") else "cold"
            path = f"/jobs/{document['id']}"
            await _http(server.host, server.port, "GET", path + "/events")
            status, content = await _http(server.host, server.port, "GET", path)
            job = json.loads(content)
            if job.get("state") == "completed":
                record["verdict"] = job.get("verdict")
            if job.get("started_at") and job.get("finished_at"):
                record["queue_wait"] = job["started_at"] - job["submitted_at"]
                record["run"] = job["finished_at"] - job["started_at"]
                # Server and client share the host clock: from sending to
                # the job's end is time spent in serve.
                record["served"] = job["finished_at"] - sent_epoch
        elif status == 429:
            record["kind"] = "refused"
        record["observed"] = perf_counter()
        record["latency"] = record["observed"] - due
        return record

    # -- checks and figures ----------------------------------------------------

    def _library_verdict(self, body: dict):
        """The verdict ``refute_candidate`` gives for the same question."""
        shape = (body["candidate"], body["n"], body["f"], body["reduction"])
        if shape not in self.library:
            from repro.analysis import refute_candidate
            from repro.engine import ExplorationEngine, ReductionConfig
            from repro.serve.wire import build_system

            reduction = ReductionConfig.from_name(shape[3])
            verdict = refute_candidate(
                build_system(*shape[:3]),
                engine=ExplorationEngine(workers=1, progress=False),
                reduction=reduction if reduction.enabled else None,
            )
            self.library[shape] = json.loads(json.dumps(verdict.to_json()))
        return self.library[shape]

    def _result(self, requests, records, wall: float, rss_kb: int) -> Op:
        # Goodput: verdicts within the limit per second of the window.
        result = Op(wall=wall, attempted=len(requests), work_seconds=wall, rss_kb=rss_kb)
        good = []
        for body, record in zip(requests, records):
            if not isinstance(record, dict):
                _note(f"serve-mix request failed: {record!r}")
                result.failed += 1
                continue
            if record["kind"] in ("refused", "error") or record["verdict"] is None:
                result.failed += 1
                continue
            if record["verdict"] != self._library_verdict(body):
                _note(f"serve-mix {body}: verdict differs from the library's")
                result.failed += 1
                result.wrong += 1
                continue
            good.append(record)
            result.samples.append(record["latency"])
            if record["latency"] <= LATENCY_LIMIT_S:
                result.work += 1
        records = [r for r in records if isinstance(r, dict)]
        hits = [r["submit"] for r in records if r["kind"] == "hit"]
        colds = [r for r in good if r["kind"] == "cold" and "run" in r]
        result.layer = {
            "serve.submit_ms": 1000 * statistics.median(hits) if hits else 0.0,
            "serve.queue_wait_ms": (
                1000 * statistics.median(r["queue_wait"] for r in colds) if colds else 0.0
            ),
            "serve.run_ms": 1000 * statistics.median(r["run"] for r in colds) if colds else 0.0,
            "serve.cache_hit_ratio": len(hits) / len(requests),
            "serve.cold_share": sum(r["kind"] == "cold" for r in records) / len(requests),
            "serve.refused": sum(r["kind"] == "refused" for r in records),
            "loadgen.lag_ms": 1000 * max((r["lag"] for r in records), default=0.0),
            # The parts of each request's latency that are accounted for:
            # the generator's lateness, then the POST round trip or, for a
            # job, the time until it finished.  What remains is the
            # notification of the end and the fetch of the verdict.
            "loadgen.self_s": sum(r["lag"] for r in good),
            "serve.self_s": sum(max(r["submit"], r.get("served", 0.0)) for r in good),
            "serve.latency_s": sum(r["latency"] for r in good),
        }
        return result

    def close(self) -> None:
        for server in self.servers:
            server.stop()
