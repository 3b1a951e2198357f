"""The benchmark's workloads: what one operation is and how it is checked.

Every workload drives the program through its public API (the serve
workload through the HTTP surface, see :mod:`loadgen`).  ``setup()`` is
the work a user pays before the first operation — imports and the
instance build — and is what the set-up probes time.  ``op()`` runs one
operation, checks its output against ``golden.json`` (or, for fuzz,
against an independent replay) and returns an :class:`Op`.  A check that
fails counts the operation as failed; it never aborts the run.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed


@dataclass
class Op:
    """One measured operation.

    ``wall`` is the timed part only (checks run outside it); ``samples``
    are per-item latencies in seconds (an exploration, one verdict, one
    request, one time-to-counterexample); ``work`` items were completed
    in ``work_seconds``, all as measured.  ``scale`` turns them into
    seconds at the reference speed (see :mod:`speed`), except that a
    schedule, not the host, sets ``wall`` and ``work_seconds`` of a
    ``paced`` operation, and only its ``samples`` are scaled.
    """

    wall: float
    attempted: int = 1
    failed: int = 0
    wrong: int = 0
    samples: list = field(default_factory=list)
    work: float = 0.0
    work_seconds: float = 0.0
    rss_kb: int | None = None
    layer: dict = field(default_factory=dict)
    scale: float = 1.0
    paced: bool = False


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _balanced(system) -> dict:
    return {endpoint: index % 2 for index, endpoint in enumerate(system.process_ids)}


def _note(text: str) -> None:
    print(f"perfbench: {text}", file=sys.stderr, flush=True)


class Workload:
    #: The workload's name, set by :func:`make`.
    name = ""

    def __init__(self, *, seed: int, smoke: bool, tmp: Path, golden: dict) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        self.golden = golden
        self.ops_done = 0
        #: The :class:`layers.Recorder` of a traced run, else ``None``.
        self.recorder = None
        #: The reference timings after the last timed call, and when.
        self._after: tuple = (float("-inf"), [])

    def setup(self) -> None:
        raise NotImplementedError

    def probe_setup(self) -> float:
        """Seconds from starting a fresh process to it being ready to operate.

        The child runs ``setup()`` under ``run.py --probe-setup`` and
        says ``ready``; interpreter start and imports are included.
        """
        command = [sys.executable, str(Path(__file__).with_name("run.py")),
                   "--probe-setup", "--workload", self.name, "--seed", str(self.seed)]
        if self.smoke:
            command.append("--smoke")
        start = perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            seconds = perf_counter() - start
            child.stdout.read()
            if child.wait() != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe of {self.name} failed: {line!r}")
        return seconds

    def trace(self, on: bool) -> None:
        """Record layers only inside the timed part of an operation."""
        if self.recorder is not None:
            self.recorder.enabled = on

    def timed(self, call, both_cpus: bool = False):
        """``(call(), seconds, scale)``: the call timed with tracing on.

        ``scale`` comes from reference timings just before and just
        after the call (see :mod:`speed`), on both CPUs for a call that
        works on both; those after the previous call serve as those
        before this one if they are less than ``speed.REUSE_S`` old.
        """
        sample = speed.sample_cpus if both_cpus else speed.sample
        taken, before = self._after
        if perf_counter() - taken > speed.REUSE_S:
            before = sample()
        self.trace(True)
        start = perf_counter()
        result = call()
        seconds = perf_counter() - start
        self.trace(False)
        after = sample()
        self._after = (perf_counter(), after)
        return result, seconds, speed.factor(before + after)

    def op(self) -> Op:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Explore(Workload):
    """Exhaust delegation(5,1): in RAM, on two workers, or scanned to sqlite.

    delegation(6,1) takes 8-11 s on one CPU, so a run would hold a single
    exploration and follow the host's speed; delegation(5,1) (5,582
    states, about 1.5 s) gives a median over several.
    """

    def __init__(self, *, workers: int = 1, sqlite: bool = False, **kwargs) -> None:
        super().__init__(**kwargs)
        self.workers = workers
        self.sqlite = sqlite
        self.n = 4 if self.smoke else 5
        self.expected = self.golden["explore"][f"delegation({self.n},1)"]

    def setup(self) -> None:
        from repro.analysis import DeterministicSystemView
        from repro.engine import ExplorationEngine
        from repro.engine.codec import Codec
        from repro.protocols import delegation_consensus_system

        self._view_type = DeterministicSystemView
        self._engine_type = ExplorationEngine
        self.system = delegation_consensus_system(self.n, resilience=1)
        self.root = self.system.initialization(_balanced(self.system)).final_state
        self.root_digest = Codec().digest(self.root)

    def op(self) -> Op:
        store_dir = self.tmp / f"store-{self.ops_done}"
        uri = f"sqlite:{store_dir}?flush={500 if self.smoke else 2000}"
        engine = self._engine_type(
            workers=self.workers, store=uri if self.sqlite else None, progress=False
        )
        view = self._view_type(self.system)
        cpu_self, cpu_children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        exhaust = engine.scan if self.sqlite else engine.explore
        graph, wall, scale = self.timed(
            lambda: exhaust(view, self.root), both_cpus=self.workers > 1
        )
        if self.sqlite:
            graph = None
        cpu_self = _cpu(resource.RUSAGE_SELF) - cpu_self
        cpu_children = _cpu(resource.RUSAGE_CHILDREN) - cpu_children
        report = engine.last_report
        digest = self._order_digest(graph, store_dir, uri)
        del graph, view, engine
        shutil.rmtree(store_dir, ignore_errors=True)
        gc.collect()
        self.ops_done += 1
        found = {
            "states": report.states,
            "transitions": report.transitions,
            "order_digest": digest,
        }
        wrong = int(found != self.expected)
        if wrong:
            _note(f"{self.name}: expected {self.expected}, got {found}")
        if report.degraded:
            _note(f"{self.name}: the worker pool degraded to in-process expansion")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + sum(
            report.worker_rss_kb
        )
        phases = report.phase_seconds
        return Op(
            wall=wall,
            failed=int(bool(wrong or report.degraded)),
            wrong=wrong,
            samples=[wall],
            work=report.states,
            work_seconds=wall,
            rss_kb=rss_kb,
            scale=scale,
            layer={
                "parallel.coordinator_cpu_s": cpu_self if self.workers > 1 else 0.0,
                "parallel.coordinator_idle_s": (
                    max(wall - cpu_self, 0.0) if self.workers > 1 else 0.0
                ),
                "parallel.worker_cpu_s": cpu_children,
                "parallel.expand_s": phases.get("expand_seconds", 0.0),
                "parallel.fingerprint_s": phases.get("fingerprint_seconds", 0.0),
                "parallel.merge_s": phases.get("merge_seconds", 0.0),
                "parallel.serialize_s": phases.get("serialize_seconds", 0.0),
                "parallel.rounds": report.rounds if self.workers > 1 else 0,
                "parallel.degraded": int(report.degraded),
                "parallel.worker_rss_kb": sum(report.worker_rss_kb),
                "store.spilled_states": report.spilled_states,
            },
        )

    def _order_digest(self, graph, store_dir: Path, uri: str) -> str:
        """blake2b over the states' codec digests in discovery order."""
        from repro.engine.codec import Codec, digest_of_packed
        from repro.engine.store import StoreConfig, open_store

        hasher = hashlib.blake2b(digest_size=16)
        if graph is not None:
            codec = Codec()
            for state in graph.states:
                hasher.update(codec.digest(state))
            return hasher.hexdigest()
        store = open_store(StoreConfig.from_uri(uri), namespace=self.root_digest.hex())
        try:
            for packed in store.iter_packed():
                hasher.update(digest_of_packed(packed))
        finally:
            store.close()
        return hasher.hexdigest()


#: refute-mix: Thm 2 (delegation, last-writer), Thm 9 (tob), message
#: passing (arbiter, exchange), the register-only case (last-writer), a
#: not-refuted verdict (exchange) and reduction=full on two candidates.
REFUTE_CASES = (
    ("tob", 3, 1, "none"),
    ("arbiter", 4, 1, "none"),
    ("delegation", 4, 2, "none"),
    ("last-writer", 2, 0, "none"),
    ("exchange", 2, 0, "none"),
    ("delegation", 5, 1, "full"),
    ("tob", 3, 1, "full"),
)
REFUTE_SMOKE = (
    ("last-writer", 2, 0, "none"),
    ("exchange", 2, 0, "none"),
    ("delegation", 3, 1, "full"),
)
#: ``repro refute arbiter-lossy`` dies inside the hook search at this
#: commit.  It is attempted once per pass and counted as a failed
#: operation, with its time kept out of the pass's wall time, so a fix
#: shows as fewer failures and not as a slowdown.
KNOWN_DEFECT = ("arbiter-lossy", 3, 1, "none")


def case_label(case) -> str:
    candidate, n, f, reduction = case
    return f"{candidate}({n},{f})+{reduction}"


class Refute(Workload):
    def setup(self) -> None:
        from repro.analysis import refute_candidate
        from repro.engine import ExplorationEngine, ReductionConfig
        from repro.serve.wire import build_system

        self._refute = refute_candidate
        self._engine_type = ExplorationEngine
        cases = (REFUTE_SMOKE if self.smoke else REFUTE_CASES) + (KNOWN_DEFECT,)
        self.cases = []
        for case in cases:
            reduction = ReductionConfig.from_name(case[3])
            self.cases.append(
                (case, build_system(*case[:3]), reduction if reduction.enabled else None)
            )

    def _verdict(self, system, reduction):
        engine = self._engine_type(workers=1, progress=False)
        return self._refute(system, engine=engine, reduction=reduction)

    def op(self) -> Op:
        result, scaled = Op(wall=0.0, attempted=0), 0.0
        for case, system, reduction in self.cases:
            label = case_label(case)
            result.attempted += 1
            if case == KNOWN_DEFECT:
                try:
                    self._verdict(system, reduction)
                except Exception as error:  # noqa: BLE001 - the defect being counted
                    result.failed += 1
                    if not self.ops_done:
                        _note(f"known defect {label}: {type(error).__name__}: {error}")
                continue
            verdict, seconds, scale = self.timed(lambda: self._verdict(system, reduction))
            result.wall += seconds
            scaled += seconds * scale
            result.work += 1
            got = [verdict.refuted, verdict.mechanism]
            if got != self.golden["refute"][label]:
                _note(f"refute-mix {label}: expected {self.golden['refute'][label]}, got {got}")
                result.failed += 1
                result.wrong += 1
        # The candidates' costs differ by three orders of magnitude, so a
        # percentile over them jumps between candidates: the item is the pass.
        result.samples.append(result.wall)
        result.work_seconds = result.wall
        result.scale = scaled / result.wall if result.wall else 1.0
        self.ops_done += 1
        gc.collect()
        return result


class Fuzz(Workload):
    """A fixed pool of attacks, each until one shrunk counterexample.

    An attack is a random spec and the seed of its schedules.  The pool
    is drawn once with :data:`POOL_SEED`, like the fixed instances of the
    other workloads: the time to a counterexample differs tenfold between
    specs and between schedule seeds, so attacks drawn from each run's
    seed gave medians that differed by a fifth to a quarter, and even a
    shuffle of the pool by the run's seed moved them by a sixth.  A run
    goes through the pool in order, about once.  One operation is a
    batch of attacks, so that the reference timings around it (see
    :mod:`speed`) stay a small part of a run.
    """

    SCHEDULES = 16
    BATCH = 16
    POOL = 192
    POOL_SEED = 0

    def setup(self) -> None:
        from repro import sim

        self.sim = sim
        pool_rng = random.Random(self.POOL_SEED)
        self.pool = [
            (
                sim.random_spec(pool_rng, families=(sim.FAMILIES[index % len(sim.FAMILIES)],)),
                pool_rng.randrange(2**31),
            )
            for index in range(self.POOL)
        ]

    def op(self) -> Op:
        sim = self.sim
        start = self.ops_done * self.BATCH
        batch = [self.pool[(start + index) % self.POOL] for index in range(self.BATCH)]

        def attack():
            attacked = []
            for spec, fuzz_seed in batch:
                start = perf_counter()
                report = sim.fuzz(
                    specs=[spec],
                    runs=4 if self.smoke else self.SCHEDULES,
                    seed=fuzz_seed,
                    stop_after=1,
                )
                attacked.append((spec, report, perf_counter() - start))
            return attacked

        attacked, wall, scale = self.timed(attack)
        self.ops_done += 1
        result = Op(
            wall=wall,
            attempted=len(batch),
            work=sum(report.runs for _, report, _ in attacked),
            work_seconds=wall,
            scale=scale,
            layer={
                "sim.steps": sum(report.steps for _, report, _ in attacked),
                "sim.found": sum(len(report.found) for _, report, _ in attacked),
            },
        )
        for spec, report, seconds in attacked:
            for counterexample in report.found:
                # With stop_after=1 the campaign returns as soon as the first
                # counterexample is shrunk: its time is the time to it.
                result.samples.append(seconds)
                path = self.tmp / "counterexample.json"
                sim.save_script(path, counterexample.to_document())
                try:
                    sim.verify_replay(sim.build_candidate(spec), sim.load_script(path))
                except Exception as error:  # noqa: BLE001 - any replay failure is wrong
                    _note(f"fuzz-suite {spec.describe()}: replay failed: {error}")
                    result.failed += 1
                    result.wrong += 1
        return result


def make(name: str, **kwargs) -> Workload:
    from loadgen import Serve

    if name == "explore-inram":
        workload = Explore(**kwargs)
    elif name == "explore-w2":
        workload = Explore(workers=2, **kwargs)
    elif name == "scan-sqlite":
        workload = Explore(sqlite=True, **kwargs)
    elif name == "refute-mix":
        workload = Refute(**kwargs)
    elif name == "serve-mix":
        workload = Serve(**kwargs)
    elif name == "fuzz-suite":
        workload = Fuzz(**kwargs)
    else:
        raise ValueError(f"unknown workload {name!r}")
    workload.name = name
    return workload


WORKLOADS = (
    "explore-inram",
    "explore-w2",
    "scan-sqlite",
    "refute-mix",
    "serve-mix",
    "fuzz-suite",
)
