"""Closed loop, one client: each request runs ``pnsheaf.cli.main`` in a child
forked after ``import pnsheaf.cli``, so every request starts with the cold
caches a fresh CLI invocation has.  The parent never calls pnsheaf code; it
checks before every fork that no cached function holds an entry.
"""

from __future__ import annotations

import io
import os
import pickle
import select
import shutil
import signal
import statistics
import sys
import time
import traceback

from .checks import Response, check_round
from .inputs import Round
from .tracer import LayerStats, Tracer, pnsheaf_modules

REQUEST_TIMEOUT_S = 120.0


class WarmCacheError(RuntimeError):
    """The parent holds a cache entry, so a child would not start cold."""


def cached_functions(modules) -> list[tuple[str, object]]:
    """Every function of pnsheaf, private ones too, that has ``cache_info``."""
    found = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)):
                found[id(obj)] = (f"{obj.__module__}.{name}", obj)
    return sorted(found.values(), key=lambda item: item[0])


def warm_caches(cached) -> list[str]:
    return [name for name, fn in cached if fn.cache_info().currsize]


class Client:
    """Runs requests in forked children and collects their responses."""

    def __init__(self, workdir: str):
        import pnsheaf.cli

        self.cli = pnsheaf.cli
        self.modules = pnsheaf_modules()
        self.cached = cached_functions(self.modules)
        self.tracer = Tracer(self.modules)
        self.workdir = workdir

    def write_forms(self, rnd: Round) -> dict[str, str]:
        os.makedirs(self.workdir, exist_ok=True)
        paths = {}
        for name, text in rnd.forms.items():
            path = os.path.join(self.workdir, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            paths[name] = path
        return paths

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def request(self, argv: list[str], traced: bool = False) -> tuple[Response, bytes | None]:
        warm = warm_caches(self.cached)
        if warm:
            raise WarmCacheError(f"caches hold entries before a fork: {', '.join(warm)}")
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: never returns
            os.close(read_fd)
            self._child(argv, traced, write_fd)
        os.close(write_fd)
        data = self._drain(read_fd, pid)
        _, status, usage = os.wait4(pid, 0)
        if not data or not os.WIFEXITED(status):
            return Response(None, "", f"child ended without a result (status {status})", 0.0,
                            usage.ru_maxrss), None
        exit_code, program_s, out, err, blob = pickle.loads(data)
        return Response(exit_code, out, err, program_s, usage.ru_maxrss), blob

    def _child(self, argv: list[str], traced: bool, write_fd: int) -> None:
        status = 1
        try:
            out, err = io.StringIO(), io.StringIO()
            sys.stdout, sys.stderr = out, err
            if traced:
                self.tracer.begin()
            start = time.perf_counter()
            try:
                exit_code = self.cli.main(argv)
            except Exception:  # a traceback is a failed request, not a crash
                traceback.print_exc(file=err)
                exit_code = None
            program_s = time.perf_counter() - start
            blob = self.tracer.rec.dump() if traced else None
            payload = pickle.dumps((exit_code, program_s, out.getvalue(), err.getvalue(), blob))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)

    @staticmethod
    def _drain(read_fd: int, pid: int) -> bytes:
        chunks = []
        deadline = time.monotonic() + REQUEST_TIMEOUT_S
        with os.fdopen(read_fd, "rb", buffering=0) as pipe:
            while True:
                left = deadline - time.monotonic()
                ready, _, _ = select.select([pipe], [], [], max(left, 0))
                if not ready:
                    os.kill(pid, signal.SIGKILL)
                    return b""
                chunk = pipe.read(1 << 20)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def run_round(self, rnd: Round, paths: dict[str, str], traced: bool = False,
                  stats: LayerStats | None = None, idle=None) -> list[Response]:
        """Run every request of a round; ``idle`` is called between requests."""
        if traced:
            self.tracer.install()
        try:
            responses = []
            for req in rnd.requests:
                argv = [paths[req.form] if a == "{form}" else a for a in req.argv]
                resp, blob = self.request(argv, traced)
                if stats is not None and blob is not None:
                    stats.add(blob)
                responses.append(resp)
                if idle is not None:
                    idle()
            return responses
        finally:
            if traced:
                self.tracer.uninstall()


class Tally:
    """Requests attempted and failed, program times and peak RSS of a run."""

    def __init__(self):
        self.rounds: list[list[float]] = []  # program seconds, one list per round
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, rnd: Round, responses: list[Response], goldens: dict | None) -> None:
        self.rounds.append([resp.program_s for resp in responses])
        for req, resp, verdict in zip(rnd.requests, responses, check_round(rnd, responses, goldens)):
            self.attempted += 1
            self.peak_rss_kb = max(self.peak_rss_kb, resp.peak_rss_kb)
            if verdict is not None:
                self.failures.append(f"{' '.join(req.argv)}: {verdict}")

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Each timing is taken per round, and the median over rounds reported.

        CPU speed on a shared host drifts in phases of several seconds; a
        median over rounds drops the rounds a slow phase hit.
        """
        def per_round(stat) -> float:
            return statistics.median(stat(times) for times in self.rounds)

        return {
            "req_per_s": (per_round(lambda t: len(t) / sum(t)), "1/s"),
            "latency_p50_ms": (per_round(statistics.median) * 1000.0, "ms"),
            "latency_p90_ms": (per_round(_p90) * 1000.0, "ms"),
            "peak_rss_mb": (self.peak_rss_kb / 1024.0, "MB"),
        }


def _p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def measure(client: Client, rnd: Round, seconds: float, goldens: dict | None,
            trace: bool, probe=None, probes: int = 0):
    """Repeat whole rounds while the next one is expected to end in time.

    A run holds whole rounds only, so every run has the same mix of
    requests whatever its length.  With ``trace`` each round runs untraced
    and then traced; the traced passes feed the per-layer statistics and
    the ratio of their program times gives the tracing overhead.  ``probe``
    is called about ``probes`` times, spread between requests over the run,
    and then as often as needed to reach ``probes`` calls.

    Returns the tally, the layer statistics (or None), the overhead and the
    values the probe returned.
    """
    paths = client.write_forms(rnd)
    tally = Tally()
    stats = LayerStats(client.tracer.span_names) if trace else None
    plain_s = traced_s = 0.0
    probed: list[float] = []
    began = last_probe = time.perf_counter()

    def idle():
        nonlocal last_probe
        if probe is not None and time.perf_counter() - last_probe >= seconds / probes:
            probed.append(probe())
            last_probe = time.perf_counter()

    rounds = 0
    while True:
        responses = client.run_round(rnd, paths, idle=idle)
        tally.add(rnd, responses, goldens)
        plain_s += sum(r.program_s for r in responses)
        if trace:
            responses = client.run_round(rnd, paths, traced=True, stats=stats)
            tally.add(rnd, responses, goldens)
            traced_s += sum(r.program_s for r in responses)
        rounds += 1
        elapsed = time.perf_counter() - began
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    while probe is not None and len(probed) < probes:
        probed.append(probe())
    overhead = traced_s / plain_s - 1.0 if trace else 0.0
    return tally, stats, overhead, probed
