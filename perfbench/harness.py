"""The measuring side of run.py: set-up probes, the closed loop, the traced
phase's per-step bookkeeping, and the metric tables.
"""

from __future__ import annotations

import json
import resource
import select
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict

import kernels
import params as real_params
import spans
from pairid.bench import EXPECTED
from pairid.schemes import SchemeId, default_scheme_params
from workloads import GateFailure, setup_workload

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120


def setup_samples(name: str, seed: str, root) -> list[dict]:
    """Set-up parts from fresh interpreters; setup_s is spawn-to-ready wall time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "setup_probe.py"), name, seed],
            cwd=root,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - t0
            if line:
                proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with status {proc.returncode}")
        parts = json.loads(line)
        parts["setup_s"] = elapsed
        samples.append(parts)
    return samples


class Loop:
    """Closed-loop measurement of one workload."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def measure(self, seconds: float, probe=None):
        """Run whole rounds until `seconds` have passed (and, when traced,
        until the count prefix is done); returns (op latencies, ops per
        second).  An op whose steps did not all pass has no latency."""
        w = self.w
        n_kinds = len(w.order)
        size = w.kinds_per_op
        min_steps = w.prefix_ops * size if probe else 0
        latencies = array("d")
        op_s, op_ok = 0.0, True
        check_s = 0.0
        i = 0
        start = time.perf_counter()
        deadline = start + seconds
        while i % n_kinds or i < min_steps or time.perf_counter() < deadline:
            kind = w.order[i % n_kinds]
            self.attempted += 1
            if probe:
                probe.before(i)
            ok = False
            t0 = time.perf_counter()
            try:
                result = w.run(i, kind)
            except Exception as exc:  # any crash of the program is a failed step
                self.fail(f"step {i} ({kind}): {type(exc).__name__}: {exc}")
            else:
                t1 = time.perf_counter()
                op_s += t1 - t0
                try:
                    if probe:
                        probe.after_run(i, kind)
                    tally = w.check(i, kind, result)
                    if probe:
                        probe.record(i, kind, tally)
                    ok = True
                except GateFailure as exc:
                    self.fail(str(exc))
                check_s += time.perf_counter() - t1
            op_ok = op_ok and ok
            i += 1
            if i % size == 0:
                if op_ok:
                    latencies.append(op_s)
                op_s, op_ok = 0.0, True
        elapsed = time.perf_counter() - start - check_s
        return latencies, len(latencies) / elapsed


class TracedOps:
    """Per-step bookkeeping of the traced phase: the EXPECTED-weighted
    operation-count gate on every step, and count totals over the prefix."""

    def __init__(self, workload, tracer):
        self.w = workload
        self.tracer = tracer
        self.prefix = workload.prefix_ops * workload.kinds_per_op  # in steps
        self.totals = Counter()
        self.calls_by_kind = defaultdict(Counter)
        self.prefix_spans = None
        self.prefix_counts = None

    def before(self, i: int):
        self.w.suite.counter.reset()
        self.tracer.active = True
        self._spans, self._counts = self.tracer.snapshot()
        if i == self.prefix:
            self.prefix_spans, self.prefix_counts = self._spans, self._counts

    def after_run(self, i: int, kind):
        """Stop recording and gate the op's counted operations."""
        self.tracer.active = False
        spans, counts = self.tracer.snapshot()
        c = self.w.suite.counter
        self._measured = Counter(
            pairings=sum(c.pairings.values()),
            g1_exp=sum(c.g1_exp.values()),
            g2_exp=sum(c.g2_exp.values()),
        )
        self._redraws = c.redraws
        expected = Counter()
        for key, n in counts.items():
            done = n - self._counts.get(key, 0)
            if ":" in key and done:
                role, scheme = key.split(":")
                row = EXPECTED[SchemeId(scheme)]
                for field in ("pairings", "g1_exp", "g2_exp"):
                    expected[field] += done * getattr(row, f"{role}_{field}")
        if +self._measured != +expected:
            raise GateFailure(f"step {i} ({kind}): counted {dict(self._measured)}, EXPECTED-weighted {dict(expected)}")
        self._calls = {name: calls - self._spans[name][0] for name, (calls, _) in spans.items()}

    def record(self, i: int, kind, tally: dict):
        """Add a checked step of the prefix to the count totals."""
        if i >= self.prefix:
            return
        self.totals.update(self._measured)
        self.totals["redraws"] += self._redraws
        self.totals.update(tally)
        self.calls_by_kind[kind].update(self._calls)


def end_to_end(latencies, ops_per_s: float, setups: list[dict]) -> dict:
    return {
        "op_ms.p50": (1e3 * statistics.median(latencies), "ms"),
        "op_ms.p90": (1e3 * statistics.quantiles(latencies, n=10)[-1], "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(w, traced: TracedOps, traced_ops: int, final_spans, kernel_ms: dict, hello: int,
              overhead: float, setups: list[dict]) -> dict:
    n = w.prefix_ops
    t = traced.totals
    prefix_counts = traced.prefix_counts
    out = {}
    for name in spans.SPAN_NAMES:
        out[f"{name}.calls_per_op"] = (traced.prefix_spans[name][0] / n, "count")
        self_ms = 1e3 * final_spans[name][1] / traced_ops
        if name == "session.recv_frame":
            # recv_frame's own time is almost all waiting for the peer thread.
            out["session.recv_wait_ms_per_op"] = (self_ms, "ms")
        else:
            out[f"{name}.self_ms_per_op"] = (self_ms, "ms")
    inversions = t["inversions"]
    out.update({
        "algebra.pairings_per_op": (t["pairings"] / n, "count"),
        "algebra.g1_exp_per_op": (t["g1_exp"] / n, "count"),
        "algebra.g2_exp_per_op": (t["g2_exp"] / n, "count"),
        "algebra.redraws_per_op": (t["redraws"] / n, "count"),
        "session.frames_per_op": (prefix_counts.get("session.frames", 0) / n, "count"),
        "session.bytes_per_op": (prefix_counts.get("session.bytes", 0) / n, "B"),
        "session.restarts_per_op": (t["restarts"] / n, "count"),
        "session.hello_fits_real_size": (hello, "count"),
        "lab.queries_per_op": ((t["queries"] + prefix_counts.get("lab.oracle_queries", 0)) / n, "count"),
        "lab.probes_per_inversion": (
            traced.calls_by_kind["inverter"]["lab.run_attack"] / inversions if inversions else 0.0, "count"),
        "lab.extract_success_ratio": (t["inverted"] / inversions if inversions else 0.0, "ratio"),
        "lab.win_ratio": (t["wins"] / t["win_attempts"] if t["win_attempts"] else 0.0, "ratio"),
    })
    for name, value in kernel_ms.items():
        out[name] = (value, "us" if name.endswith("_us") else "ms")
    out["records.load_key_ms"] = (statistics.median(s["load_key_ms"] for s in setups), "ms")
    out["cli.import_ms"] = (statistics.median(s["import_ms"] for s in setups), "ms")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def run(workload: str, seed: str, seconds: float, trace: int, root) -> int:
    """One benchmark run; prints the summary and the result line, returns the exit status."""
    setups = setup_samples(workload, seed, root)
    w, _ = setup_workload(workload, seed, root)
    loop = Loop(w)
    mismatched = w.bench_gate()
    loop.attempted += len(SchemeId)
    for scheme in mismatched:
        loop.fail(f"bench_all: {scheme} does not match EXPECTED")

    if not trace:
        latencies, ops_per_s = loop.measure(seconds)
        metrics = end_to_end(latencies, ops_per_s, setups)
        n = len(latencies)
        beyond = n - int(0.9 * n)
        print(
            f"{workload} seed={seed}: "
            + " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
            + f" failed_ratio={loop.failed / loop.attempted:.6g} ({loop.failed}/{loop.attempted})"
            + f" samples={n} beyond_p90={beyond}"
        )
    else:
        _, untraced_ops_per_s = loop.measure(seconds / 2)
        real = real_params.real_suite()
        layer_kernels = kernels.measure(real)
        hello = spans.hello_fits(SchemeId.HLS, real, default_scheme_params(real))
        w.use_counted_suite()
        tracer = spans.Tracer()
        traced = TracedOps(w, tracer)
        tracer.install()
        try:
            latencies, traced_ops_per_s = loop.measure(seconds / 2, probe=traced)
        finally:
            tracer.uninstall()
        final_spans, final_counts = tracer.snapshot()
        if traced.prefix_spans is None:  # the phase ended right after the prefix
            traced.prefix_spans, traced.prefix_counts = final_spans, final_counts
        metrics = per_layer(w, traced, len(latencies), final_spans, layer_kernels, hello,
                            untraced_ops_per_s / traced_ops_per_s, setups)
        print(f"{workload} seed={seed} traced: failed_ratio={loop.failed / loop.attempted:.6g}"
              f" ({loop.failed}/{loop.attempted}) counts over the first {w.prefix_ops} ops")

    for message in loop.errors:
        print(f"GATE FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if loop.failed else 0

