"""Benchmark for vps: one workload per invocation, end-to-end or traced per layer.

Usage, from the root of a checkout (see perfbench/README.md)::

    python3 perfbench/run.py --workload toy-eval --seed 1 --seconds 10 --trace 0

vps is imported from the checkout's ``src/``; the run refuses to start if it
would resolve anywhere else. ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` measures the same work untraced and then
traced, and reports the per-layer metrics. Every metric is printed as
``name value unit``; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every correctness check passed and no operation failed.
Scratch files, the run record and the span dump go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from percentiles import percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7


class ProvenanceError(RuntimeError):
    pass


def import_vps():
    """Import vps from ``src/`` of this checkout, or refuse."""
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("vps")
    if spec is None or spec.origin is None:
        raise ProvenanceError(f"vps is not importable from {SRC}")
    if Path(spec.origin).resolve().parent != SRC / "vps":
        raise ProvenanceError(f"vps resolves to {spec.origin}, not to {SRC / 'vps'}")
    import vps

    return vps


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workload names and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in BENCHMARK.json order."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def git_commit() -> str | None:
    """HEAD of the checkout read from ``.git`` directly; None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, workload) -> dict:
    import numpy
    import requests

    return {
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests": requests.__version__,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.sizes(),
    }


@contextlib.contextmanager
def start_fixture(vocab: int | None, seed: int):
    """Start the score-server fixture in a subprocess; yields its URL (or None)."""
    if vocab is None:
        yield None
        return
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("fixture_server.py")),
         "--vocab", str(vocab), "--seed", str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        if not line.startswith("READY "):
            raise RuntimeError(f"fixture server did not start: {line!r}")
        yield f"http://127.0.0.1:{int(line.split()[1])}"
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def probe_setup(args) -> int:
    """Child-process mode: time a fresh client's set-up and print it as JSON."""
    start = time.perf_counter()
    import_vps()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.work_dir), args.endpoint)
    workload.setup()
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def measure_setup(args, endpoint: str | None, work_dir: Path) -> float:
    """Median set-up time over fresh client processes (imports included)."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--work-dir", str(work_dir / "probe")]
        if endpoint:
            cmd += ["--endpoint", endpoint]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


@dataclass
class Loop:
    """The ops of one timed loop with their wall times, and the reference times taken after each op."""

    results: list = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    ref_ms: list[list[float]] = field(default_factory=list)  # ref_ms[i]: the references run right after op i
    server: dict | None = None

    @property
    def work(self) -> float:
        return sum(r.work for r in self.results)

    def raw_rate(self) -> float:
        """Work per second over the timed ops."""
        return self.work / sum(self.op_s)

    def normalised_rate(self) -> float | None:
        """Median over the ops of work per second, each scaled to a machine where the reference takes REFERENCE_MS.

        Each op is scaled by the median of the references run just before and
        just after it, so speed drift within the loop cancels op by op; the
        median keeps a short slow spell from moving the figure.
        """
        from reference import REFERENCE_MS

        rates = []
        for i, (result, seconds) in enumerate(zip(self.results, self.op_s)):
            if result.work:
                around = (self.ref_ms[i - 1] if i else []) + self.ref_ms[i]
                rates.append(result.work / seconds * statistics.median(around) / REFERENCE_MS)
        return percentile(rates, 50) if rates else None


def run_loop(workload, seconds: float, stats) -> Loop:
    """Run ops until ``seconds`` have passed, timing the reference computation after each.

    After each op the reference runs until it has taken REFERENCE_SHARE of the
    op time so far, so every op has a reference measured right after it.
    ``stats`` reads the fixture server's counters (None when the workload has no server).
    """
    from fixture_server import stats_delta
    from reference import REFERENCE_SHARE, reference_ms

    before = stats.read() if stats else None
    loop = Loop()
    deadline = time.perf_counter() + seconds
    ref_s = 0.0
    while time.perf_counter() < deadline or not loop.results:
        start = time.perf_counter()
        loop.results.append(workload.op())
        loop.op_s.append(time.perf_counter() - start)
        loop.ref_ms.append([])
        while True:
            loop.ref_ms[-1].append(reference_ms())
            ref_s += loop.ref_ms[-1][-1] / 1e3
            if ref_s >= REFERENCE_SHARE * sum(loop.op_s):
                break
    if stats:
        loop.server = stats_delta(before, stats.read())
    return loop


def raw_figures(loop: Loop) -> dict:
    """Unnormalised throughput and per-unit latency of a loop, reported beside the metrics."""
    latencies = [r.latency_ms for r in loop.results if r.latency_ms is not None]
    return {
        "raw_ops_per_s": loop.raw_rate(),
        "raw_latency_ms_p50": percentile(latencies, 50),
        "raw_latency_ms_p90": percentile(latencies, 90),
        "latency_samples": len(latencies),
        "reference_ms_p50": percentile([t for refs in loop.ref_ms for t in refs], 50),
        "reference_samples": sum(map(len, loop.ref_ms)),
        "ops_timed": len(loop.results),
    }


def emit(metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")


def run(args) -> int:
    import_vps()
    import workloads
    from fixture_server import StatsClient
    from tracer import Tracer, instrument, layer_metrics

    workload_cls = workloads.WORKLOADS[args.workload]
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    loops: list[Loop] = []
    try:
        with contextlib.ExitStack() as stack:
            endpoint = stack.enter_context(start_fixture(workload_cls.server_vocab, args.seed))
            stats = stack.enter_context(StatsClient(endpoint)) if endpoint else None
            workload = workload_cls(args.seed, work_dir, endpoint)
            setup_s = None if args.trace else measure_setup(args, endpoint, work_dir)
            workload.setup()
            warm = Loop(results=[workload.op()])  # first-use costs stay out of the timed loops
            plain = run_loop(workload, args.seconds / 2 if args.trace else args.seconds, stats)
            loops = [warm, plain]
            info = {**workload.info(plain.results, plain.server), **raw_figures(plain)}
            if args.trace:
                tracer = Tracer()
                workload.tracer = tracer
                with instrument(tracer):
                    traced = run_loop(workload, args.seconds / 2, stats)
                workload.tracer = None
                loops.append(traced)
                units = metric_units("per_layer")
                untraced_rate, traced_rate = plain.normalised_rate(), traced.normalised_rate()
                metrics = layer_metrics(
                    tracer,
                    items=sum(r.attempted for r in traced.results),
                    overhead_ratio=untraced_rate / traced_rate if untraced_rate and traced_rate else 0.0,
                    server=traced.server,
                    resampled_ratio=workload.info(traced.results, traced.server).get("resampled_ratio", 0.0),
                )
                tracer.write_jsonl(OUT / f"spans-{args.workload}.jsonl")
            else:
                units = metric_units("end_to_end")
                metrics = {
                    "setup_s": setup_s,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "ops_per_s": plain.normalised_rate(),
                }
            problems = [p for loop in loops[1:] for p in workload.loop_checks(loop.results, loop.server)]
            record = {"provenance": provenance(args, workload), "work_unit": workload.work_unit}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    results = [r for loop in loops for r in loop.results]
    problems += [p for r in results for p in r.problems]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = not problems and failed == 0
    info["error_rate"] = failed / attempted
    record.update(metrics=metrics, info=info, problems=problems, attempted=attempted, failed=failed,
                  loops=[{"work": [r.work for r in loop.results], "op_s": loop.op_s, "reference_ms": loop.ref_ms}
                         for loop in loops[1:]])
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    emit(metrics, units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--endpoint", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return probe_setup(args) if args.setup_probe else run(args)
    except ProvenanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
