"""End-to-end and per-layer benchmark of gamedim.

Run from the repository root; gamedim is imported from ``src``::

    python3 bench/run.py --workload solve-corpus --seed 1 --seconds 55 --trace 0

One client asks the workload's queries one at a time (a closed loop), in
passes over the fixed query set, and checks every answer.  Every time is
scaled to a reference host speed by probes run between queries (see
``hostspeed``).  ``--trace 0``
measures the end-to-end metrics with no instrumentation.  ``--trace 1`` runs
one untraced pass, then one pass with spans recorded around every call into
gamedim, and reports the per-layer metrics from the traced pass; it also
re-verifies every LP certificate outside the timed region and checks that
both passes gave the same answers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the details: environment stamp, pass count, the percentile and sample
count behind ``query_ms.tail``, the unscaled pass time and the probe
statistics, set-up samples and the first failures.  A
traced run also writes its spans to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 9
# Fresh interpreters started for each start-up figure of the CLI layer.
START_REPEATS = 5

from hostspeed import HostSpeed  # noqa: E402
from stats import percentile, tail  # noqa: E402
from workloads import BUILDERS, cli_env  # noqa: E402


def load_gamedim():
    """Import gamedim from this checkout's ``src``, or exit without a result."""
    if not (SRC / "gamedim" / "__init__.py").is_file():
        print(f"bench: gamedim sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gamedim
    import gamedim.cli  # noqa: F401  (the tracer patches names in the CLI)

    if Path(gamedim.__file__).resolve().parent != SRC / "gamedim":
        print(f"bench: imported gamedim from {gamedim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return gamedim


def _wall(argv):
    start = time.perf_counter()
    subprocess.run(argv, env=cli_env(), check=True, stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


def import_seconds():
    """``import gamedim`` in a fresh interpreter, timed inside it."""
    code = "import time; t = time.perf_counter(); import gamedim; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=cli_env(), check=True, capture_output=True, text=True,
        timeout=60,
    )
    return float(out.stdout)


def environment(gd):
    import numpy

    def git_commit():
        try:
            top = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.split()
        except (OSError, subprocess.CalledProcessError):
            return None
        return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None

    digest = hashlib.sha256()
    for path in sorted((SRC / "gamedim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rational = type(gd.rational(1))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rational_backend": f"{rational.__module__}.{rational.__qualname__}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


@dataclass
class Pass:
    wall: float = 0.0
    # Seconds per query asked: the call alone, and the call plus its check,
    # and the clock readings at its start and end.
    calls: dict = field(default_factory=dict)
    totals: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    answers: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)


def run_pass(workload, deadline=None, speed=None):
    """Ask and check the queries in order, stopping early once ``deadline``
    has passed; a raise or a rejected answer fails the query.  Every query
    starts from a collected heap, so that the garbage left by the query
    before it, which depends on the seed's order, does not fall on it.
    With a ``speed``, the host is probed between queries."""
    result = Pass()
    clock = time.perf_counter
    start = clock()
    for query in workload.queries:
        if deadline is not None and clock() >= deadline:
            break
        gc.collect()
        if speed is not None:
            speed.tick()
        t0 = clock()
        try:
            answer = query.call()
        except Exception as exc:  # every refusal or crash is a failed query
            result.calls[query.label] = result.totals[query.label] = clock() - t0
            result.spans[query.label] = (t0, t0 + result.totals[query.label])
            result.failures[query.label] = f"{type(exc).__name__}: {exc}"
            continue
        result.calls[query.label] = clock() - t0
        try:
            problem = query.check(answer)
            result.answers[query.label] = query.key(answer)
        except Exception as exc:  # a malformed answer can break its check
            problem = f"check raised {type(exc).__name__}: {exc}"
        del answer
        result.totals[query.label] = clock() - t0
        result.spans[query.label] = (t0, t0 + result.totals[query.label])
        if problem:
            result.failures[query.label] = problem
    for label, check in workload.cross:
        problem = check(result.answers)
        if problem and label not in result.failures:
            result.failures[label] = problem
    result.wall = clock() - start
    return result


def setup(gd, builder, seed, tiny, repeats, speed):
    """Set-up ``repeats`` times, each repeat timed and scaled to the
    reference host speed; returns the median of the scaled import times
    plus the median of the scaled build times."""
    clock = time.perf_counter
    imports, builds, raw = [], [], {"import_s": [], "build_s": []}
    for _ in range(repeats):
        speed.probe(2)
        start = clock()
        seconds = import_seconds()
        end = clock()
        speed.probe(2)
        imports.append((seconds, start, end))
    for _ in range(repeats):
        speed.probe(2)
        start = clock()
        workload = builder(gd, seed, tiny)
        end = clock()
        builds.append((end - start, start, end))
    speed.probe(2)
    scaled = {}
    for key, samples in (("import_s", imports), ("build_s", builds)):
        raw[key] = [s for s, _, _ in samples]
        scaled[key] = [s * speed.scale(a, b) for s, a, b in samples]
    seconds = statistics.median(scaled["import_s"]) + statistics.median(scaled["build_s"])
    return workload, seconds, {"raw": raw, "scaled": scaled}


def measure(workload, seconds, speed):
    """One whole pass, then more queries in the same order until ``seconds``
    have passed since the start; the host is probed throughout."""
    deadline = time.perf_counter() + seconds
    passes = [run_pass(workload, speed=speed)]
    while time.perf_counter() < deadline:
        passes.append(run_pass(workload, deadline, speed))
    speed.tick()
    return passes


def end_to_end(passes, setup_s, speed):
    """Each query's median time over all its samples in the run, so that
    every query of the set weighs the same, with every sample scaled to the
    reference host speed by the probes nearest to it.  ``wall_s`` sums the
    answer-and-check medians over the query set: the time one pass takes.
    The percentiles are taken over the call medians, one per query."""
    calls, totals, raw = {}, {}, {}
    for p in passes:
        for label, (start, end) in p.spans.items():
            scale = speed.scale(start, end)
            calls.setdefault(label, []).append(p.calls[label] * scale)
            totals.setdefault(label, []).append(p.totals[label] * scale)
            raw.setdefault(label, []).append(p.totals[label])
    times_ms = [statistics.median(v) * 1e3 for v in calls.values()]
    rung, value = tail(times_ms)
    metrics = {
        "wall_s": sum(statistics.median(v) for v in totals.values()),
        "query_ms.p50": percentile(times_ms, 50),
        "query_ms.tail": value,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = sum(len(v) for v in calls.values())
    details = {
        "percentile": rung, "queries": len(times_ms), "samples": samples,
        "raw_wall_s": sum(statistics.median(v) for v in raw.values()),
        "probe_ms": {"median": speed.median_s() * 1e3,
                     "count": len(speed.seconds),
                     "quartiles": [q * 1e3 for q in statistics.quantiles(speed.seconds, n=4)]},
    }
    return metrics, details


def per_layer(gd, builder, seed, tiny, workload, baseline, repeats):
    """One traced pass, its certificate re-check and answer comparison."""
    import tracer

    failures = {}
    with tracer.traced(gd) as setup_trace:
        traced_workload = builder(gd, seed, tiny)
    replay_ms = []
    replayed = {}
    with gd.record_certificates() as certificates:
        with tracer.traced(gd) as trace:
            traced = run_pass(traced_workload)
            for query in traced_workload.queries:
                if query.replay is not None:
                    start = time.perf_counter()
                    replayed[query.label] = query.key(query.replay())
                    replay_ms.append((time.perf_counter() - start) * 1e3)

    layers = tracer.layer_metrics(trace.spans, setup_trace.spans)
    for lp, result in certificates:
        try:
            gd.verify_certificate(lp, result)
        except gd.CertificateError as exc:
            failures["certificates"] = f"re-check failed: {exc}"
    if len(certificates) != layers["lp.solves"]:
        failures["certificates"] = f"{len(certificates)} certificates for {layers['lp.solves']} solves"
    for query in workload.queries:
        for answers in (traced.answers, replayed):
            if query.label in answers and query.label in baseline.answers:
                if answers[query.label] != baseline.answers[query.label]:
                    failures.setdefault(query.label, "traced answer differs from untraced")
    failures.update(traced.failures)

    # Every workload pays interpreter start and import once; only CLI
    # pipelines have a replayed run.
    interp = statistics.median(_wall([sys.executable, "-c", "pass"]) for _ in range(repeats))
    start_import = statistics.median(
        _wall([sys.executable, "-c", "import gamedim"]) for _ in range(repeats)
    )
    layers.update({
        "cli.interp_ms": interp * 1e3,
        "cli.import_ms": (start_import - interp) * 1e3,
        "cli.run_ms": statistics.median(replay_ms) if replay_ms else 0.0,
    })
    layers["trace.overhead_frac"] = traced.wall / baseline.wall - 1
    attempted = len(traced.calls) + len(replay_ms)
    spans = {"setup": setup_trace.spans, "pass": trace.spans}
    return layers, attempted, failures, spans


def run_workload(name, seed, seconds, trace, tiny=False, gd=None):
    """Run one workload and return (result line, details) as dicts."""
    gd = gd or load_gamedim()
    builder = BUILDERS[name]
    # Set-up time is an end-to-end metric, so only an untraced run repeats it.
    repeats = 1 if tiny or trace else SETUP_REPEATS
    workload, setup_s, setup_samples = setup(gd, builder, seed, tiny, repeats, HostSpeed())
    details = {
        "workload": name, "seed": seed, "trace": trace, "tiny": tiny,
        "env": environment(gd), "inputs_sha256": workload.digest(),
        "queries_per_pass": len(workload.queries), "setup": setup_samples,
        "client": "one process, closed loop, one query at a time",
    }
    if trace:
        baseline = run_pass(workload)
        layers, traced_attempts, failures, spans = per_layer(
            gd, builder, seed, tiny, workload, baseline, 1 if tiny else START_REPEATS
        )
        attempted = len(baseline.calls) + traced_attempts
        failed = len(baseline.failures) + len(failures)
        failures = {**baseline.failures, **failures}
        layers["failed_frac"] = failed / attempted
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in layers.items()}
        details["passes"] = 2
        if not tiny:
            OUT.mkdir(exist_ok=True)
            with open(OUT / f"{name}-seed{seed}.spans.json", "w", encoding="utf-8") as handle:
                json.dump({"details": details, "spans": spans}, handle)
    else:
        speed = HostSpeed()
        passes = measure(workload, seconds, speed)
        values, details["tail"] = end_to_end(passes, setup_s, speed)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        attempted = sum(len(p.calls) for p in passes)
        failed = sum(len(p.failures) for p in passes)
        failures = {k: v for p in passes for k, v in p.failures.items()}
        details["passes"] = len(passes)
        details["children_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
    details["failures"] = dict(list(failures.items())[:10])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, details = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(details))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
