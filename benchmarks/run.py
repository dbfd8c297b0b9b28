"""rtmtools benchmark: closed-loop CLI workloads, run in-process.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload census --seed 0 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all     # every workload, one process each

One client in one thread calls `rtmtools.cli.main(argv)` on documents the
workload seed generates, one command after the other, and checks every
answer against the goldens recorded in `benchmarks/goldens.json`.  The last
line of standard output is one JSON object: end-to-end metrics with
`--trace 0`, per-layer metrics from a traced run with `--trace 1`.
See `benchmarks/README.md` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in this process or its children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from answers import extract, failed, matches  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, build  # noqa: E402

WORKLOADS = ("census", "ggm-stars", "wide-deep")
SETUP_REPEATS = 5
KINDS = ("validate", "network", "hom", "ggms", "indec", "decompose")
# tail_ms averages the command runs at or above this percentile.  It is fixed
# per workload so that runs compare, and leaves at least ten runs in the tail
# of a 35 s run at the commit that introduced the benchmark: census 7-8
# passes of 1542 commands, ggm-stars 3-4 passes of 12, wide-deep 3 of 40.
TAIL = {"census": 0.99, "ggm-stars": 0.7, "wide-deep": 0.85}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def _above(values: list, q: float) -> list:
    """The values at or above the nearest-rank q-th percentile, ascending."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1):]


def percentile(values: list, q: float) -> float:
    return _above(values, q)[0]


def tail_mean(values: list, q: float) -> float:
    """Mean of the values at or above the q-th percentile.

    Unlike one order statistic, it does not jump between commands when
    noise reorders a few latencies near the cut."""
    tail = _above(values, q)
    return sum(tail) / len(tail)


def adaptive_tail(values: list):
    """Highest of p75..p99.9 with at least ten samples beyond it, or None."""
    best = None
    for q in (0.75, 0.9, 0.95, 0.99, 0.999):
        if len(values) * (1 - q) >= 10:
            best = q
    return best


def fmt(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.6g}"


def time_import() -> float:
    """Seconds to import rtmtools.cli in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import rtmtools.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise BenchError(f"importing rtmtools failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Runner:
    """Runs and checks the commands of one workload variant."""

    def __init__(self, workload, workdir: Path, goldens=None):
        from rtmtools.cli import main

        self.main = main
        self.workload = workload
        self.goldens = goldens
        self.paths = {}
        for doc_name, doc in workload.docs.items():
            path = workdir / f"{doc_name}.rtm"
            path.write_text(doc.text(), encoding="utf-8")
            self.paths[doc_name] = str(path)

    def run(self, command, tracer=None) -> tuple[float, dict]:
        """Latency in seconds and the answer of one command."""
        argv = command.argv(self.paths)
        out = io.StringIO()
        error, code = None, None
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                if tracer is None:
                    code = self.main(argv)
                else:
                    code = tracer.call("cli.main", self.main, (argv,))
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # any escaping exception is a failed command
                error = type(exc).__name__
            latency = perf_counter() - start
        if error is not None:
            return latency, {"error": error}
        inverses = [self.workload.inverse[d] for d in command.docs]
        return latency, extract(command.kind, code, out.getvalue(), inverses)

    def correct(self, command, answer: dict) -> bool:
        n_vertices = len(self.workload.docs[command.docs[0]].nodes)
        return matches(command.kind, answer, self.goldens[command.cid], n_vertices)


def set_up(name: str, seed: int, workdir: Path) -> Runner:
    """Generate the workload, check it against the recorded fingerprints,
    write its documents and load its goldens."""
    recorded = json.loads(GOLDENS.read_text(encoding="utf-8"))
    workload = build(name, seed)
    if workload.canonical_digest != recorded["canonical"][name]:
        raise BenchError(f"{name}: generated documents differ from the ones the goldens were recorded on")
    if seed == DEFAULT_SEED and workload.digest() != recorded["default_seed"][name]:
        raise BenchError(f"{name}: default-seed documents or commands differ from the recorded fingerprint")
    return Runner(workload, workdir, recorded["answers"][name])


class Pass:
    """Latency, success and oracle availability of each command of one pass."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.latency: list = []
        self.ok: list = []
        self.unavailable: list = []


def measure(runner: Runner, seconds: float, tracer):
    """Closed loop over whole passes of the command list until the time is used.

    A new pass starts only if a pass of median length still fits, so every
    pass is complete and the mix of commands is the same in every run.  With
    a tracer, passes alternate untraced and traced, starting untraced.
    """
    commands = runner.workload.commands
    passes, walls, wrong = [], [], []
    rss_first_pass = None
    start = perf_counter()
    while True:
        p = Pass(tracer is not None and len(passes) % 2 == 1)
        if p.traced:
            tracer.install()
        began = perf_counter()
        try:
            for i, command in enumerate(commands):
                if p.traced:
                    tracer.cmd = len(passes) * len(commands) + i
                latency, answer = runner.run(command, tracer if p.traced else None)
                good = runner.correct(command, answer)
                if not good:
                    wrong.append((command.cid, answer))
                p.latency.append(latency)
                p.ok.append(good and not failed(answer))
                p.unavailable.append(answer.get("exit") == 3)
        finally:
            if p.traced:
                tracer.uninstall()
        walls.append(perf_counter() - began)
        passes.append(p)
        if rss_first_pass is None:
            rss_first_pass = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = perf_counter() - start
        enough = len(passes) >= (1 if tracer is None else 2)
        if enough and elapsed + statistics.median(walls) > seconds:
            break
    return passes, walls, wrong, rss_first_pass, elapsed


def typical_pass(passes: list) -> tuple[list, list]:
    """Each command's median latency over the passes, and whether it always succeeded."""
    n = len(passes[0].latency)
    latency = [statistics.median(p.latency[i] for p in passes) for i in range(n)]
    ok = [all(p.ok[i] for p in passes) for i in range(n)]
    return latency, ok


def throughput(passes: list) -> float:
    """Commands completed successfully per second of a typical pass."""
    latency, ok = typical_pass(passes)
    return sum(ok) / sum(latency)


def end_to_end(name: str, commands: list, passes: list, setup_s: float, rss_mb: float, elapsed: float) -> dict:
    """The declared end-to-end metrics, after report lines for each command kind."""
    for kind in KINDS:
        samples = [p.latency[i] if p.ok[i] else math.inf for p in passes
                   for i, c in enumerate(commands) if c.kind == kind]
        if not samples:
            continue
        line = f"# {kind}_p50_ms {fmt(percentile(samples, 0.5) * 1e3)} ms (n={len(samples)})"
        q = adaptive_tail(samples)
        if q is not None:
            line += f"; {kind}_tail_ms p{q * 100:g} {fmt(percentile(samples, q) * 1e3)} ms"
        print(line)
    failures = sum(not ok for p in passes for ok in p.ok)
    attempted = len(passes) * len(commands)
    indec = [p.unavailable[i] for p in passes for i, c in enumerate(commands) if c.kind == "indec"]
    share = f"{sum(indec) / len(indec):.4g} ({sum(indec)}/{len(indec)})" if indec else "n/a (no indec)"
    print(f"# fail_share {failures / attempted:.4g} ({failures}/{attempted}); unavailable_share {share}")

    latency, ok = typical_pass(passes)
    typical = [lat if good else math.inf for lat, good in zip(latency, ok)]
    pooled = [lat if good else math.inf for p in passes for lat, good in zip(p.latency, p.ok)]
    gmean = math.exp(statistics.fmean(math.log(x) for x in typical))
    tail = tail_mean(pooled, TAIL[name])
    # A failed command never answered within the measured phase.
    gmean, tail = (elapsed if math.isinf(x) else x for x in (gmean, tail))
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "cmds_per_s": {"value": throughput(passes), "unit": "1/s"},
        "gmean_ms": {"value": gmean * 1e3, "unit": "ms"},
        "tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(name: str, seed: int, env: dict, tracer: Tracer, commands: list, passes: list) -> dict:
    """The declared per-layer metrics; writes the spans of the traced passes."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    metrics = per_layer_metrics(tracer, len(traced), len(commands), throughput(traced), throughput(untraced))
    path = OUT / f"spans-{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "env": env, "traced_passes": len(traced),
                   "fields": ["name", "start", "end", "parent", "command"], "spans": tracer.spans}, fh)
    rates = [metrics[f"trace.cmds_per_s_{k}"]["value"] for k in ("untraced", "traced")]
    print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}; tracing overhead "
          f"{rates[0] / rates[1] - 1:+.1%} (untraced {fmt(rates[0])} vs traced {fmt(rates[1])} commands/s)")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    imports = [time_import() for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, str(SRC))
    import rtmtools

    if Path(rtmtools.__file__).resolve().parent != (SRC / "rtmtools").resolve():
        raise BenchError(f"imported rtmtools from {rtmtools.__file__}, not from {SRC}")
    env = environment()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tracer = Tracer() if trace else None
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            runner = set_up(name, seed, workdir)
            builds.append(perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(builds)
        passes, walls, wrong, rss_mb, elapsed = measure(runner, seconds, tracer)
        probes = [(c, *runner.run(c)) for c in runner.workload.probes]  # once, untimed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    commands = runner.workload.commands
    print(f"# workload {name} seed {seed} trace {int(trace)}; {json.dumps(env)}")
    print(f"# {len(passes)} passes of {len(commands)} commands in {elapsed:.2f} s: "
          + " ".join(f"{w:.2f}" for w in walls))
    print(f"# setup_s {setup_s:.4f} s (import median {statistics.median(imports):.4f} s, "
          f"generation and goldens median {statistics.median(builds):.4f} s, {SETUP_REPEATS} each)")
    for cid, answer in wrong[:10]:
        print(f"# WRONG {cid}: {answer} (golden {runner.goldens[cid]})")
    probes_ok = True
    for command, _, answer in probes:
        ok = runner.correct(command, answer)
        probes_ok = probes_ok and ok
        print(f"# known-defect probe {command.cid}: {answer} ({'matches' if ok else 'DIFFERS FROM'} golden "
              f"{runner.goldens[command.cid]})")
    if trace:
        metrics = per_layer(name, seed, env, tracer, commands, passes)
    else:
        metrics = end_to_end(name, commands, passes, setup_s, rss_mb, elapsed)
    result = {
        "correct": not wrong and probes_ok,
        "attempted": len(passes) * len(commands),
        "failed": sum(not ok for p in passes for ok in p.ok),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    summary = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise BenchError(f"{name} exited with code {done.returncode}")
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "rtmtools" / "__init__.py").is_file():
            raise BenchError(f"no rtmtools sources under {SRC}")
        if not GOLDENS.is_file():
            raise BenchError(f"missing {GOLDENS}")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
