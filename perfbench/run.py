"""Benchmark of the deformalg command line, driven in-process.

Run from the repository root:

    python3 perfbench/run.py --workload verify-scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process and one caller in a closed loop: each `deformalg.cli.main(argv)`
call starts when the previous one has returned.  A run repeats whole rounds of
its workload's fixed call list (see workloads.py), shuffled by the seed, until
--seconds have elapsed.  Every call's output is checked, and the four golden
commands of tests/regen_goldens.py are byte-compared with tests/golden/.

Latencies are gated relative to a reference kernel timed between calls,
because this class of shared machine switches between a fast and a slow state
every few seconds (the same call takes 4.6 ms or 7.8 ms), which spreads raw
per-run medians by 20-35 % between runs.  The reference (see reference_seconds)
shares no code with deformalg, mixes interpreted Python with dense complex
products the way the workloads do, and slows down with them: each call's
latency is divided by the mean of the reference times just before and just
after it.  Raw seconds are still reported on the '#' lines.

With --trace 0 the last stdout line holds the gated end-to-end metrics:
  setup_s       median over fresh processes of `import deformalg` to parser ready,
                sampled at round boundaries spread over the run, so that one
                slow or fast spell of the machine does not set every sample
  small_op_rel  latency of the workload's small calls (verify D=32, builtin
                symbolic checks, 61-step q-scans) in reference-kernel units:
                per call label the median over rounds, then the mean over labels
  large_op_rel  the same for its large calls (verify D=128, composite symbolic
                identities, 125-level scans at D=128)
  pass_ratio    calls that exited 0 / calls attempted
  peak_rss_mb   peak resident memory of the workload process
With --trace 1 rounds alternate traced and untraced, and the last line holds
per-function self time and calls per traced round, derived shares, computed
dense-kernel counts and the tracing overhead.  Lines before the last one, all
starting with '#', report the environment, every call kind's latency in
seconds, failed_ratio and each failed check with its residual; a JSON copy of
that report, with the span rows of a traced run, goes to .bench_build/perfbench/.
"""

from __future__ import annotations

BLAS_THREADS = 1  # pinned before numpy loads: one thread gives the steadiest timings

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("DEFORMALG_SEED", None)  # it would override every verify --seed

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import workloads  # noqa: E402
from tracing import DENSE_PRODUCTS, Tracer  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_SCRIPT = ROOT / "tests" / "regen_goldens.py"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import deformalg.cli
deformalg.cli.build_parser()
print(time.perf_counter() - t0)
"""


# ---------------------------------------------------------------------------
# environment


def _openblas_runtime():
    """(configuration, threads) reported by the OpenBLAS that numpy loaded."""
    import ctypes
    import numpy

    libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                return get_config().decode().strip(), int(get_threads())
    return "unknown", None


def environment():
    import numpy

    config, threads = _openblas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": config,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# measurement


def setup_time():
    """Fresh-process time from before `import deformalg` to the parser being built."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip())


def call_cli(main, argv, tracer=None):
    """One CLI call with stdout and stderr captured: (seconds, exit code or exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv) if tracer is None else tracer.root(main, argv)
        except Exception:  # a crash is a failed call; the run goes on and reports it
            rc = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


def golden_mismatches(main):
    """Run the golden commands in-process and byte-compare with tests/golden/."""
    spec = importlib.util.spec_from_file_location("regen_goldens", GOLDEN_SCRIPT)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    bad = []
    for name, argv in regen.COMMANDS.items():
        _, rc, out, err = call_cli(main, list(argv))
        if rc != 0:
            bad.append(f"{name}: exit {rc!r} {err.strip()}")
        elif out.encode("utf-8") != (regen.GOLDEN / name).read_bytes():
            bad.append(f"{name}: output differs from the golden file")
    return bad


REF_DIM = 128
REF_PRODUCTS = 3
REF_TREE_DEPTH = 7
REF_PASSES = 6


def _tree(depth):
    return (0.5 * depth, [_tree(depth - 1), _tree(depth - 1)]) if depth else (0.5, [])


def _tree_sum(node):
    value, children = node
    return value + sum(_tree_sum(child) for child in children)


def reference_seconds():
    """Time of a fixed piece of work that shares no code with deformalg:
    small-object trees, dict updates and float math, like the normal-ordering
    rewriter, then a chain of dense complex products, like the matrix layer."""
    import numpy as np

    n = np.arange(REF_DIM * REF_DIM, dtype=float).reshape(REF_DIM, REF_DIM)
    base = m = np.cos(n) + 1j * np.sin(n)
    start = time.perf_counter()
    for _ in range(REF_PASSES):
        _tree_sum(_tree(REF_TREE_DEPTH))
        acc = {}
        for j in range(300):
            acc[j % 17] = acc.get(j % 17, 0.0) + math.exp(-j * 1e-3)
    for _ in range(REF_PRODUCTS):
        m = base @ m
    return time.perf_counter() - start


class Ledger:
    """Outcomes of the workload's calls: counts, latencies and failure details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.malformed = []
        self.failed_checks = {}  # call label -> {check name: residual}
        self.seconds = defaultdict(list)  # call label -> untraced latencies
        self.relative = defaultdict(list)  # call label -> latency / reference time
        self.kind_of = {}

    def record(self, op, rc, out, err):
        self.attempted += 1
        if not isinstance(rc, int):
            problem, outcome = f"raised: {rc.strip().splitlines()[-1]}", None
        elif rc not in (0, 1):
            problem, outcome = f"exit {rc}: {err.strip()}", None
        else:
            try:
                outcome = op.check(out, rc)
                problem = outcome.malformed
            except (ValueError, KeyError, TypeError) as exc:
                problem, outcome = f"output does not parse: {exc!r}", None
        if problem is not None:
            self.malformed.append(f"{op.label}: {problem}")
        if outcome is None or not outcome.passed or problem is not None:
            self.failed += 1
            if outcome is not None and outcome.failed_checks:
                self.failed_checks[op.label] = outcome.failed_checks

    def kind_value(self, kind, per_label):
        """Mean over the kind's call labels of the label's median."""
        labels = [label for label, k in self.kind_of.items() if k == kind]
        return statistics.fmean(statistics.median(per_label[label]) for label in labels)


def run_round(main, ops, ledger, tracer=None):
    """Run one shuffled round; returns the summed latency of its calls.

    The reference kernel runs before the first call and after every call, so
    traced and untraced rounds see the same cache state; only untraced rounds
    record latencies, traced ones feed the tracer."""
    total = 0.0
    ref_before = reference_seconds()
    for op in ops:
        elapsed, rc, out, err = call_cli(main, op.argv, tracer)
        ledger.record(op, rc, out, err)
        total += elapsed
        ref_after = reference_seconds()
        if tracer is None:
            ledger.seconds[op.label].append(elapsed)
            ledger.relative[op.label].append(2.0 * elapsed / (ref_before + ref_after))
            ledger.kind_of[op.label] = op.kind
        ref_before = ref_after
    return total


def loglog_slope(points):
    """Least-squares slope of log(t) against log(D)."""
    xs = [math.log(d) for d, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def verify_slope(ledger):
    """Log-log slope of the verify latency in seconds against D."""
    return loglog_slope([(d, ledger.kind_value(f"verify_D{d}", ledger.seconds)) for d in (32, 128, 256)])


# ---------------------------------------------------------------------------
# one workload


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name, seed, seconds, trace):
    load_start = os.getloadavg()
    setup = []
    sys.path.insert(0, str(SRC))
    from deformalg import cli, fockrep, gup, spectral, symorder

    env = environment()
    goldens_bad = golden_mismatches(cli.main)  # also warms every command path
    ops = workloads.build(name, seed)
    rng = random.Random(seed)
    ledger = Ledger()
    tracer = None
    traced_rounds, plain_rounds = [], []
    if trace:
        modules = {"cli": cli, "fockrep": fockrep, "gup": gup, "spectral": spectral, "symorder": symorder}
        tracer = Tracer(modules)

    t0 = time.perf_counter()
    rounds = 0
    # whole rounds only, so every run attempts the same mix; a traced run needs
    # an untraced round as well, for the overhead and the latencies
    while rounds < (2 if trace else 1) or time.perf_counter() - t0 < seconds:
        while (not trace and len(setup) < SETUP_SAMPLES
               and time.perf_counter() - t0 >= len(setup) * seconds / SETUP_SAMPLES):
            setup.append(setup_time())
        order = ops[:]
        rng.shuffle(order)
        gc.collect()
        traced = trace and rounds % 2 == 0
        if traced:
            tracer.install()
            try:
                traced_rounds.append(run_round(cli.main, order, ledger, tracer))
                # nf_to_matrix has no CLI caller: realise the round's normal forms at the CLI's D.
                for nf in tracer.normal_forms:
                    symorder.nf_to_matrix(nf, fockrep.DEFAULT_DIM)
                tracer.normal_forms.clear()
            finally:
                tracer.uninstall()
        else:
            plain_rounds.append(run_round(cli.main, order, ledger))
        rounds += 1
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_time())
    load_end = os.getloadavg()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = not goldens_bad and not ledger.malformed
    kinds = {}
    for kind in dict.fromkeys(op.kind for op in ops):
        if kind in ledger.kind_of.values():
            kinds[kind] = {
                "seconds": ledger.kind_value(kind, ledger.seconds),
                "relative": ledger.kind_value(kind, ledger.relative),
            }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "rounds": rounds,
        "calls_per_round": len(ops),
        "kinds": kinds,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_ratio": ledger.failed / ledger.attempted,
        "failed_checks": ledger.failed_checks,
        "malformed": ledger.malformed,
        "golden_mismatches": goldens_bad,
        "setup_samples_s": setup,
    }
    slope = verify_slope(ledger) if name == "verify-scale" else None
    if trace:
        metrics = layer_metrics(tracer, traced_rounds, plain_rounds, slope)
    else:
        tiers = workloads.TIERS[name]
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "small_op_rel": metric(ledger.kind_value(tiers["small_op_rel"], ledger.relative), "ref"),
            "large_op_rel": metric(ledger.kind_value(tiers["large_op_rel"], ledger.relative), "ref"),
            "pass_ratio": metric((ledger.attempted - ledger.failed) / ledger.attempted, "1"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    report["verify_slope_D"] = slope
    report["peak_rss_mb"] = peak_rss_mb
    report["metrics"] = metrics
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    dump = dict(report, spans=tracer.dump(t0) if tracer else None)
    (OUT_DIR / f"{name}.trace{int(trace)}.json").write_text(json.dumps(dump) + "\n")
    print_report(report)
    return {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}


def layer_metrics(tracer, traced_rounds, plain_rounds, slope):
    """Per traced round: self time and calls per function, shares, counts, overhead."""
    n = len(traced_rounds)
    out = {}
    for full in tracer.names:
        out[f"{full}.self_s"] = metric(tracer.self_s[full] / n, "s")
        out[f"{full}.calls"] = metric(tracer.calls[full] / n, "count")
    base = tracer.inclusive("cli.run_verify_checks") / n
    sweep = tracer.inclusive_under(
        ("fockrep.random_state", "fockrep.uncertainty_product"), "cli.run_verify_checks"
    ) / n
    out["verify.robertson_share"] = metric(sweep / base if base else 0.0, "1")
    out["verify.robertson_base_s"] = metric(base, "s")
    out["verify.slope_D"] = metric(slope if slope is not None else 0.0, "1")
    for full in DENSE_PRODUCTS:
        out[f"kernel.{full}.cmadd_computed"] = metric(tracer.cmadd[full] // n, "count")
    total = sum(tracer.cmadd[full] for full in DENSE_PRODUCTS) // n
    out["kernel.dense.cmadd_computed"] = metric(total, "count")
    traced = statistics.median(traced_rounds)
    plain = statistics.median(plain_rounds)
    out["trace.overhead_s"] = metric(traced - plain, "s")
    out["trace.untraced_round_s"] = metric(plain, "s")  # summed call latency of one round
    return out


def print_report(report):
    env = report["environment"]
    print(f"# workload {report['workload']} seed {report['seed']} trace {int(report['trace'])}"
          f" rounds {report['rounds']} x {report['calls_per_round']} calls")
    print(f"# env python {env['python']} numpy {env['numpy']} openblas [{env['openblas']}]"
          f" blas_threads pinned {env['blas_threads_pinned']} runtime {env['blas_threads_runtime']}"
          f" nproc {env['nproc']}")
    print(f"# loadavg start {report['loadavg_start']} end {report['loadavg_end']}")
    for kind, k in report["kinds"].items():
        print(f"# {kind}_s {k['seconds']:.6f} s, {k['relative']:.4f} ref (mean over cases of the per-case median)")
    if report["verify_slope_D"] is not None:
        print(f"# verify.slope_D {report['verify_slope_D']:.4f} (log-log, D in 32,128,256)")
    print(f"# failed_ratio {report['failed_ratio']:.6f} ({report['failed']}/{report['attempted']})")
    for label, checks in sorted(report["failed_checks"].items()):
        detail = ", ".join(f"{k}={v:.3e}" for k, v in checks.items())
        print(f"# failed {label}: {detail}")
    for line in report["malformed"][:20] + report["golden_mismatches"]:
        print(f"# INCORRECT {line}")
    print(f"# goldens {'byte-identical' if not report['golden_mismatches'] else 'MISMATCH'}")
    if report["setup_samples_s"]:
        print(f"# setup samples s {report['setup_samples_s']}")
    print(f"# peak_rss_mb {report['peak_rss_mb']:.1f}")


# ---------------------------------------------------------------------------
# all workloads


def run_all(seed, seconds, trace):
    """Each workload in a fresh process, then one table of every metric."""
    results = {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=seconds * 4 + 600,
        )
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n" if done.stdout else "")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {name} exited {done.returncode}")
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print("# workload       metric                           value unit")
    merged = {}
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"# {name:<14} {key:<30} {m['value']:>12.6g} {m['unit']}")
            merged[f"{name}.{key}"] = m
        print(f"# {name:<14} {'failed_ratio':<30} {res['failed'] / res['attempted']:>12.6g} 1")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": merged,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "deformalg" / "cli.py", GOLDEN_SCRIPT) if not p.is_file()]
    if missing:
        print(f"error: deformalg sources not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
