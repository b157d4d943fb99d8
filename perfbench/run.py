#!/usr/bin/env python3
"""isfkit benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload graphs --seed 1 --seconds 10 --trace 0

With --trace 0 the run measures the end-to-end metrics: a closed loop with one
caller runs whole rounds of instances for at least --seconds seconds and at
least MIN_SAMPLES instances, checking every output.  Times are scaled to a
reference host speed (see scaled_to_reference).  With --trace 1 it runs
one round twice, untraced and then with every public isfkit function wrapped
by the span recorder, and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; metric names and units come from BENCHMARK.json.  Run
records and span files go to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
GOLDEN = BENCH / "golden.json"
MIN_SAMPLES = 100  # so that at least 10 samples lie beyond p90
SETUP_PROBES = 7
CHILD_PROBES = 5
DEADLINE_S = 170
# Host-speed probes.  The reference loop, fixed pure-Python work, takes
# 1.7-3.5 ms on a 2-core Intel Xeon host; a bare interpreter start (python -c
# pass) takes 40-75 ms there.  Timed metrics are reported for a host on which
# they take REFERENCE_LOOP_S and REFERENCE_START_S.
REFERENCE_LOOP_S = 2e-3
REFERENCE_START_S = 50e-3
SPEED_WINDOW = 4  # probe samples on each side of an instance that set its speed


class Deadline(BaseException):
    """Raised by the watchdog alarm; not an Exception, so no handler that
    records a failed instance swallows it."""


def _deadline(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


# -- environment record --------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _numpy_version():
    if "numpy" in sys.modules:
        return sys.modules["numpy"].__version__
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # a plain source checkout; src_sha256 identifies the code
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "isfkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "isfkit_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# -- host speed ----------------------------------------------------------------


def bare_start_s() -> float:
    """Wall time of a bare interpreter start, a sample of how fast the host
    starts processes now."""
    from workloads import child_env

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, cwd=ROOT, env=child_env(), check=True)
    return time.perf_counter() - start


_PROBE_EDGES = [(a, b) for a, b in itertools.combinations(range(6), 2) if a * b % 3 != 1]


def reference_loop_s() -> float:
    """Time of the reference loop, a sample of the host's current speed.

    Three kinds of work isfkit does, in about equal parts: integer
    arithmetic, exact rational sums with small frozensets, and a brute-force
    count of proper 3-colorings.  On a shared host no one of them tracks the
    slowdowns of every workload; together they track each workload about as
    well as the best single one.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    total = Fraction(0)
    seen = set()
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i)
        seen.add(frozenset((i % 13, i % 11, i % 5)))
    proper = 0
    for colors in itertools.product(range(3), repeat=6):
        proper += all(colors[a] != colors[b] for a, b in _PROBE_EDGES)
    return time.perf_counter() - start


def scaled_to_reference(times: list[float], probes: list[float],
                        reference_s: float) -> list[float]:
    """Each time scaled to a host on which the speed probe takes reference_s.

    probes[i] is the probe timed just before times[i].  The speed of a shared
    host drifts by up to 2x over minutes, and in a single-threaded loop CPU
    time drifts with wall time; so each time is divided by the median probe
    time of its neighbourhood of 2 * SPEED_WINDOW + 1 samples.  The probes run
    no isfkit code: a change to the program moves the scaled times as it
    moves the wall times.  Library work is scaled by the reference loop;
    process starts (set-up, cli) by a bare interpreter start, which tracks
    them where the loop does not.
    """
    scaled = []
    for i, t in enumerate(times):
        local = statistics.median(probes[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
        scaled.append(t * reference_s / local)
    return scaled


# -- set-up --------------------------------------------------------------------


def setup_probe(args, started: float) -> int:
    """Child side of the set-up measurement: import isfkit, build the library
    objects of the specs the parent wrote, say ready with the phase times."""
    from workloads import WORKLOADS

    imported = time.perf_counter()
    make = WORKLOADS[args.workload].make
    for spec in json.loads(Path(args.setup_probe).read_text()):
        make(spec)
    ready = time.perf_counter()
    print(f"ready {imported - started:.6f} {ready - imported:.6f}", flush=True)
    return 0


def measure_setup(wl, args, specs: list) -> tuple[float, dict]:
    """Median time from starting a fresh interpreter until it has imported
    isfkit and built the library objects of the round a run times first,
    each probe scaled by a bare interpreter start made just before it.  The
    specs are drawn beforehand, because drawing them is the benchmark's own
    work."""
    path = wl.workdir / "setup-specs.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(specs))
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", str(path),
           "--workload", args.workload, "--seed", str(args.seed)]
    walls, starts, imports, makes = [], [], [], []
    for _ in range(SETUP_PROBES):
        starts.append(bare_start_s())
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        words = line.split()
        if not words or words[0] != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        walls.append(ready - start)
        imports.append(float(words[1]))
        makes.append(float(words[2]))
    phases = {"wall_s": statistics.median(walls),
              "bare_start_s": statistics.median(starts),
              "import_s": statistics.median(imports),
              "make_s": statistics.median(makes)}
    scaled = [w * REFERENCE_START_S / b for w, b in zip(walls, starts)]
    return statistics.median(scaled), phases


# -- the CLI start-up probes of the traced run ---------------------------------


def _timed_child(cmd) -> tuple[float, str]:
    from workloads import child_env

    start = time.perf_counter()
    done = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, cwd=ROOT, env=child_env())
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited {done.returncode}: {done.stderr[-300:]}")
    return elapsed, done.stderr


def _cumulative_import_s(importtime: str, module: str) -> float:
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def cli_probes(seed: int) -> dict:
    from workloads import VALID, Cli

    interpreter, imports, numpy_imports, runs = [], [], [], []
    for _ in range(CHILD_PROBES):
        interpreter.append(_timed_child([sys.executable, "-c", "pass"])[0])
        _, err = _timed_child([sys.executable, "-X", "importtime", "-c", "import isfkit.cli"])
        imports.append(_cumulative_import_s(err, "isfkit.cli"))
        numpy_imports.append(_cumulative_import_s(err, "numpy"))
    probe = Cli(seed, WORK / f"cli-probe-{os.getpid()}")
    try:
        for k in range(len(VALID)):
            instance = probe.build(k)
            start = time.perf_counter()
            probe.run_in_process(instance)
            runs.append(time.perf_counter() - start)
    finally:
        shutil.rmtree(probe.workdir, ignore_errors=True)
    return {
        "cli.interpreter_s": statistics.median(interpreter),
        "cli.import_s": statistics.median(imports),
        "cli.import_numpy_s": statistics.median(numpy_imports),
        "cli.run_s": statistics.median(runs),
    }


# -- checking ------------------------------------------------------------------


class Checker:
    """Runs a workload's checks and compares against the stored digests."""

    def __init__(self, wl, golden: list[str] | None):
        self.wl = wl
        self.golden = golden or []
        self.failures: dict[int, str] = {}
        self.golden_checked = 0

    def __call__(self, k: int, instance, output, reference: bool) -> None:
        from workloads import CheckFailed, digest

        try:
            if isinstance(output, BaseException):
                raise CheckFailed(f"{type(output).__name__}: {output}")
            text = self.wl.check(instance, output)
            if reference:
                self.wl.reference(instance, output)
            if text and k < len(self.golden):
                self.golden_checked += 1
                if digest(text) != self.golden[k]:
                    raise CheckFailed("output differs from the stored golden digest")
        except CheckFailed as exc:
            self.failures.setdefault(k, str(exc))
        except Exception as exc:  # an output too malformed for the check
            self.failures.setdefault(k, f"{type(exc).__name__} while checking: {exc}")


def load_golden(workload: str, seed: int):
    if not GOLDEN.is_file():
        return None
    entry = json.loads(GOLDEN.read_text()).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["digests"]


def timed(run, instance):
    start = time.perf_counter()
    try:
        output = run(instance)
    except Exception as exc:  # recorded as a failed instance
        output = exc
    return time.perf_counter() - start, output


# -- the two kinds of run ------------------------------------------------------


def timing_metrics(latencies: list[float]) -> dict:
    return {
        "throughput_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def run_end_to_end(wl, args, check: Checker) -> tuple[dict, dict]:
    specs = [wl.spec(k) for k in range(wl.round)]
    setup_s, setup_phases = measure_setup(wl, args, specs)
    instances = [wl.make(spec) for spec in specs]
    wl.run(instances[wl.warmup_index])
    if wl.spawns_children:
        speed_probe, reference_s = bare_start_s, REFERENCE_START_S
    else:
        speed_probe, reference_s = reference_loop_s, REFERENCE_LOOP_S
    walls, probes = [], []
    k = 0
    start = time.perf_counter()
    while (k % wl.round or len(walls) < MIN_SAMPLES
           or time.perf_counter() - start < args.seconds):
        instance = instances[k] if k < len(instances) else wl.build(k)
        probes.append(speed_probe())
        elapsed, output = timed(wl.run, instance)
        walls.append(elapsed)
        check(k, instance, output, reference=True)
        k += 1
    latencies = scaled_to_reference(walls, probes, reference_s)
    values = timing_metrics(latencies)
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = wl.peak_rss_kb() / 1024
    notes = {
        "latencies_ms": [round(x * 1e3, 4) for x in latencies],
        "wall_ms": [round(x * 1e3, 4) for x in walls],
        "speed_probe": speed_probe.__name__,
        "speed_probe_ms": [round(x * 1e3, 4) for x in probes],
        "wall": timing_metrics(walls),
        "setup_phases": setup_phases,
        "attempted": len(latencies),
        "beyond_p90": sum(x * 1e3 > values["latency_p90_ms"] for x in latencies),
        "fail_rate": len(check.failures) / len(latencies),
        "measured_s": time.perf_counter() - start,
    }
    return values, notes


def run_traced(wl, args, check: Checker) -> tuple[dict, dict]:
    from tracer import COUNT_HOOKS, MODULE_LAYER, Tracer

    instances = [wl.build(k) for k in range(wl.round)]
    wl.run_in_process(instances[wl.warmup_index])
    untraced = []
    for k, instance in enumerate(instances):
        elapsed, output = timed(wl.run_in_process, instance)
        untraced.append(elapsed)
        check(k, instance, output, reference=False)
    tracer = Tracer()
    traced = []
    violations_before = getattr(wl, "violations", 0)
    tracer.install()
    try:
        for k, instance in enumerate(instances):
            tracer.instance = k
            elapsed, output = timed(wl.run_in_process, instance)
            tracer.instance = -1
            traced.append(elapsed)
            check(k, instance, output, reference=False)
    finally:
        tracer.uninstall()
    # share of each traced instance's wall time, less the recorder's own
    # bookkeeping, that lies in the self time of some span
    own, recorder = tracer.by_instance()
    program = [t - recorder.get(k, 0.0) for k, t in enumerate(traced)]
    shares = [own.get(k, 0.0) / t for k, t in enumerate(program)]
    extra = cli_probes(args.seed)
    extra.update({
        "cli.input_contract_violations": getattr(wl, "violations", 0) - violations_before,
        "trace.untraced_throughput_per_s": len(untraced) / sum(untraced),
        "trace.throughput_per_s": len(traced) / sum(traced),
        "trace.coverage": sum(own.get(k, 0.0) for k in range(len(traced))) / sum(program),
        "trace.coverage_min": min(shares),
        "trace.spans": len(tracer.span_name),
    })
    extra["trace.throughput_ratio"] = (
        extra["trace.throughput_per_s"] / extra["trace.untraced_throughput_per_s"])
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write_spans(spans_path)
    # a metric whose function or count hook no longer fits would read 0
    # without failing; such a run is not correct
    problems = [f"count hook of {qualname} failed {n} times"
                for qualname, n in sorted(tracer.hook_failures.items())]
    values = {}
    for spec in load_spec()["per_layer"]:
        name = spec["name"]
        if name in extra:
            values[name] = extra[name]
        elif name.endswith(".errors"):
            layer = name.split(".", 1)[0]
            if layer not in MODULE_LAYER.values():
                problems.append(f"{name}: no layer {layer}")
            values[name] = tracer.errors[layer]
        else:
            qualname, stat = name.rsplit(".", 1)
            if qualname not in tracer.name_id:
                problems.append(f"{name}: no wrapped function {qualname}")
            elif stat not in ("calls", "self_s") and qualname not in COUNT_HOOKS:
                problems.append(f"{name}: no count hook for {qualname}")
            values[name] = tracer.metric(qualname, stat)
    every_function = {
        qualname: {"calls": tracer.calls[nid], "self_s": tracer.self_s[nid],
                    **tracer.stats.get(qualname, {})}
        for qualname, nid in tracer.name_id.items() if tracer.calls[nid]
    }
    notes = {
        "attempted": len(instances),  # each run untraced and traced
        "spans_file": str(spans_path.relative_to(ROOT)),
        "functions": every_function,
        "problems": problems,
    }
    return values, notes


# -- main ----------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def write_golden(wl, args) -> int:
    from workloads import digest

    count = wl.golden_rounds * wl.round
    digests = []
    for k in range(count):
        instance = wl.build(k)
        output = wl.run(instance)
        text = wl.check(instance, output)
        wl.reference(instance, output)
        digests.append(digest(text) if text else "")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden[args.workload] = {"seed": args.seed, "digests": digests}
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {count} digests for {args.workload}, seed {args.seed}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="least time the end-to-end loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="SPECS", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true",
                        help="store digests of the outputs of the workload's "
                             "golden rounds for this seed")
    args = parser.parse_args(argv)

    if not (SRC / "isfkit" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a checkout of isfkit; {SRC / 'isfkit'} or "
              f"BENCHMARK.json is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args, time.perf_counter())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.write_golden:
            return write_golden(wl, args)
        signal.signal(signal.SIGALRM, _deadline)
        signal.alarm(DEADLINE_S)
        check = Checker(wl, load_golden(args.workload, args.seed))
        if args.trace:
            values, notes = run_traced(wl, args, check)
            section = "per_layer"
        else:
            values, notes = run_end_to_end(wl, args, check)
            section = "end_to_end"
        signal.alarm(0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in load_spec()[section]}
    env = environment(args.seed)
    problems = notes.get("problems", [])
    record = {
        "workload": args.workload, "trace": args.trace, "environment": env,
        "metrics": values, "notes": notes, "failures": check.failures,
        "golden_checked": check.golden_checked,
        "input_contract_violations": getattr(wl, "violations", None),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        print(f"traced run: {notes['attempted']} instances, untraced then traced; "
              f"spans in {notes['spans_file']}")
    else:
        probe = statistics.quantiles(notes["speed_probe_ms"], n=4)
        wall, phases = notes["wall"], notes["setup_phases"]
        print(f"closed loop, one caller: {notes['attempted']} instances in "
              f"{notes['measured_s']:.1f} s, {notes['beyond_p90']} beyond p90")
        print(f"speed probe {notes['speed_probe']} {probe[1]:.3f} ms (quartiles "
              f"{probe[0]:.3f}, {probe[2]:.3f}); bare start before set-up probes "
              f"{phases['bare_start_s'] * 1e3:.1f} ms; metrics are scaled to "
              f"{REFERENCE_LOOP_S * 1e3:g} ms and {REFERENCE_START_S * 1e3:g} ms")
        print(f"unscaled wall: {wall['throughput_per_s']:.4g} /s, "
              f"p50 {wall['latency_p50_ms']:.4g} ms, p90 {wall['latency_p90_ms']:.4g} ms, "
              f"set-up {phases['wall_s']:.4g} s, of which import "
              f"{phases['import_s']:.4g} s and building inputs {phases['make_s']:.4g} s")
        print(f"  {'fail_rate':34s} {notes['fail_rate']:.4g} ratio "
              f"({len(check.failures)} of {notes['attempted']})")
    if not args.trace and getattr(wl, "violations", None) is not None:
        print(f"  malformed inputs that broke the exit-2 contract: {wl.violations}")
    for name, value in values.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    for k, message in sorted(check.failures.items())[:5]:
        print(f"FAILED instance {k}: {message}")
    for message in problems:
        print(f"FAILED trace: {message}")
    print(json.dumps({
        "correct": not check.failures and not problems,
        "attempted": notes["attempted"],
        "failed": len(check.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
