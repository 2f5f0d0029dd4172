"""evosched benchmark: one command, three workloads, output checks, and a
separately traced run for the per-layer numbers.

    python3 perfbench/run.py --workload bench3 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-check

Each workload is a closed loop in one process and one thread: the next
operation starts when the previous one returns, and every pass over the
operations gets inputs of its own.  With ``--trace 0`` the run reports the
end-to-end metrics, with host times scaled by a reference timed in the same
run (hostspeed.py); with ``--trace 1`` it runs the first pass untraced, the
same pass traced and the pass untraced again, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  perfbench/README.md describes the
workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# Pin BLAS and OpenMP pools to one thread; numpy is first imported later.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"

WORKLOADS = ("bench3", "fleet-mixed", "knapsack-grid")
SIM_WORKLOADS = ("bench3", "fleet-mixed")
SETUP_REPEATS = 5


def import_program():
    """Import evosched from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "evosched" / "__init__.py").is_file():
        raise SystemExit(f"error: no evosched sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import evosched
    import evosched.cli  # noqa: F401  (imported here so set-up time includes it)
    if Path(evosched.__file__).resolve().parent != (src / "evosched").resolve():
        raise SystemExit(f"error: evosched imported from {evosched.__file__}, not {src}")


@dataclass
class Op:
    """One closed-loop operation.  ``key`` names its kind (the policy, or the
    knapsack grid cell), which every pass has once.  ``verify`` turns the
    call's outcome into a list of problems and the bytes that enter the
    output digest."""
    key: str
    work: int
    call: Callable[[], object]
    verify: Callable[[object], Tuple[List[str], bytes]]
    out_dir: Optional[Path] = None  # where a simulate call writes


@dataclass
class Workload:
    make_pass: Callable[[int], Tuple[List[Op], List[str]]]  # pass index -> ops, problems
    work_unit: str
    kernel: Callable[[], object]  # the host-speed reference kernel


# --- building the inputs -----------------------------------------------------

def _sim_ops(scenario_file, out: Path) -> List[Op]:
    from checks import check_simulation
    from evosched import cli, simenv
    from workloads import POLICIES

    def op(policy):
        out_dir = out / policy
        argv = ["simulate", "--scenario", str(scenario_file.path),
                "--out", str(out_dir), "--policy", policy]

        def verify(exit_code):
            problems = check_simulation(out_dir, exit_code, simenv.METRICS_COLUMNS)
            path = out_dir / "metrics.csv"
            return problems, path.read_bytes() if path.is_file() else b""
        return Op(key=policy, work=scenario_file.frames,
                  call=lambda: cli.main(argv), verify=verify, out_dir=out_dir)

    return [op(p) for p in POLICIES]


def _select_ops(block) -> List[Op]:
    from checks import check_selection
    from evosched import scheduler

    def op(candidates, capacity):
        def verify(result):
            line = f"{','.join(result.selected)};{result.total_value!r}\n"
            return check_selection(candidates, capacity, result), line.encode()
        return Op(key=f"n{len(candidates)}/c{int(capacity)}", work=1,
                  call=lambda: scheduler.select_tasks(candidates, capacity),
                  verify=verify)

    return [op(c, cap) for c, cap in block]


def build(workload: str, seed: int, out: Path, tiny: bool) -> Workload:
    """The workload's pass maker.  Pass ``p`` gets inputs of its own, made
    from the seed and ``p``: one knapsack set per grid cell, or one scenario
    under all five policies, written and read back through the JSON codec."""
    import hostspeed
    import workloads as w

    if workload == "knapsack-grid":
        grid = dict(sizes=(5, 10, 20), capacities=(100.0, 1000.0)) if tiny else {}
        return Workload(lambda p: (_select_ops(w.knapsack_block(w.pass_seed(seed, p), **grid)), []),
                        "select_tasks calls", hostspeed.table_kernel)

    if workload == "bench3":
        def scenario(s):  # tiny: the first round of drifts only
            return replace(w.bench3_scenario(s), duration=1300.0) if tiny else w.bench3_scenario(s)
    else:
        def scenario(s):
            return w.fleet_scenario(s, n_ends=6, duration=1000.0) if tiny else w.fleet_scenario(s)

    def make_pass(p):
        out_p = out / f"p{p}"
        scenario_file, problems = w.write_scenario(scenario(w.pass_seed(seed, p)),
                                                   out_p / "scenario.json")
        return _sim_ops(scenario_file, out_p), problems
    return Workload(make_pass, "simulated frames", hostspeed.sim_kernel)


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import {}; print(time.perf_counter() - t)")


def time_import(modules: str) -> float:
    """Seconds to import ``modules`` in a fresh interpreter; the child has
    ended when this returns."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(modules), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def timed_setup(wl: Workload, repeats: int):
    """Set up ``repeats`` times: import the program in a fresh interpreter and
    build the first pass.  A fixed set of standard-library imports, timed the
    same way before and after each set-up, scales it to reference seconds
    (see hostspeed.py).  Returns the last first pass, its build problems, the
    median scaled set-up and the medians of set-up, import, build and
    reference-import host times."""
    from hostspeed import REFERENCE_IMPORT_S, REFERENCE_IMPORTS
    setups, imports, builds, refs, scaled = [], [], [], [time_import(REFERENCE_IMPORTS)], []
    for _ in range(repeats):
        imports.append(time_import("evosched.cli"))
        start = perf_counter()
        first, problems = wl.make_pass(0)
        builds.append(perf_counter() - start)
        setups.append(imports[-1] + builds[-1])
        refs.append(time_import(REFERENCE_IMPORTS))
        scaled.append(setups[-1] * REFERENCE_IMPORT_S / statistics.fmean(refs[-2:]))
    return (first, problems, statistics.median(scaled),
            [statistics.median(v) for v in (setups, imports, builds, refs)])


# --- the closed loop -----------------------------------------------------------

@dataclass
class Result:
    times: Dict[str, List[float]]  # op key -> host seconds of each operation that returned
    work: int                      # work units of the operations that returned
    attempted: int
    failed: int
    digest: str                    # over the first pass's outputs
    first_outputs: Dict[str, bytes]
    problems: List[str]            # from building later passes
    peak_rss_mb: float             # after set-up and the first pass

    @property
    def wall(self) -> float:
        """Seconds spent inside operations."""
        return sum(sum(v) for v in self.times.values())


def run_ops(first: List[Op], make_pass, seconds: float, tracer=None, speed=None) -> Result:
    """Run the first pass, then further passes, each on inputs of its own,
    while one more pass as long as the last is expected to end within
    ``seconds``.  Only whole passes run, so every kind of operation has as
    many samples.  With ``speed``, the reference kernel runs between
    operations for its share of the time, from the end of the first pass on."""
    times: Dict[str, List[float]] = {}
    work, attempted, failed = 0, 0, 0
    first_outputs: Dict[str, bytes] = {}
    build_problems: List[str] = []
    digest = hashlib.sha256()
    start = perf_counter()
    ops, p = first, 0

    while True:
        pass_start = perf_counter()
        for op in ops:
            attempted += 1
            try:
                t0 = perf_counter()
                outcome = tracer.operation(attempted, op.call) if tracer else op.call()
                elapsed = perf_counter() - t0
                problems, output = op.verify(outcome)
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            if p == 0:
                first_outputs[op.key] = output
                digest.update(output)
            if problems:
                failed += 1
                print(f"failed pass {p} {op.key}: {'; '.join(problems[:3])}", file=sys.stderr)
            times.setdefault(op.key, []).append(elapsed)
            work += op.work
            if speed:
                speed.pace(elapsed, run_kernel=p > 0)
        if p == 0:  # read before the kernel first runs: it holds memory of its own
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if speed:
            speed.pace(0.0)
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            return Result(times, work, attempted, failed, digest.hexdigest(),
                          first_outputs, build_problems, peak_rss_mb)
        p += 1
        ops, problems = make_pass(p)
        build_problems += problems


def rerun_matches(op: Op, expected: bytes) -> bool:
    """Whether ``op`` run again on the same input gives the same output."""
    try:
        return op.verify(op.call())[1] == expected
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


# --- metrics ------------------------------------------------------------------

def policy_means(first: List[Op]) -> dict:
    """Per-policy simulated outcomes of the first pass, from summary.json."""
    from workloads import POLICIES
    fields = (("q_t", "q_t", "score"), ("n_tasks", "tasks_finished", "count"),
              ("mean_t_schedule", "mean_t_schedule_s", "sim_s"),
              ("mean_t_retrain", "mean_t_retrain_s", "sim_s"),
              ("mean_evolving_time", "mean_evolve_s", "sim_s"))
    out = {}
    for policy in POLICIES:
        docs = []
        for op in first:
            path = op.out_dir / "summary.json" if op.out_dir else None
            if op.key == policy and path and path.is_file():
                with open(path) as fh:
                    docs.append(json.load(fh))
        for field, name, unit in fields:
            value = statistics.fmean(d.get(field, 0.0) for d in docs) if docs else 0.0
            out[f"simenv.{name}.{policy}"] = (value, unit)
    return out


def end_to_end(res: Result, setup_s: float, factor: float) -> dict:
    """Host-time metrics in reference seconds (see hostspeed.py): set-up time
    as scaled by ``timed_setup``, operation times times ``factor``.

    Both time metrics rest on means, as the factor does: the host's slow
    stretches are shorter than an operation, so a mean over a run sees the
    same share of them in the operations and in the kernel, while a median
    or a minimum of single operations picks out the ones that met fewer.
    """
    kind_means = [statistics.fmean(times) for times in res.times.values()]
    return {
        "setup_s": (setup_s, "s"),
        # 0 only when every operation raised; such a run is marked incorrect
        "op_mean_s_p50": (statistics.median(kind_means) * factor if kind_means else 0.0, "s"),
        "work_per_s": (res.work / (res.wall * factor) if kind_means else 0.0, "1/s"),
        "peak_rss_mb": (res.peak_rss_mb, "MiB"),
    }


def execute(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run.  Returns (result JSON object, human-readable lines)."""
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    import_program()
    wl = build(workload, seed, out, tiny)
    repeats = 1 if tiny else SETUP_REPEATS
    first, problems, setup_s, (setup_host_s, import_s, build_s, ref_s) = timed_setup(wl, repeats)
    lines = [f"workload {workload}, seed {seed}"]

    if not trace:
        from hostspeed import HostSpeed
        speed = HostSpeed(wl.kernel)
        res = run_ops(first, wl.make_pass, seconds, speed=speed)
        problems += res.problems
        metrics = end_to_end(res, setup_s, speed.factor)
        res.attempted += 1
        if not rerun_matches(first[0], res.first_outputs.get(first[0].key)):
            res.failed += 1
            problems.append(f"{first[0].key} run again on the first pass's input "
                            f"gave other output")
        every = [t for times in res.times.values() for t in times]
        kernel_s = statistics.fmean(speed.kernel_s)
        lines += [
            f"host speed: {wl.kernel.__name__} {kernel_s:.5f} s mean over "
            f"{len(speed.kernel_s)} runs, factor {speed.factor:.4f} reference s per host s",
            f"setup_s = {setup_s:.4f} s (median of {repeats} set-ups, each scaled by the "
            f"reference imports around it; host medians: set-up {setup_host_s:.4f} s, import "
            f"in a fresh interpreter {import_s:.4f} s, first-pass build {build_s:.4f} s, "
            f"reference imports {ref_s:.4f} s)",
            f"op_mean_s_p50 = {metrics['op_mean_s_p50'][0]:.6f} s (median over "
            f"{len(res.times)} kinds of operation of each kind's mean; {len(every)} "
            f"operations in {len(every) // max(1, len(res.times))} whole passes)",
            f"work_per_s = {metrics['work_per_s'][0]:.2f} {wl.work_unit} per second "
            f"(host {res.work / res.wall if every else 0.0:.2f})",
            f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MiB",
        ]
        if every:  # single operations, for a reader: see end_to_end for why not metrics
            p50 = statistics.median(every)
            lines.append(f"op_s_p50 = {p50 * speed.factor:.6f} s (host {p50:.6f} s, n = {len(every)})")
        if len(every) >= 100:
            p90 = statistics.quantiles(every, n=10)[8]
            lines.append(f"op_s_p90 = {p90 * speed.factor:.6f} s (host {p90:.6f} s, n = {len(every)})")
    else:
        import tracer as tracing
        # The first pass untraced, traced and untraced again: the overhead
        # compares the traced pass with the mean of the passes around it.
        before = run_ops(first, wl.make_pass, 0.0)
        tr = tracing.Tracer()
        tracing.install(tr)
        try:
            traced = run_ops(first, wl.make_pass, 0.0, tracer=tr)
        finally:
            tr.restore()
        after = run_ops(first, wl.make_pass, 0.0)
        tr.write_spans(out / "spans.csv.gz")
        metrics = tracing.layer_metrics(tr, traced.wall, (before.wall + after.wall) / 2)
        passes = (before, traced, after)
        res = Result({}, sum(p.work for p in passes), sum(p.attempted for p in passes),
                     sum(p.failed for p in passes), traced.digest, {}, [], before.peak_rss_mb)
        if len({p.digest for p in passes}) != 1:
            problems.append("traced outputs differ from untraced outputs")
        lines.append(f"{len(tr.spans)} spans written to {out / 'spans.csv.gz'}")
        lines.append(f"trace.overhead_frac = {metrics['trace.overhead_frac'][0]:.4f}")

    means = policy_means(first)  # all 0 on knapsack-grid
    if trace:
        metrics.update(means)
    if workload in SIM_WORKLOADS:
        lines.append(f"qoe_adaptive = {means['simenv.q_t.adaptive'][0]!r} "
                     f"(first pass's scenario)")
        lines.append(f"evolve_s_adaptive = {means['simenv.mean_evolve_s.adaptive'][0]!r} sim s")
    if threading.active_count() != 1:
        problems.append(f"{threading.active_count()} threads running, expected 1")
    lines.append(f"failed_ops_frac = {res.failed / res.attempted:.6f} "
                 f"({res.failed} of {res.attempted} ops)")
    lines.append(f"outputs_sha256 = {res.digest} (first pass)")
    for p in problems:
        lines.append(f"problem: {p}")
    doc = {
        "correct": res.failed == 0 and not problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return doc, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every check on tiny inputs and exit")
    args = parser.parse_args(argv)
    if args.self_check:
        import selfcheck
        return selfcheck.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    doc, lines = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
