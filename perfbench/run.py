"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload des_kernels --seed 1 \
        --seconds 20 --trace 0

Every input is generated from ``--seed``.  The workload's op set runs
closed-loop, one call at a time in this process, for the whole number
of iterations closest to ``--seconds``; host times are medians over
those iterations, calibrated against a fixed reference loop.  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (which
alternates untraced and traced iterations, so the tracing overhead is
measured too).  Earlier lines record the seed, the cache isolation, and
whether each metric is *host* (what the simulator takes) or *modelled*
(what the MTIA design would take).  See perfbench/NOTES.md.
"""

import time

_T0 = time.perf_counter()   # set-up is timed from here: imports + inputs

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: workload -> (part run at full size, parts run as a mini slice, mini
#: passes per iteration).  The minis run several times per iteration so
#: their short host timings get as many samples as the full part's.
WORKLOADS = {
    "des_kernels": ("des", ("fleet", "compile"), 2),
    "fleet_flash_crowd": ("fleet", ("des", "compile"), 2),
    "model_compile": ("compile", ("des", "fleet"), 6),
}

#: end-to-end metrics: name -> (unit, host | modelled)
END_TO_END = {
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "des_fc_s": ("s", "host"),
    "des_tbe_s": ("s", "host"),
    "autotune_s": ("s", "host"),
    "des_sim_cycles": ("cycles", "modelled"),
    "fleet_requests_per_s": ("1/s", "host"),
    "fleet_p99_us": ("us", "modelled"),
    "fleet_slo_attainment": ("ratio", "modelled"),
    "latency_tables_s": ("s", "host"),
    "graph_exec_s": ("s", "host"),
    "zoo_latency_us": ("us", "modelled"),
}

#: per-layer metrics of the traced run: name -> (unit, host | modelled)
PER_LAYER = {
    "sim.events": ("count", "host"),
    "sim.run_s": ("s", "host"),
    "sim.events_per_s": ("1/s", "host"),
    "sim.peak_heap": ("count", "host"),
    "kernels.fc.calls": ("count", "host"),
    "kernels.fc.s": ("s", "host"),
    "kernels.tbe.calls": ("count", "host"),
    "kernels.tbe.s": ("s", "host"),
    "kernels.self_s": ("s", "host"),
    "memory.sram.hit_ratio": ("ratio", "modelled"),
    "memory.dram.read_bytes": ("bytes", "modelled"),
    "memory.dram.accesses": ("count", "modelled"),
    "noc.link_bytes": ("bytes", "modelled"),
    "core.fi.busy_cycles": ("cycles", "modelled"),
    "core.fi.stall_cycles": ("cycles", "modelled"),
    "model.fc_cycles": ("cycles", "modelled"),
    "model.tbe_uniform_cycles": ("cycles", "modelled"),
    "model.tbe_zipf_cycles": ("cycles", "modelled"),
    "model.tbe_gather_pct_dram_bw": ("%", "modelled"),
    "autotune.search_s": ("s", "host"),
    "autotune.evals": ("count", "host"),
    "autotune.validate_s": ("s", "host"),
    "autotune.validated": ("count", "host"),
    "model.autotune_speedup": ("ratio", "modelled"),
    "fleet.route_s": ("s", "host"),
    "fleet.self_s": ("s", "host"),
    "fleet.hedged": ("count", "modelled"),
    "traffic.requests": ("count", "modelled"),
    "faults.events": ("count", "modelled"),
    "resilience.s": ("s", "host"),
    "resilience.self_s": ("s", "host"),
    "resilience.calls": ("count", "host"),
    "resilience.batches": ("count", "modelled"),
    "resilience.retries": ("count", "modelled"),
    "resilience.shed": ("count", "modelled"),
    "resilience.aborted": ("count", "modelled"),
    "telemetry.s": ("s", "host"),
    "model.fleet_p50_us": ("us", "modelled"),
    "model.fleet_availability": ("ratio", "modelled"),
    "model.queue_wait_us_mean": ("us", "modelled"),
    "models.build_s": ("s", "host"),
    "models.nodes": ("count", "host"),
    "compiler.fuse_s": ("s", "host"),
    "compiler.place_s": ("s", "host"),
    "compiler.nodes_fused": ("count", "host"),
    "opmodel.estimate_s": ("s", "host"),
    "opmodel.ops": ("count", "host"),
    "executor.s": ("s", "host"),
    "simcache.graph.hits": ("count", "modelled"),
    "simcache.graph.hit_ratio": ("ratio", "modelled"),
    "trace.wall_s": ("s", "host"),
    "trace.self_sum_s": ("s", "host"),
    "trace.op_s": ("s", "host"),
    "trace.untraced_op_s": ("s", "host"),
    "trace.overhead_s": ("s", "host"),
    "trace.overhead_pct": ("%", "host"),
    "trace.spans": ("count", "host"),
}

#: per-layer metrics read from span summaries: name -> (span names, field)
_SPAN_METRICS = {
    "kernels.fc.calls": (("kernels.fc",), "calls"),
    "kernels.fc.s": (("kernels.fc",), "total_s"),
    "kernels.tbe.calls": (("kernels.tbe",), "calls"),
    "kernels.tbe.s": (("kernels.tbe",), "total_s"),
    "kernels.self_s": (("kernels.fc", "kernels.tbe"), "self_s"),
    "autotune.search_s": (("autotune.search",), "total_s"),
    "autotune.validate_s": (("autotune.validate",), "total_s"),
    "fleet.route_s": (("fleet.route",), "total_s"),
    "fleet.self_s": (("fleet",), "self_s"),
    "resilience.s": (("resilience",), "total_s"),
    "resilience.self_s": (("resilience",), "self_s"),
    "resilience.calls": (("resilience",), "calls"),
    "telemetry.s": (("telemetry",), "total_s"),
    "models.build_s": (("models.build",), "total_s"),
    "compiler.fuse_s": (("compiler.fuse",), "total_s"),
    "compiler.place_s": (("compiler.place",), "total_s"),
    "opmodel.estimate_s": (("opmodel.estimate",), "total_s"),
    "executor.s": (("executor",), "total_s"),
}

#: End-to-end host times are calibrated against this fixed pure-Python
#: loop, timed before every part of every iteration: a reported time is
#: the measured median scaled by REFERENCE_LOOP_S over the run's median
#: loop time, i.e. host seconds on a machine state where the loop takes
#: 25 ms.  On a shared virtual machine host speed drifts by tens of
#: percent over minutes; the drift slows the loop and the program alike,
#: and the scaling removes part of it from run-to-run comparisons.
_REFERENCE_LOOP_N = 300_000
REFERENCE_LOOP_S = 0.025

#: environment variables that would turn a run into a cache replay
_CACHE_ENV = ("REPRO_SIM_CACHE", "REPRO_GRAPH_CACHE")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> dict:
    """Import ``repro`` from this checkout's ``src`` with caches off."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {SRC}/repro; run from a checkout")
    for name in _CACHE_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [str(ROOT), str(SRC)]
    import repro
    from repro.obs import metrics

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        _fail(f"imported repro from {repro.__file__}, not {SRC}")
    metrics.disable_default_registry()
    return {"REPRO_SIM_CACHE": "unset", "REPRO_GRAPH_CACHE": "unset",
            "default_metric_registry": "disabled"
            if metrics.default_registry() is None else "enabled"}


def build_parts(workload: str, seed: int) -> list:
    """Set-up: generate every part's inputs from ``seed``.

    Returns one iteration's schedule: half the mini passes, the full
    part, then the other half (a part object may appear several times).
    """
    from perfbench.parts import PARTS

    primary, minis, passes = WORKLOADS[workload]
    full = PARTS[primary](seed, full=True)
    small = [PARTS[name](seed, full=False) for name in minis]
    return small * (passes // 2) + [full] + small * (passes - passes // 2)


def _setup_in_subprocess(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def reference_loop_s() -> float:
    """Host seconds the calibration loop takes right now."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        # a hook would slow the loop and the program alike and hide it
        raise RuntimeError("a trace or profile hook is installed")
    t0 = time.perf_counter()
    total = 0
    for i in range(_REFERENCE_LOOP_N):
        total += i * i
    return time.perf_counter() - t0


@dataclass
class Iteration:
    """What one pass over the schedule measured."""

    op_s: float = 0.0        #: host time inside timed ops, checks excluded
    host: dict = field(default_factory=dict)      #: metric -> samples (s)
    modelled: dict = field(default_factory=dict)  #: metric -> value
    attempted: int = 0
    failed: int = 0
    consistent: bool = True  #: repeated minis modelled the same values
    loop_s: list = field(default_factory=list)    #: calibration samples


def run_iteration(parts, tracer) -> Iteration:
    """One pass over the schedule."""
    it = Iteration()
    gc.collect()   # every iteration starts from a collected heap
    with tracer.span("iteration"):
        for part in parts:
            it.loop_s.append(reference_loop_s())
            with tracer.span("part." + part.name):
                result = part.run(tracer)
            for key, samples in result.host.items():
                it.host.setdefault(key, []).extend(samples)
            for key, value in result.modelled.items():
                if it.modelled.setdefault(key, value) != value:
                    it.consistent = False
            it.op_s += result.op_s
            it.attempted += result.attempted
            it.failed += result.failed
        it.loop_s.append(reference_loop_s())
    return it


def layer_metrics(tracer, it: Iteration) -> dict:
    """Per-layer metrics of one traced iteration."""
    from perfbench.spans import self_times, summarise

    summary = summarise(tracer.spans)
    out = {}
    for name, (spans, column) in _SPAN_METRICS.items():
        out[name] = sum(summary.get(s, {}).get(column, 0.0) for s in spans)
    out.update({k: float(v) for k, v in tracer.counts.items()})
    run_s = out.get("sim.run_s", 0.0)
    out["sim.events_per_s"] = (out.get("sim.events", 0.0) / run_s
                               if run_s > 0 else 0.0)
    out.update({k: v for k, v in it.modelled.items() if k in PER_LAYER})
    root = tracer.spans[0]
    out["trace.wall_s"] = root.end - root.start
    out["trace.self_sum_s"] = sum(self_times(tracer.spans).values())
    out["trace.spans"] = float(len(tracer.spans))
    out["trace.op_s"] = it.op_s
    return out


def measure(parts, seconds: float, traced: bool):
    """Run the whole number of iterations that comes closest to ``seconds``.

    A traced run alternates untraced and traced iterations (at least one
    of each).  Returns ``(untraced, traced, layers, last_tracer)``: the
    two lists of :class:`Iteration` and the traced iterations' per-layer
    metrics.
    """
    from perfbench.spans import NullTracer, Tracer, instrumented

    probes = list({p.target: p for part in parts for p in part.probes
                   }.values())
    untraced, traced_its, layers = [], [], []
    tracer = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if traced and len(untraced) > len(traced_its):
            tracer = Tracer()
            with instrumented(tracer, probes):
                it = run_iteration(parts, tracer)
            layers.append(layer_metrics(tracer, it))
            traced_its.append(it)
        else:
            untraced.append(run_iteration(parts, NullTracer()))
        now = time.perf_counter()
        # stop once one more iteration would overshoot by more than this
        # run falls short
        if (now - start + (now - t0) / 2 >= seconds
                and (not traced or traced_its)):
            return untraced, traced_its, layers, tracer


def calibration(untraced) -> float:
    """REFERENCE_LOOP_S over the run's median calibration loop time."""
    return REFERENCE_LOOP_S / statistics.median(
        x for it in untraced for x in it.loop_s)


def end_to_end(untraced, setup_s: float, scale: float) -> dict:
    """End-to-end metrics; host times are multiplied by ``scale``."""
    def med(key):
        return scale * statistics.median(
            x for it in untraced for x in it.host[key])

    # a failed op leaves its modelled values out (the run is then not
    # correct); they read 0 so the result line can still be printed
    modelled = {name: untraced[0].modelled.get(name, 0.0)
                for name in ("des_sim_cycles", "fleet_requests",
                             "fleet_p99_us", "fleet_slo_attainment",
                             "zoo_latency_us")}
    return {
        "setup_s": scale * setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "des_fc_s": med("des_fc_s"),
        "des_tbe_s": med("des_tbe_s"),
        "autotune_s": med("autotune_s"),
        "des_sim_cycles": modelled["des_sim_cycles"],
        "fleet_requests_per_s": modelled["fleet_requests"] / med("fleet_s"),
        "fleet_p99_us": modelled["fleet_p99_us"],
        "fleet_slo_attainment": modelled["fleet_slo_attainment"],
        "latency_tables_s": med("latency_tables_s"),
        "graph_exec_s": med("graph_exec_s"),
        "zoo_latency_us": modelled["zoo_latency_us"],
    }


def per_layer(layers, untraced) -> dict:
    out = {name: statistics.median(row.get(name, 0.0) for row in layers)
           for name in PER_LAYER if name in layers[0]}
    traced = out["trace.op_s"]
    base = statistics.median(it.op_s for it in untraced)
    out["trace.untraced_op_s"] = base
    out["trace.overhead_s"] = traced - base
    out["trace.overhead_pct"] = 100.0 * (traced - base) / base
    return out


def _write_spans(workload: str, seed: int, tracer) -> Path:
    from perfbench.spans import to_records

    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "spans": to_records(tracer.spans),
                                "counts": tracer.counts}))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    env = _import_program()
    parts = build_parts(args.workload, args.seed)
    setup_here = time.perf_counter() - _T0
    if args.setup_only:
        print(setup_here)
        return 0
    # set-up is timed three times (twice in fresh interpreters, since
    # imports happen once per process) and reported as the median
    setups = [setup_here] + [_setup_in_subprocess(args.workload, args.seed)
                             for _ in range(2)]

    untraced, traced, layers, tracer = measure(parts, args.seconds,
                                               bool(args.trace))
    iterations = untraced + traced
    failed = sum(it.failed for it in iterations)
    deterministic = all(it.consistent and it.modelled == untraced[0].modelled
                        for it in iterations)
    if not deterministic:
        print("modelled values differ within the run", flush=True)
    scale = calibration(untraced)
    if args.trace:
        metrics = per_layer(layers, untraced)
        names = PER_LAYER
        spans_path = _write_spans(args.workload, args.seed, tracer)
    else:
        metrics = end_to_end(untraced, statistics.median(setups), scale)
        names = END_TO_END
        spans_path = None

    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "untraced_op_s": [it.op_s for it in untraced],
        "calibration": {"reference_loop_s": REFERENCE_LOOP_S,
                        "scale": scale},
        "setup_samples_s": setups, "environment": env,
        "labels": {name: names[name][1] for name in names},
        "spans_file": str(spans_path) if spans_path else None}))
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": sum(it.attempted for it in iterations),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0),
                           "unit": names[name][0]}
                    for name in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
