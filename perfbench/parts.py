"""The three parts of the system the benchmark drives.

Each part generates its inputs from the workload seed when it is built
(set-up) and then runs its op set once per call of :meth:`run`, timing
each phase on the host, checking every output against an independent
reference, and returning modelled numbers that must repeat exactly at a
fixed seed.  A part comes in two sizes: ``full`` is the op set a
workload is about; ``mini`` is a small fixed slice that lets every
workload report every end-to-end metric (see NOTES.md).

Programs are called through their module attributes at call time
(``fc.run_fc`` rather than a name bound at import), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from perfbench.spans import Probe


@dataclass
class PartResult:
    host: Dict[str, List[float]] = field(default_factory=dict)  #: samples
    modelled: Dict[str, float] = field(default_factory=dict)   #: exact
    op_s: float = 0.0        #: host time inside timed ops (no checks)
    attempted: int = 0
    failed: int = 0


def _rng(seed: int, tag: str) -> np.random.Generator:
    """An independent stream per (workload seed, input name)."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, *tag.encode()]))


def _int_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def run_op(out: PartResult, tracer, label: str, fn, check):
    """Time one op and check its output; returns ``(value, seconds)``.

    Only ``fn`` is timed (and spanned, as a new op); the check runs
    after.  The op counts as failed if it raises or the check is false,
    and ``value`` is then None.
    """
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        with tracer.span("op." + label, new_op=True):
            value = fn()
    except Exception:
        traceback.print_exc()
        out.failed += 1
        return None, time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    out.op_s += seconds
    try:
        ok = check(value)
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"check failed: {label}", flush=True)
        out.failed += 1
        return None, seconds
    return value, seconds


# ---------------------------------------------------------------------------
# des: cycle-level FC / TBE simulation and the mapping autotuner
# ---------------------------------------------------------------------------

#: (label, m, k, n, sub-grid rows, cols, k_split); None = the kernel's
#: own choice.  fig7 is the Figure 7 mapping; the rest are DLRM-MLP
#: sized layers (batch 64).
_FC_FULL = [("fig7", 512, 1024, 256, 4, 4, 2),
            ("mlp_512x256", 64, 512, 256, None, None, None),
            ("mlp_256x128", 64, 256, 128, None, None, None)]
_FC_MINI = [("mlp_512x256", 64, 512, 256, None, None, None)]

#: TBE shapes: the Figure 12 gather (production pipelining depth 1)
_TBE_FULL = dict(num_tables=8, rows_per_table=100_000, embedding_dim=64,
                 pooling_factor=16, batch_size=32)
_TBE_MINI = dict(num_tables=2, rows_per_table=20_000, embedding_dim=64,
                 pooling_factor=16, batch_size=16)
_ZIPF_ALPHA = 1.1

#: one autotune call per family at a fixed search seed and budget
_AUTOTUNE_SEED = 0
_AUTOTUNE_FULL = dict(
    fc=dict(m=256, k=512, n=256, dtype="int8"),
    tbe=dict(num_tables=4, rows_per_table=50_000, embedding_dim=64,
             pooling_factor=16, batch_size=16),
    budget=60, topk=2)
_AUTOTUNE_MINI = dict(
    fc=dict(m=64, k=256, n=128, dtype="int8"),
    tbe=dict(num_tables=2, rows_per_table=20_000, embedding_dim=64,
             pooling_factor=8, batch_size=8),
    budget=16, topk=1)


def _sim_before(args, kwargs):
    return dict(args[0].engine.run_stats())


def _sim_after(result, args, kwargs, before):
    after = args[0].engine.run_stats()
    return {"sim.events": (after["events_processed"]
                           - before["events_processed"], "sum"),
            "sim.run_s": (after["run_wall_s"] - before["run_wall_s"], "sum"),
            "sim.peak_heap": (after["peak_heap_size"], "max")}


class DesPart:
    """Hand-mapped FC and TBE ops on fresh accelerators, plus autotune."""

    name = "des"
    probes = [
        Probe("repro.kernels.fc:run_fc", "kernels.fc"),
        Probe("repro.kernels.tbe:run_tbe", "kernels.tbe"),
        Probe("repro.core.accelerator:Accelerator.run", "sim.run",
              after=_sim_after, before=_sim_before),
        Probe("repro.autotune.search:run_search", "autotune.search",
              after=lambda r, a, k, s: {
                  "autotune.evals": (r.trace.budget_used, "sum")}),
        Probe("repro.autotune.validate:validate_candidates",
              "autotune.validate",
              after=lambda r, a, k, s: {
                  "autotune.validated": (len(r), "sum")}),
    ]

    def __init__(self, seed: int, full: bool) -> None:
        from repro.autotune import tuner  # noqa: F401  (set-up import)
        from repro.core.accelerator import Accelerator  # noqa: F401
        from repro.kernels import fc, tbe  # noqa: F401

        rng = _rng(seed, "des.fc")
        self.fc_ops = []
        for label, m, k, n, rows, cols, k_split in (
                _FC_FULL if full else _FC_MINI):
            a = rng.integers(-128, 128, size=(m, k), dtype=np.int8)
            b_t = rng.integers(-128, 128, size=(n, k), dtype=np.int8)
            self.fc_ops.append((label, a, b_t, rows, cols, k_split))

        self.tbe_config = tbe.TBEConfig(**(_TBE_FULL if full else _TBE_MINI))
        rng = _rng(seed, "des.tbe")
        self.tables = tbe.generate_tables(self.tbe_config, _int_seed(rng))
        self.indices = {
            "uniform": tbe.generate_indices(self.tbe_config, _int_seed(rng)),
            "zipf": tbe.generate_indices(self.tbe_config, _int_seed(rng),
                                         alpha=_ZIPF_ALPHA)}
        self.autotune = _AUTOTUNE_FULL if full else _AUTOTUNE_MINI
        self._references: Dict[str, np.ndarray] = {}

    # -- references (computed once, outside the timed regions) ------------
    def _fc_reference(self, label, a, b_t) -> np.ndarray:
        if label not in self._references:
            self._references[label] = (a.astype(np.int32)
                                       @ b_t.astype(np.int32).T)
        return self._references[label]

    def _tbe_reference(self, kind: str) -> np.ndarray:
        key = "tbe." + kind
        if key not in self._references:
            idx = self.indices[kind]
            t = np.arange(idx.shape[0])[:, None, None]
            rows = self.tables[t, idx].astype(np.float32)
            self._references[key] = (rows.sum(axis=2)
                                     * np.float32(self.tbe_config.scale))
        return self._references[key]

    def run(self, tracer) -> PartResult:
        from repro.autotune import space, tuner
        from repro.core import accelerator
        from repro.kernels import fc, tbe

        out = PartResult()
        stats: Dict[str, float] = {}

        def gather(acc) -> None:
            for key, value in acc.collect_stats().items():
                stats[key] = stats.get(key, 0.0) + value

        fc_cycles = 0.0
        t_fc = 0.0
        for label, a, b_t, rows, cols, k_split in self.fc_ops:
            def call():
                acc = accelerator.Accelerator()
                subgrid = (acc.subgrid((0, 0), rows, cols)
                           if rows else None)
                return acc, fc.run_fc(acc, a, b_t, subgrid=subgrid,
                                      k_split=k_split)
            done, seconds = run_op(
                out, tracer, "fc." + label, call,
                lambda r: np.array_equal(
                    r[1].c, self._fc_reference(label, a, b_t)))
            t_fc += seconds
            if done is not None:
                gather(done[0])
                fc_cycles += float(done[1].cycles)

        tbe_cycles: Dict[str, float] = {}
        gather_pct = 0.0
        t_tbe = 0.0
        for kind, idx in self.indices.items():
            def call():
                acc = accelerator.Accelerator()
                return acc, tbe.run_tbe(acc, self.tbe_config, self.tables,
                                        idx, prefetch_rows=1)
            done, seconds = run_op(
                out, tracer, "tbe." + kind, call,
                lambda r: np.array_equal(r[1].output,
                                         self._tbe_reference(kind)))
            t_tbe += seconds
            if done is not None:
                acc, result = done
                gather(acc)
                tbe_cycles[kind] = float(result.cycles)
                if kind == "uniform":
                    freq = acc.config.frequency_ghz
                    peak = acc.config.dram.bytes_per_cycle(freq) * freq
                    gather_pct = 100.0 * result.gbs(freq) / peak

        speedups = []
        t_tune = 0.0
        shapes = [space.FCShape(**self.autotune["fc"]),
                  space.TBEShape(**self.autotune["tbe"])]
        for shape in shapes:
            result, seconds = run_op(
                out, tracer, "autotune." + shape.family,
                lambda: tuner.autotune(
                    shape, seed=_AUTOTUNE_SEED,
                    budget=self.autotune["budget"],
                    topk=self.autotune["topk"], jobs=1),
                lambda r: bool(r.validated) and all(
                    math.isfinite(v.sim_cycles) and v.sim_cycles > 0
                    for v in list(r.validated) + [r.baseline]))
            t_tune += seconds
            if result is not None:
                speedups.append(result.speedup)

        out.host = {"des_fc_s": [t_fc], "des_tbe_s": [t_tbe],
                    "autotune_s": [t_tune]}
        lookups = stats.get("sram.hit_lines", 0.0) + stats.get(
            "sram.miss_lines", 0.0)
        out.modelled = {
            "des_sim_cycles": fc_cycles + sum(tbe_cycles.values()),
            "model.fc_cycles": fc_cycles,
            "model.tbe_uniform_cycles": tbe_cycles.get("uniform", 0.0),
            "model.tbe_zipf_cycles": tbe_cycles.get("zipf", 0.0),
            "model.tbe_gather_pct_dram_bw": gather_pct,
            "model.autotune_speedup": (
                math.prod(speedups) ** (1.0 / len(speedups))
                if speedups else 0.0),
            "memory.sram.hit_ratio": (stats.get("sram.hit_lines", 0.0)
                                      / lookups if lookups else 0.0),
            "memory.dram.read_bytes": stats.get("dram.read_bytes", 0.0),
            "memory.dram.accesses": stats.get("dram.accesses", 0.0),
            "noc.link_bytes": stats.get("noc.link_bytes", 0.0),
            "core.fi.busy_cycles": stats.get("fi.busy_cycles", 0.0),
            "core.fi.stall_cycles": stats.get("fi.stall_cycles", 0.0),
        }
        return out


# ---------------------------------------------------------------------------
# fleet: routed, resilient, fault-injected serving of a flash crowd
# ---------------------------------------------------------------------------

#: the SLO limit fleet_slo_attainment is measured against
SLA_US = 2_000.0
_FLEET = dict(replicas=8, racks=4, power_domains=2,
              period_us=25_000.0, route_latency_us=10.0,
              deadline_us=2 * SLA_US, max_retries=1, shed_queue_depth=512,
              rack_failure_rate=0.25, power_failure_rate=0.25,
              replica_slowdown_rate=0.0)
#: (base QPS, flash-crowd periods); the mini trace is lightly loaded and
#: carries no fault plan
_TRAFFIC_FULL = (300_000.0, 8)
_TRAFFIC_MINI = (150_000.0, 4)


def _resilience_after(report, args, kwargs, state):
    counts = report.counts_by_status()
    return {"resilience.batches": (len(report.batches), "sum"),
            "resilience.retries": (int((report.attempts - 1).sum())
                                   if report.attempts.size else 0, "sum"),
            "resilience.shed": (counts["shed"], "sum"),
            "resilience.aborted": (counts["timeout"] + counts["failed"],
                                   "sum")}


class FleetPart:
    """``simulate_fleet`` over a seeded flash-crowd arrival vector."""

    name = "fleet"
    probes = [
        Probe("repro.serving.fleet:simulate_fleet", "fleet"),
        Probe("repro.serving.fleet:route_requests_vectorised",
              "fleet.route"),
        Probe("repro.serving.resilience:simulate_serving_resilient",
              "resilience", after=_resilience_after),
        Probe("repro.serving.telemetry:ServingTelemetry.from_report",
              "telemetry"),
    ]

    def __init__(self, seed: int, full: bool) -> None:
        from dataclasses import replace

        from repro.eval.machines import MACHINES
        from repro.faults import FaultPlan
        from repro.faults.plan import generate_fleet_plan
        from repro.models.configs import MODEL_ZOO
        from repro.serving import fleet, telemetry  # noqa: F401
        from repro.serving.resilience import ResilienceConfig
        from repro.serving.simulator import BatchLatencyModel
        from repro.serving.traffic import Burst, trace_preset

        c = _FLEET
        self.latency_model = BatchLatencyModel(MODEL_ZOO["LC2"],
                                               MACHINES["mtia"])
        specs = fleet.uniform_fleet(c["replicas"], racks=c["racks"],
                                    power_domains=c["power_domains"])
        rng = _rng(seed, "fleet")
        # The flash_crowd shape (rising diurnal shoulder, a 2x and a 3x
        # burst) compressed into each period and repeated, so one trace
        # pools several independent fault draws.
        base_qps, periods = _TRAFFIC_FULL if full else _TRAFFIC_MINI
        period = c["period_us"]
        shape = trace_preset("flash_crowd")
        squeeze = period / shape.duration_us
        bursts = tuple(
            Burst(start_us=p * period + b.start_us * squeeze,
                  duration_us=b.duration_us * squeeze,
                  magnitude=b.magnitude)
            for p in range(periods) for b in shape.bursts)
        trace = replace(shape, duration_us=periods * period,
                        day_us=shape.day_us * squeeze * periods,
                        window_us=period / 100, bursts=bursts
                        ).scaled_to(base_qps)
        self.arrivals = trace.arrivals(_int_seed(rng))
        events = []
        if full:
            for p in range(periods):
                plan = generate_fleet_plan(
                    _int_seed(rng), specs, horizon_us=period,
                    rack_failure_rate=c["rack_failure_rate"],
                    power_failure_rate=c["power_failure_rate"],
                    replica_slowdown_rate=c["replica_slowdown_rate"])
                events.extend(replace(e, start=e.start + p * period)
                              for e in plan.events)
        self.fault_plan = FaultPlan(events=tuple(events), seed=seed)
        self.config = fleet.FleetConfig(
            replicas=specs,
            router=fleet.RouterConfig(policy="power_of_two",
                                      route_latency_us=c["route_latency_us"],
                                      seed=_int_seed(rng)),
            resilience=ResilienceConfig(
                deadline_us=c["deadline_us"], max_retries=c["max_retries"],
                shed_queue_depth=c["shed_queue_depth"]),
            racks=c["racks"], power_domains=c["power_domains"], seed=seed)

    def run(self, tracer) -> PartResult:
        from repro.serving import fleet

        out = PartResult()
        n = int(self.arrivals.size)
        t0 = time.perf_counter()
        with tracer.span("op.fleet", new_op=True):
            try:
                report = fleet.simulate_fleet(
                    self.latency_model, self.arrivals, self.config,
                    fault_plan=self.fault_plan, jobs=1,
                    collect_telemetry=True)
            except Exception:
                traceback.print_exc()
                report = None
        out.op_s = time.perf_counter() - t0
        out.host = {"fleet_s": [out.op_s]}
        out.modelled = {"fleet_requests": float(n)}
        # one op per simulated request: a request fails when its phases
        # do not add up to its latency (all fail if the call raised or
        # the report does not conserve requests)
        out.attempted = n
        if report is None or not report.conservation()["conserved"]:
            out.failed = n
            return out
        phases = (report.queue_wait_us + report.batch_wait_us
                  + report.retry_overhead_us + report.route_overhead_us
                  + report.hedge_wait_us + report.execute_us)
        out.failed = int(np.count_nonzero(
            ~np.isclose(phases, report.latencies_us, rtol=0.0, atol=1e-6)))

        served = report.served_mask
        within = served & (report.latencies_us <= SLA_US)
        out.modelled.update({
            "fleet_p99_us": report.p99_us,
            "fleet_slo_attainment": float(np.count_nonzero(within)) / n,
            "model.fleet_p50_us": report.p50_us,
            "model.fleet_availability": report.availability,
            "model.queue_wait_us_mean":
                report.breakdown_means()["queue_wait"],
            "fleet.hedged": float(report.hedged_requests),
            "traffic.requests": float(n),
            "faults.events": float(len(self.fault_plan.events)),
        })
        return out


# ---------------------------------------------------------------------------
# compile: zoo latency tables and functional graph execution
# ---------------------------------------------------------------------------

_ZOO_FULL = ("LC1", "LC2", "MC1", "MC2", "HC")
_ZOO_MINI = ("LC2",)
_EXEC_FULL = ("LC1", "MC1")
_EXEC_MINI = ("LC2",)
_EXEC_BATCH = 64
#: cold + edited executions per run() call, each with a fresh cache, so
#: the short graph_exec_s gets several samples per iteration
_EXEC_REPS_FULL = 3
#: embedding indices are drawn from the first rows of each (zero-filled,
#: lazily allocated) table so a lookup touches few memory pages
_HOT_ROWS = 1024


def _fuse_after(result, args, kwargs, state):
    report = result[1]
    return {"compiler.nodes_fused": (report.eb_merged
                                     + report.epilogues_fused
                                     + report.cse_merged, "sum")}


class CompilePart:
    """Per-batch latency tables for the zoo, then cached graph execution."""

    name = "compile"
    probes = [
        Probe("repro.models.dlrm:build_dlrm_graph", "models.build",
              after=lambda r, a, k, s: {"models.nodes": (len(r), "sum")}),
        Probe("repro.compiler.fusion:fuse_graph", "compiler.fuse",
              after=_fuse_after),
        Probe("repro.compiler.placement:place_tensors", "compiler.place"),
        Probe("repro.eval.opmodel:estimate_graph", "opmodel.estimate",
              after=lambda r, a, k, s: {
                  "opmodel.ops": (len(r.estimates), "sum")}),
        Probe("repro.runtime.executor:GraphExecutor.run", "executor"),
    ]

    def __init__(self, seed: int, full: bool) -> None:
        from repro.conformance import golden  # noqa: F401
        from repro.eval.machines import MACHINES
        from repro.models.configs import MODEL_ZOO
        from repro.models.dlrm import build_dlrm_graph
        from repro.runtime import executor  # noqa: F401
        from repro.serving import simulator  # noqa: F401
        from repro.simcache import graph  # noqa: F401

        self.machine = MACHINES["mtia"]
        self.exec_reps = _EXEC_REPS_FULL if full else 1
        self.zoo = [(name, MODEL_ZOO[name])
                    for name in (_ZOO_FULL if full else _ZOO_MINI)]
        rng = _rng(seed, "compile.batches")
        # nine candidate batches: a power-of-two ladder, each rung jittered
        # by at most 15% so rungs stay distinct
        self.batches = tuple(max(1, round(2 ** i * rng.uniform(0.85, 1.15)))
                             for i in range(9))
        self.graphs = []
        for name in (_EXEC_FULL if full else _EXEC_MINI):
            graph = build_dlrm_graph(MODEL_ZOO[name], _EXEC_BATCH)
            rng = _rng(seed, "compile.feeds." + name)
            feeds, weights = {}, {}
            fc_weights = {i for node in graph if node.op == "fc"
                          for i in node.inputs}
            for node in graph:
                dtype = node.meta.dtype.numpy_dtype
                if node.op == "input":
                    if np.issubdtype(dtype, np.integer):
                        feeds[node.name] = rng.integers(
                            0, _HOT_ROWS, node.meta.shape).astype(dtype)
                    else:
                        feeds[node.name] = rng.standard_normal(
                            node.meta.shape).astype(dtype)
                elif node.op == "weight" and node.name in fc_weights:
                    weights[node.name] = rng.integers(
                        -1, 2, node.meta.shape).astype(dtype)
            indices = sorted(k for k, v in feeds.items()
                             if np.issubdtype(v.dtype, np.integer))
            edited = dict(feeds)
            target = indices[int(rng.integers(len(indices)))]
            edited[target] = rng.integers(
                0, _HOT_ROWS, feeds[target].shape).astype(
                    feeds[target].dtype)
            self.graphs.append((name, graph, feeds, edited, weights))
        self._expected: Dict[str, List[np.ndarray]] = {}

    def _reference(self, name, graph, feeds, edited, weights):
        """Golden outputs for the cold and edited feeds, plus the edited
        feeds re-run without a cache (a hit must be bit-identical)."""
        from repro.conformance.golden import evaluate_graph
        from repro.runtime.executor import GraphExecutor

        g = graph.copy()
        uncached, _ = GraphExecutor(self.machine, mode="graph",
                                    op_cache=False).run(g, edited, weights)
        return {"cold": evaluate_graph(graph, feeds, weights),
                "edited": evaluate_graph(graph, edited, weights),
                "uncached": [uncached[o] for o in g.outputs]}

    def _outputs_ok(self, name, graph, feeds, edited, weights,
                    run_graphs, outputs) -> bool:
        from repro.conformance.golden import compare_outputs

        if name not in self._expected:
            ref = self._reference(name, graph, feeds, edited, weights)
            for kind, g, out in zip(("cold", "edited"), run_graphs,
                                    outputs):
                if compare_outputs(out, ref[kind], actual_names=g.outputs,
                                   expected_names=graph.outputs):
                    return False
            edited_out = [outputs[1][o] for o in run_graphs[1].outputs]
            if not all(np.array_equal(a, b) for a, b in
                       zip(edited_out, ref["uncached"])):
                return False
            self._expected[name] = [
                outputs[i][o] for i in (0, 1) for o in run_graphs[i].outputs]
            return True
        # later iterations must repeat the first bit for bit
        got = [outputs[i][o] for i in (0, 1) for o in run_graphs[i].outputs]
        return all(np.array_equal(a, b)
                   for a, b in zip(got, self._expected[name]))

    def run(self, tracer) -> PartResult:
        from repro.runtime import executor
        from repro.serving import simulator
        from repro.simcache import graph as graph_cache

        out = PartResult()
        log_latency = []
        t_tables = 0.0
        for name, config in self.zoo:
            table, seconds = run_op(
                out, tracer, "table." + name,
                lambda: simulator.BatchLatencyModel(
                    config, self.machine, candidate_batches=self.batches),
                lambda t: len(t.latency_us) == len(self.batches) and all(
                    math.isfinite(v) and v > 0
                    for v in t.latency_us.values()))
            t_tables += seconds
            if table is not None:
                log_latency.extend(math.log(v)
                                   for v in table.latency_us.values())

        t_exec = []
        hits = lookups = 0
        for _ in range(self.exec_reps):
            t_exec.append(0.0)
            for name, graph, feeds, edited, weights in self.graphs:
                run_graphs = (graph.copy(), graph.copy())
                cache = graph_cache.GraphOpCache()

                def call():
                    return [executor.GraphExecutor(
                                self.machine, mode="graph", op_cache=cache
                            ).run(g, f, weights)[0]
                            for g, f in zip(run_graphs, (feeds, edited))]
                _, seconds = run_op(
                    out, tracer, "exec." + name, call,
                    lambda outs: self._outputs_ok(name, graph, feeds, edited,
                                                  weights, run_graphs, outs))
                t_exec[-1] += seconds
                hits += cache.hits
                lookups += cache.hits + cache.misses

        out.host = {"latency_tables_s": [t_tables], "graph_exec_s": t_exec}
        out.modelled = {
            "zoo_latency_us": (math.exp(sum(log_latency) / len(log_latency))
                               if log_latency else 0.0),
            "simcache.graph.hits": float(hits),
            "simcache.graph.hit_ratio": hits / lookups if lookups else 0.0,
        }
        return out


PARTS = {"des": DesPart, "fleet": FleetPart, "compile": CompilePart}
