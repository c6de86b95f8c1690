"""One benchmark run of the simulator; ``run.py`` starts it in a fresh interpreter.

Usage (through the launcher)::

    python3 simbench/run.py --workload testbed-lpl --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

- ``testbed-lpl``: the paper's 40-node indoor testbed, TeleAdjusting under
  duty-cycled LPL, channels 26 and 19, the ``run_comparison`` schedule.
- ``city-forest``: a 1,000-node ``forest`` deployment on the spatial
  channel, always-on radios, the ``scale_point`` schedule.
- ``chaos-grid``: four ``run_chaos`` cells through ``ParallelRunner`` with
  two workers, a fresh ``ResultCache`` and a journal, then a warm pass.

The network seed is fixed (``NETWORK_SEED``); ``--seed`` draws the control
destinations (testbed, city) and the warm pass's submission order (chaos).
One operation is one simulation cell. Host times are process CPU times,
except ``grid_wall_s``.

Output: one JSON line with the model outputs, the machine and the check
failures, then the result line ``{"correct", "attempted", "failed",
"metrics"}`` (end-to-end metrics, or per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.experiments.comparison import COMPARISON_DEFAULTS, config_for
from repro.experiments.harness import Network
from repro.experiments.scale import SCALE_DEFAULTS, scale_config, scale_state_digest
from repro.radio.spatial import get_numpy
from repro.runner import ParallelRunner, ResultCache, chaos_spec, execute_spec

import checks
import layers

#: Every network is built from this seed (the seed the golden corpus and
#: the paper-reproduction tables use), so the converged state is the same
#: on every run and its digest can be pinned.
NETWORK_SEED = 1
WORKLOADS = ("testbed-lpl", "city-forest", "chaos-grid")
#: Builds per cell for ``setup_s`` in a run's first round (the median is
#: reported); later rounds build each network once.
SETUP_REPEATS = {"testbed-lpl": 5, "city-forest": 3, "chaos-grid": 5}
#: Fresh interpreters started per run to time start-up plus imports.
IMPORT_REPEATS = 5
TESTBED_CHANNELS = (26, 19)
#: Each in-process workload's schedule (converge, controls, drain) and the
#: share of nodes its converge phase must cover: ``run_comparison``'s and
#: ``scale_point``'s.
SCHEDULES = {"testbed-lpl": COMPARISON_DEFAULTS, "city-forest": SCALE_DEFAULTS}
TARGETS = {"testbed-lpl": 0.97, "city-forest": 0.95}
CITY_SIZE = 1000
CHAOS_CELLS = (("tele", 0.5), ("tele", 1.0), ("re-tele", 0.5), ("re-tele", 1.0))
CHAOS_CONTROLS = 12
CHAOS_WORKERS = 2
#: A run stops starting rounds once this much wall time has gone, so it
#: exits well inside the launcher's timeout whatever ``--seconds`` says.
ROUND_WALL_LIMIT_S = 100.0


class Clock:
    """Accumulates process CPU and wall time over measured stretches, and,
    when a tracer is given, the layer self time recorded inside them."""

    def __init__(self, tracer: Optional[layers.LayerTracer] = None) -> None:
        self.cpu = 0.0
        self.wall = 0.0
        self.traced_self = 0.0
        self.tracer = tracer

    def measure(self, work: Callable[[], Any]) -> Any:
        tracer = self.tracer
        traced = tracer.total_self_ns() if tracer is not None else 0
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            return work()
        finally:
            self.cpu += time.process_time() - cpu
            self.wall += time.perf_counter() - wall
            if tracer is not None:
                self.traced_self += (tracer.total_self_ns() - traced) / 1e9


class Round:
    """What one round of a workload measured and checked."""

    def __init__(self, tracer: Optional[layers.LayerTracer]) -> None:
        self.setup_cpu: List[float] = []
        self.sim = Clock(tracer)
        self.events = 0
        self.cells = 0
        self.failed = 0
        self.problems: List[str] = []
        self.errors: List[str] = []
        self.model: Dict[str, Any] = {}
        self.extra: Dict[str, float] = {}

    def book(self, cell: str, problems: List[str], errors: List[str] = ()) -> None:
        """Book one cell's outcome. A cell with ``problems`` (failed output
        checks: the output is wrong) or ``errors`` (it raised, timed out or
        did not converge) is one failed operation."""
        self.cells += 1
        if problems or errors:
            self.failed += 1
        self.problems += [f"{cell}: {p}" for p in problems]
        self.errors += [f"{cell}: {e}" for e in errors]


def _median_build(repeats: int, build: Callable[[], Any]) -> Tuple[float, Any]:
    """Build ``repeats`` times; return the median CPU time and the last build."""
    times = []
    built = None
    for _ in range(repeats):
        built = None
        gc.collect()
        started = time.process_time()
        built = build()
        times.append(time.process_time() - started)
    return statistics.median(times), built


def _import_cpu(repeats: int) -> float:
    """Median CPU time for a fresh interpreter to start and import this module."""
    here = os.path.dirname(os.path.abspath(__file__))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", "import time, bench; print(time.process_time())"],
            cwd=here,
            capture_output=True,
            text=True,
            check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def testbed_network(channel: int) -> Network:
    """A testbed cell's network: TeleAdjusting on ``channel`` at the network seed."""
    return Network(config_for("tele", channel, NETWORK_SEED))


def city_network() -> Network:
    """The city cell's network: the ``forest`` deployment at the network seed."""
    return Network(scale_config("forest", CITY_SIZE, NETWORK_SEED))


def converge_and_digest(net: Network, workload: str, clock: Optional[Clock] = None) -> Tuple[bool, str]:
    """Converge a cell's network as every round of ``workload`` does, timed
    on ``clock`` if given, and digest the converged state (the value
    ``digests.json`` pins)."""
    def converge() -> bool:
        return net.converge(max_seconds=SCHEDULES[workload]["converge_seconds"], target=TARGETS[workload])

    converged = clock.measure(converge) if clock is not None else converge()
    return converged, scale_state_digest(net)


def _schedule_controls(net: Network, destinations: List[int], interval_s: float) -> None:
    """Send one control to each destination, ``interval_s`` apart, from 1 s on."""
    sim = net.sim
    start = sim.now + 1_000_000
    interval = round(interval_s * 1_000_000)

    def send(index: int, destination: int) -> None:
        net.send_control(destination, payload={"index": index})

    for index, destination in enumerate(destinations):
        sim.schedule_at(start + index * interval, send, index, destination)


def _simulate_cell(
    round_: Round,
    workload: str,
    name: str,
    net: Network,
    rng: random.Random,
    counter: checks.ControlFrameCounter,
    pinned: Optional[str],
    tracer: Optional[layers.LayerTracer],
) -> None:
    """Converge, check the converged state, run the control schedule, check.

    A cell that raises counts as a failed operation.
    """
    try:
        problems, errors = _converge_and_control(round_, workload, name, net, rng, counter, pinned)
    except Exception as exc:  # the cell failed; the round goes on
        problems, errors = [], [f"raised {exc!r}"]
    round_.book(name, problems, errors)
    if tracer is not None:
        tracer.harvest(net)


def _converge_and_control(
    round_: Round,
    workload: str,
    name: str,
    net: Network,
    rng: random.Random,
    counter: checks.ControlFrameCounter,
    pinned: Optional[str],
) -> Tuple[List[str], List[str]]:
    schedule = SCHEDULES[workload]
    converged, digest = converge_and_digest(net, workload, round_.sim)
    errors = [] if converged else [
        f"did not converge: {net.coded_fraction():.3f} of nodes coded after "
        f"{schedule['converge_seconds']:g} s, target {TARGETS[workload]}"
    ]
    problems: List[str] = []
    problems += checks.check_digest(name, digest, pinned)
    problems += checks.check_parent_chains(net)
    problems += checks.check_path_codes(net)
    code_bits = checks.mean_code_bits(net)
    n_controls = schedule["n_controls"]
    destinations = [rng.choice(net.non_sink_nodes()) for _ in range(n_controls)]
    net.metrics.mark()
    counter.arm()
    _schedule_controls(net, destinations, schedule["control_interval_s"])
    round_.sim.measure(
        lambda: net.run(n_controls * schedule["control_interval_s"] + schedule["drain_seconds"])
    )
    counted = counter.disarm()
    records = net.control_metrics.records
    problems += checks.check_records(records, n_controls)
    problems += checks.check_tx_count(counted, net.metrics.control_tx_since_mark())
    round_.events += net.sim.events_executed
    latency = net.control_metrics.mean_latency()
    duty = net.metrics.mean_duty_cycle()
    round_.model[name] = {
        "pdr": net.control_metrics.pdr(),
        "control_latency_s": latency,
        "tx_per_control": net.metrics.tx_per_control_packet(len(records)),
        "duty_cycle_pct": None if duty is None else 100.0 * duty,
        "path_code_bits": code_bits,
        "destinations": destinations,
    }
    return problems, errors


def _testbed_round(
    seed: int,
    builds: int,
    counter: checks.ControlFrameCounter,
    pinned: Dict[str, str],
    tracer: Optional[layers.LayerTracer],
) -> Round:
    round_ = Round(tracer)
    for channel in TESTBED_CHANNELS:
        name = f"ch{channel}"
        build_cpu, net = _median_build(builds, lambda: testbed_network(channel))
        round_.setup_cpu.append(build_cpu)
        rng = random.Random(f"testbed-lpl:{seed}:{name}")
        _simulate_cell(round_, "testbed-lpl", name, net, rng, counter, pinned.get(name), tracer)
        del net
    return round_


def _city_round(
    seed: int,
    builds: int,
    counter: checks.ControlFrameCounter,
    pinned: Dict[str, str],
    tracer: Optional[layers.LayerTracer],
) -> Round:
    round_ = Round(tracer)
    name = f"forest-{CITY_SIZE}"
    build_cpu, net = _median_build(builds, city_network)
    round_.setup_cpu.append(build_cpu)
    rng = random.Random(f"city-forest:{seed}:{name}")
    _simulate_cell(round_, "city-forest", name, net, rng, counter, pinned.get(name), tracer)
    return round_


def chaos_specs() -> List[Any]:
    """The four chaos cells, in canonical order."""
    return [
        chaos_spec(variant, scenario="mixed", intensity=intensity, seed=NETWORK_SEED, n_controls=CHAOS_CONTROLS)
        for variant, intensity in CHAOS_CELLS
    ]


def _reap_children() -> None:
    """Wait for every child process (pool workers) so its CPU is counted."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _chaos_round(
    seed: int,
    builds: int,
    workdir: str,
    pinned: Dict[str, str],
    tracer: Optional[layers.LayerTracer],
) -> Round:
    round_ = Round(tracer)

    def build() -> List[Any]:
        specs = chaos_specs()
        for spec in specs:
            spec.fingerprint  # noqa: B018 - fingerprinting is part of set-up
        return specs

    build_cpu, specs = _median_build(builds, build)
    round_.setup_cpu.append(build_cpu)
    cache = ResultCache(os.path.join(workdir, "cache"))
    journal = os.path.join(workdir, "journal")
    labels = {spec.fingerprint: spec.label for spec in specs}

    # The grid's CPU time: this process's, which the clock measures, plus
    # that of the pool workers it reaped.
    children_before = _children_cpu()
    runner = ParallelRunner(jobs=CHAOS_WORKERS, cache=cache, journal_dir=journal)
    outcomes = round_.sim.measure(lambda: runner.run(specs))
    _reap_children()
    round_.sim.cpu += _children_cpu() - children_before
    cold: Dict[str, Dict[str, Any]] = {}
    for outcome in outcomes:
        if outcome.result is None or outcome.status != "executed":
            round_.book(outcome.spec.label, [], [f"status {outcome.status}: {outcome.error}"])
            continue
        cold[outcome.spec.fingerprint] = outcome.result
        round_.events += outcome.result["events_executed"]

    # Warm pass: the same grid, resubmitted in a seed-drawn order.
    order = list(specs)
    random.Random(f"chaos-grid:{seed}").shuffle(order)
    warm_started = time.perf_counter()
    warm_runner = ParallelRunner(jobs=CHAOS_WORKERS, cache=cache, journal_dir=journal)
    warm_outcomes = warm_runner.run(order)
    round_.extra["warm_s"] = time.perf_counter() - warm_started
    warm = {o.spec.fingerprint: o.result for o in warm_outcomes if o.status == "cached"}
    found = checks.check_chaos_results(cold, warm, pinned, labels, CHAOS_CONTROLS)

    if tracer is not None:
        report = runner.last_report
        cell_s = sum(o.wall_s for o in outcomes)
        round_.extra["cell_s"] = cell_s
        round_.extra["idle_s"] = CHAOS_WORKERS * report.wall_s - cell_s
        round_.extra.update(_traced_chaos_cells(specs, cold, found, tracer))
    for fingerprint, (problems, errors) in found.items():
        round_.book(labels[fingerprint], problems, errors)

    for fingerprint, result in cold.items():
        recovery = result["recovery"]
        round_.model[labels[fingerprint]] = {
            "pdr": result["pdr"],
            "control_latency_s": result["mean_latency_s"],
            "recovery_latency_s": recovery["mean_recovery_latency_s"],
            "backtracks": recovery["backtracks"],
            "re_tele_invocations": recovery["re_tele_invocations"],
            "feedback_packets": recovery["feedback_packets"],
        }
    return round_


def _traced_chaos_cells(
    specs: List[Any],
    cold: Dict[str, Dict[str, Any]],
    found: Dict[str, Tuple[List[str], List[str]]],
    tracer: layers.LayerTracer,
) -> Dict[str, float]:
    """Run the chaos cells again in-process, where the wrappers reach them.

    Each traced result must equal the worker's result field for field.
    """
    clock = Clock(tracer)
    for spec in specs:
        result = clock.measure(lambda: execute_spec(spec))
        if spec.fingerprint in found and cold[spec.fingerprint] != result:
            found[spec.fingerprint][0].append("traced in-process result differs from the worker's")
    return {"traced_cpu_s": clock.cpu, "traced_wall_s": clock.wall, "traced_self_s": clock.traced_self}


def _machine() -> Dict[str, Any]:
    numpy = get_numpy()
    return {
        "python": sys.version.split()[0],
        "numpy": getattr(numpy, "__version__", None),
        "numpy_fast_path": numpy is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "repro": __version__,
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(rounds: List[Round], import_cpu: float, peak_rss_mb: float) -> Dict[str, Any]:
    """Medians over rounds of every end-to-end metric; set-up from the first
    round, the one that builds each network several times."""
    median = statistics.median
    return {
        "setup_s": _metric(import_cpu + sum(rounds[0].setup_cpu), "s"),
        "sim_cpu_s": _metric(median([r.sim.cpu for r in rounds]), "s"),
        "events_per_s": _metric(median([r.events / r.sim.cpu for r in rounds]), "events/s"),
        "grid_wall_s": _metric(median([r.sim.wall for r in rounds]), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def per_layer(round_: Round, tracer: layers.LayerTracer) -> Dict[str, Any]:
    """Per-layer metrics of one traced round."""
    def s(ns: float) -> float:
        return ns / 1e9

    calls, incl = tracer.calls, tracer.incl_ns
    out: Dict[str, Any] = {}
    total_events = sum(tracer.events.values())
    out["sim.events"] = _metric(total_events, "count")
    out["sim.cancelled_ratio"] = _metric(tracer.cancelled / max(tracer.scheduled, 1), "ratio")
    out["sim.self_s"] = _metric(s(tracer.self_ns["sim"] + tracer.self_ns["sim.loop"]), "s")
    out["sim.loop_s"] = _metric(s(tracer.self_ns["sim.loop"]), "s")
    for layer in layers.SELF_LAYERS:
        out[f"{layer}.self_s"] = _metric(s(tracer.self_ns[layer]), "s")
    for layer in layers.EVENT_LAYERS:
        out[f"{layer}.events"] = _metric(tracer.events[layer], "count")
    transmissions = calls["Channel.start_transmission"]
    deliveries = calls["Radio.deliver"]
    out["radio.transmissions"] = _metric(transmissions, "count")
    out["radio.us_per_tx"] = _metric(1e6 * s(tracer.self_ns["radio"]) / max(transmissions, 1), "us")
    out["radio.fanout"] = _metric(tracer.fanout, "count")
    out["radio.deliveries"] = _metric(deliveries, "count")
    out["radio.useful_ratio"] = _metric(deliveries / max(tracer.fanout, 1), "ratio")
    out["radio.link_fault_updates"] = _metric(calls["Channel.set_link_fault"], "count")
    out["radio.noise.samples"] = _metric(calls["CPMNoiseModel.sample"], "count")
    out["radio.spatial.build_s"] = _metric(
        s(incl["SpatialChannel.__init__"] + incl["Channel._build_audible_from_spatial"]), "s"
    )
    out["topology.build_s"] = _metric(
        s(sum(v for k, v in incl.items() if k.startswith("topology.")) + incl["Deployment.gains"]), "s"
    )
    counters = tracer.net_counters
    out["mac.trains"] = _metric(counters["trains"], "count")
    out["mac.copies"] = _metric(counters["copies"], "count")
    out["mac.copies_per_train"] = _metric(counters["copies"] / max(counters["trains"], 1), "ratio")
    beacons = calls["CtpRouting.beacon_received"]
    out["net.beacons_received"] = _metric(beacons, "count")
    out["net.us_per_beacon"] = _metric(1e6 * s(incl["CtpRouting.beacon_received"]) / max(beacons, 1), "us")
    athx = counters["athx"]
    out["core.athx_mean"] = _metric(sum(athx) / len(athx) if athx else 0.0, "tx")
    out["core.backtracks"] = _metric(counters["backtracks"], "count")
    out["core.re_tele"] = _metric(counters["re_tele"], "count")
    out["core.feedback_packets"] = _metric(counters["feedback"], "count")
    extra = round_.extra
    out["runner.fingerprint_s"] = _metric(s(incl["TaskSpec.fingerprint"]), "s")
    out["runner.cell_s"] = _metric(extra.get("cell_s", 0.0), "s")
    out["runner.idle_s"] = _metric(extra.get("idle_s", 0.0), "s")
    out["runner.cache_store_s"] = _metric(s(incl["ResultCache.store"]), "s")
    out["runner.cache_load_s"] = _metric(s(incl["ResultCache.load"]), "s")
    out["runner.journal_s"] = _metric(s(incl["RunJournal.record"]), "s")
    out["runner.warm_s"] = _metric(extra.get("warm_s", 0.0), "s")
    # Reconcile the span clock with the process CPU clock over the same
    # stretch: the sum of every layer's self time (wall time inside spans)
    # against the CPU time the process spent there.
    traced = round_.sim
    traced_cpu = extra.get("traced_cpu_s", traced.cpu)
    traced_self = extra.get("traced_self_s", traced.traced_self)
    out["trace.total_s"] = _metric(extra.get("traced_wall_s", traced.wall), "s")
    out["trace.sim_cpu_s"] = _metric(traced_cpu, "s")
    out["trace.coverage"] = _metric(traced_self / traced_cpu if traced_cpu else 0.0, "ratio")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run whole rounds of ``workload`` until they have taken ``seconds``.

    A round's time is its wall time from the first build to the last
    check, so with ``run_seconds`` 20 the light workloads (testbed, chaos:
    about 14 s a round here) make two rounds and the city (about 27 s) one.
    """
    import_cpu = 0.0 if trace else _import_cpu(IMPORT_REPEATS)
    pinned = checks.load_digests()[workload]
    counter = checks.ControlFrameCounter()
    counter.install()
    tracer: Optional[layers.LayerTracer] = None
    if trace:
        tracer = layers.LayerTracer()
        tracer.install()
    rounds: List[Round] = []
    started = time.perf_counter()
    attempted = failed = 0
    measured = 0.0
    while True:
        round_started = time.perf_counter()
        builds = 1 if rounds else SETUP_REPEATS[workload]
        workdir = tempfile.mkdtemp(prefix=f"simbench-{workload}-")
        try:
            if workload == "testbed-lpl":
                round_ = _testbed_round(seed, builds, counter, pinned, tracer)
            elif workload == "city-forest":
                round_ = _city_round(seed, builds, counter, pinned, tracer)
            else:
                round_ = _chaos_round(seed, builds, workdir, pinned, tracer)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if not rounds:
            # Peak resident set over the first round: later rounds reuse
            # memory the allocator may or may not have returned.
            peak_kb = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            )
        rounds.append(round_)
        attempted += round_.cells
        failed += round_.failed
        measured += time.perf_counter() - round_started
        if trace or measured >= seconds or time.perf_counter() - started > ROUND_WALL_LIMIT_S:
            break
    problems = [p for r in rounds for p in r.problems]
    errors = [e for r in rounds for e in r.errors]
    print(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "rounds": len(rounds),
                "network_seed": NETWORK_SEED,
                "machine": _machine(),
                "problems": problems,
                "errors": errors,
                "model": rounds[0].model,
            },
            sort_keys=True,
        )
    )
    if tracer is not None:
        metrics = per_layer(rounds[0], tracer)
    else:
        metrics = end_to_end(rounds, import_cpu, peak_kb / 1024.0)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # the run is unusable: report and exit non-zero
        traceback.print_exc()
        return 1
    finally:
        _stop_resource_tracker()
    print(json.dumps(result, sort_keys=True))
    return 0


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker if the pool started one."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
