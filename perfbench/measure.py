"""One measured run of a workload: untraced (end-to-end metrics) or traced
(per-layer metrics).

The untraced run times set-ups, then the lattice solve (lattice-6s) and the
closed-loop episodes until ``seconds`` have passed and ``min_steps`` steps
are done. Set-ups are timed between batches, so they span the run; step
latency is summarized per window of consecutive steps.

The 2-vCPU machine this benchmark was built on runs a fixed loop at speeds
up to 1.9x apart as other tenants come and go, in bursts of under a second
and in spells of minutes; the spells moved run medians by a quarter from one
run to the next. So the untraced run also times a calibration loop, the
benchmark's own code that never changes with the package, before every
CALIBRATE_EVERY-th decision (workloads.py), and scales every timing by
CALIBRATION_REF_S over the loop's mean time in that run. A change to the
package moves the scaled figures in full; the machine's speed mostly does
not. A median of samples drawn at two speeds jumps from one to the other as
the share of time at each passes a half, where a mean follows that share
smoothly, as the loop's mean does; so step latency is the mean over the
run's windows of their median. The measured figures are printed beside the
scaled ones. Two figures are printed but are not metrics, because no
summary of them repeated from run to run here: the lattice solve's time
(one call of tens of seconds; the traced run reports it per layer) and the
p99 step latency (its windows' p99s follow the machine's hiccups more than
the program).

The traced run wraps the package's module attributes and runs a fixed number
of episodes, so its counts repeat exactly. Each traced batch is replayed
untraced right after it: the replay gives ``trace.overhead_frac`` and must
reproduce every trace digest, which shows tracing does not change outputs.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from covertmdp import augmented, belief, mdp, models, sim

import workloads
from tracer import MODULES, Tracer

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

# A belief with more than WIDE_MASS on at least WIDE_SUPPORT states makes a
# planner decision expensive on the gridworld (the approach phase). Exact
# support does not tell them apart: the truncated sensor leaves more than
# ten states with positive belief at every step.
WIDE_SUPPORT = 10
WIDE_MASS = 1e-6

# Set-ups timed after every batch of episodes, and before the first. Timings
# are scaled to the speed at which the calibration loop takes
# CALIBRATION_REF_S, about its mean on the machine this benchmark was built
# on.
SETUPS_PER_BATCH = 4
CALIBRATION_REF_S = 1e-3


PER_LAYER_UNITS = {
    "rho.plan.calls": "count",
    "rho.plan.self_s": "s",
    "rho.plan.p50_us": "us",
    "rho.plan.p99_us": "us",
    "rho.plan.sequences_scored": "count",
    "rho.plan.admissible_frac": "fraction",
    "rho.plan.wide_belief_frac": "fraction",
    "rho.plan.wide_belief_time_share": "fraction",
    "augmented.solve.s": "s",
    "augmented.solve.compile_s": "s",
    "augmented.solve.sweep_ms": "ms",
    "augmented.solve.sweeps": "count",
    "augmented.interpolation_weights.calls": "count",
    "augmented.interpolation_weights.self_s": "s",
    "augmented.greedy_action.calls": "count",
    "augmented.greedy_action.p50_us": "us",
    "belief.admissible_actions.calls": "count",
    "belief.admissible_actions.self_s": "s",
    "belief.admissible_actions.p50_us": "us",
    "belief.bayes_update.calls": "count",
    "belief.bayes_update.self_s": "s",
    "belief.bayes_update.p50_us": "us",
    "sim.step.self_s": "s",
    "sim.run_closed_loop.self_s": "s",
    "sim.write.self_s": "s",
    "sim.write.bytes": "bytes",
    "sim.belief_support.mean": "states",
    "mdp.nominal_value_iteration.s": "s",
    "mdp.nominal_value_iteration.iterations": "count",
    "mdp.load.s": "s",
    "models.build.s": "s",
    **{f"{module}.share": "fraction" for module in MODULES},
    "trace.overhead_frac": "fraction",
    "trace.unwrapped_share": "fraction",
    "trace.wall_s": "s",
}


@dataclass
class Reference:
    """Recorded outputs for one (workload, seed); empty when none exist."""

    digests: dict[int, str] = field(default_factory=dict)
    values: np.ndarray | None = None


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, float]
    samples: dict[str, str]  # what each median or percentile is taken over
    digests: dict[int, str]
    series: dict[str, list[float]] = field(default_factory=dict)  # raw samples
    info: dict[str, float] = field(default_factory=dict)  # printed, not metrics


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile_us(durations: np.ndarray, q: float) -> float:
    return float(np.percentile(durations, q)) * 1e6 if durations.size else 0.0


class _SetupTimer:
    """Times SETUPS_PER_BATCH set-ups per call. The untraced run calls it
    before the episodes and after every batch, so its samples span the
    whole run."""

    def __init__(self, wl, inputs):
        self.wl = wl
        self.inputs = inputs
        self.setup_s: list[float] = []

    def __call__(self, _batch_digests=None):
        for _ in range(SETUPS_PER_BATCH):
            t0 = time.perf_counter()
            scn, _, _ = workloads.setup(self.wl, self.inputs)
            self.setup_s.append(time.perf_counter() - t0)
        return scn


def run_untraced(
    wl, seed: int, seconds: float, ref: Reference, workdir: Path
) -> Result:
    timer = _SetupTimer(wl, workloads.write_inputs(wl, seed, workdir))
    scn = timer()
    calibration: list[float] = []
    attempted = failed = 0
    solve_s = None
    start = time.perf_counter()  # the solve counts toward ``seconds``
    if wl.controller == "grid-vi":
        solved = workloads.solve_lattice(wl, scn)
        solve_s = time.perf_counter() - start
        attempted += 1
        failed += not workloads.check_solve(solved, ref.values)
        scn.controller = sim.AugmentedValueController(
            scn.model, scn.obs, scn.pa, solved.value
        )
    log = workloads.run_episodes(
        wl, scn, seed, workdir / "episodes",
        stop=lambda log, _: time.perf_counter() - start >= seconds and (
            log.steps >= wl.min_steps or log.failed == log.attempted
        ),
        reference=ref.digests,
        after_batch=timer,
        calibration=calibration,
    )
    while len(timer.setup_s) < wl.setup_repeats:
        timer()
    calibration_s = float(np.mean(calibration))
    scale = CALIBRATION_REF_S / calibration_s  # below 1 while the machine is slow
    measured = {
        "setup_s": _median(timer.setup_s),
        "steps_per_s": log.steps / log.timed_s,
        "step_ms_p50": float(np.mean(log.latency.p50)) * 1e3,
    }
    metrics = {
        "setup_s": measured["setup_s"] * scale,
        "steps_per_s": measured["steps_per_s"] / scale,
        "step_ms_p50": measured["step_ms_p50"] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    scaled = f", scaled by {scale:.4f} (mean of {len(calibration)} calibration loops)"
    samples = {
        "setup_s": f"median of {len(timer.setup_s)} set-ups" + scaled,
        "steps_per_s": f"{log.steps} steps in {log.timed_s:.1f} s" + scaled,
        "step_ms_p50": f"mean of {len(log.latency.p50)} window medians" + scaled,
    }
    info = {f"measured_{name}": value for name, value in measured.items()}
    info["measured_step_ms_p99"] = _median(log.latency.p99) * 1e3
    info["calibration_ms"] = calibration_s * 1e3
    if solve_s is not None:
        info["measured_solve_s"] = solve_s
    series = {
        "setup_s": timer.setup_s,
        "calibration_s": calibration,
        "window_step_ms_p50": [v * 1e3 for v in log.latency.p50],
        "window_step_ms_p99": [v * 1e3 for v in log.latency.p99],
    }
    return Result(
        attempted + log.attempted, failed + log.failed, metrics, samples,
        log.digests, series, info,
    )


class _PlanStats:
    """Observes each planner call: sequences scored, the most it could
    score, and how many states hold more than WIDE_MASS of the belief."""

    def __init__(self):
        self.scored = 0
        self.possible = 0
        self.support: list[int] = []

    def __call__(self, args, kwargs, result):
        model, o, config = args[0], args[5], args[6]
        self.scored += result.sequences_scored
        self.possible += model.num_actions ** config.horizon
        self.support.append(int(np.count_nonzero(np.asarray(o) > WIDE_MASS)))


def _install(tracer: Tracer, plan_stats: _PlanStats) -> None:
    """Wrap what the package resolves at call time, and the calls the
    benchmark itself makes into each module."""
    patches = [
        (sim, "plan", "rho.plan", plan_stats),
        (sim, "step", "sim.step", None),
        (sim, "admissible_actions", "belief.admissible_actions", None),
        (sim, "bayes_update", "belief.bayes_update", None),
        (sim, "greedy_action", "augmented.greedy_action", None),
        (augmented, "interpolation_weights", "augmented.interpolation_weights", None),
        (augmented, "solve_augmented_vi", "augmented.solve", None),
        (sim, "run_closed_loop", "sim.run_closed_loop", None),
        (sim, "write_trace_csv", "sim.write", None),
        (sim, "write_trace_metadata", "sim.write", None),
        (sim, "write_summary_file", "sim.write", None),
        (sim, "aggregate_runs", "sim.aggregate_runs", None),
        (sim, "RecedingHorizonController", "sim.controller", None),
        (sim, "NominalController", "sim.controller", None),
        (sim, "AugmentedValueController", "sim.controller", None),
        (models, "example1_model", "models.build", None),
        (models, "desk_gridworld", "models.build", None),
        (models, "gridworld_model", "models.build", None),
        (mdp, "load_model_file", "mdp.load", None),
        (belief, "load_observation_file", "mdp.load", None),
        (mdp, "nominal_value_iteration", "mdp.nominal_value_iteration", None),
        (mdp, "extract_nominal_policy", "mdp.extract_nominal_policy", None),
        (mdp, "induced_chain", "mdp.induced_chain", None),
        (belief, "uniform_belief", "belief.uniform_belief", None),
    ]
    for module, attr, name, observe in patches:
        tracer.patch(module, attr, name, observe)


def run_traced(
    wl, seed: int, ref: Reference, workdir: Path, spans_path: Path
) -> Result:
    inputs = workloads.write_inputs(wl, seed, workdir)
    plan_stats = _PlanStats()
    attempted = failed = 0
    solved = None
    replays: list[workloads.EpisodeLog] = []

    def replay(digests: dict[int, str]) -> None:
        """Rerun the batch just traced with tracing off, right after it, so
        the machine's drift cancels from the overhead and the replay must
        reproduce the traced digests."""
        first = min(digests)
        with tracer.suspended():
            replays.append(workloads.run_episodes(
                wl, scn, seed, workdir / "replay",
                stop=lambda log, _: log.attempted > max(digests) - first,
                reference=digests,
                first=first,
            ))

    with Tracer() as tracer:
        _install(tracer, plan_stats)
        start = time.perf_counter()
        marks = []
        for _ in range(wl.setup_repeats):
            marks.append(len(tracer))
            scn, _, iterations = workloads.setup(wl, inputs)
        marks.append(len(tracer))
        if wl.controller == "grid-vi":
            solved = workloads.solve_lattice(wl, scn)
            attempted += 1
            failed += not workloads.check_solve(solved, ref.values)
            scn.controller = sim.AugmentedValueController(
                scn.model, scn.obs, scn.pa, solved.value
            )
        log = workloads.run_episodes(
            wl, scn, seed, workdir / "traced",
            stop=lambda log, _: log.attempted >= wl.trace_episodes,
            reference=ref.digests,
            after_batch=replay,
        )
        replay_s = sum(r.wall_s for r in replays)
        wall = time.perf_counter() - start - replay_s
    spans = tracer.spans()
    spans.dump(spans_path)

    metrics: dict[str, float] = {}
    if solved is not None:
        # compile vs sweeps, split from outside: one sweep's run against the
        # full solve, both with interpolation_weights wrapped alike
        with Tracer() as split:
            split.patch(
                augmented, "interpolation_weights", "augmented.interpolation_weights"
            )
            t0 = time.perf_counter()
            workloads.solve_lattice(wl, scn, max_iter=1)
            one_s = time.perf_counter() - t0
        full_s = float(spans.duration[spans.select("augmented.solve")][0])
        sweep_s = (full_s - one_s) / max(solved.iterations - 1, 1)
        metrics["augmented.solve.s"] = full_s
        metrics["augmented.solve.compile_s"] = one_s - sweep_s
        metrics["augmented.solve.sweep_ms"] = sweep_s * 1e3
        metrics["augmented.solve.sweeps"] = solved.iterations
    else:
        metrics["augmented.solve.s"] = 0.0
        metrics["augmented.solve.compile_s"] = 0.0
        metrics["augmented.solve.sweep_ms"] = 0.0
        metrics["augmented.solve.sweeps"] = 0

    attempted += log.attempted + sum(r.attempted for r in replays)
    failed += log.failed + sum(r.failed for r in replays)

    samples: dict[str, str] = {}
    for name in ("rho.plan", "augmented.interpolation_weights",
                 "augmented.greedy_action", "belief.admissible_actions",
                 "belief.bayes_update", "sim.step", "sim.run_closed_loop",
                 "sim.write"):
        idx = spans.select(name)
        durations = spans.duration[idx]
        metrics[f"{name}.calls"] = int(idx.size)
        metrics[f"{name}.self_s"] = float(spans.self_time[idx].sum())
        metrics[f"{name}.p50_us"] = _percentile_us(durations, 50)
        metrics[f"{name}.p99_us"] = _percentile_us(durations, 99)
        samples[name] = f"{idx.size} calls"
    plan_idx = spans.select("rho.plan")
    plan_time = spans.duration[plan_idx]
    wide = np.asarray(plan_stats.support, dtype=int) >= WIDE_SUPPORT
    metrics["rho.plan.sequences_scored"] = plan_stats.scored
    metrics["rho.plan.admissible_frac"] = (
        plan_stats.scored / plan_stats.possible if plan_stats.possible else 0.0
    )
    metrics["rho.plan.wide_belief_frac"] = float(wide.mean()) if wide.size else 0.0
    metrics["rho.plan.wide_belief_time_share"] = (
        float(plan_time[wide].sum() / plan_time.sum()) if wide.size else 0.0
    )
    metrics["sim.write.bytes"] = log.bytes_written

    def per_setup(name: str) -> float:
        return _median(
            float(spans.duration[spans.select(name, lo, hi)].sum())
            for lo, hi in zip(marks, marks[1:])
        )

    metrics["mdp.nominal_value_iteration.s"] = per_setup("mdp.nominal_value_iteration")
    metrics["mdp.nominal_value_iteration.iterations"] = iterations
    metrics["mdp.load.s"] = per_setup("mdp.load")
    metrics["models.build.s"] = per_setup("models.build")
    metrics["sim.belief_support.mean"] = log.support_sum / max(log.steps, 1)
    for module in MODULES:
        metrics[f"{module}.share"] = spans.module_self_time(module) / wall
    metrics["trace.overhead_frac"] = (
        log.timed_s / sum(r.timed_s for r in replays) - 1.0
    )
    # every span name starts with a module, so the module self times add up
    # to the root spans' time; the rest of the wall is the benchmark's own loop
    metrics["trace.unwrapped_share"] = (wall - spans.root_time()) / wall
    metrics["trace.wall_s"] = wall
    metrics = {k: v for k, v in metrics.items() if k in PER_LAYER_UNITS}
    return Result(attempted, failed, metrics, samples, log.digests)
