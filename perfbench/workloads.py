"""The benchmark's workloads and the closed loop that drives them.

Every workload calls covertmdp's public API in the order ``covertmdp
simulate --jobs 1`` does: build or load the scenario, nominal value
iteration, policy, induced chain, controller (after ``solve_augmented_vi``
for the grid-value controller, as ``solve-augmented`` runs it), then the
episodes, written batch by batch as trace CSVs, meta sidecars and a
summary. All calls go through module attributes (``sim.run_closed_loop``,
``mdp.nominal_value_iteration``, ...) so the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from covertmdp import augmented, belief, mdp, models, rho, sim

# The generated lattice-6s model: the CLI's state cap for the lattice
# solver, two actions, four readings, Dirichlet columns as in
# tests/_oracles.random_sane_model, and the built-in models' discount.
RANDOM_STATES = 6
RANDOM_ACTIONS = 2
RANDOM_OBSERVATIONS = 4
RANDOM_DISCOUNT = 0.95

# Controller settings shared by every workload: the criterion 7/8/9 planner
# (N=3, wn=wa=0.5, wap=0) and the CLI's lattice tolerance.
HORIZON = 3
REWARD_WEIGHT = 0.5
EXPOSURE_WEIGHT = 0.5
LATTICE_TOL = 1e-6

# An untraced run times the calibration loop before every CALIBRATE_EVERY-th
# decision, every 50-150 ms on this benchmark's workloads (measure.py says
# why); the loop's time is left out of every timing.
CALIBRATE_EVERY = 64
_CALIBRATION_ROWS = np.random.default_rng(0).random((64, 64))


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # "example1", "gridworld" or "random" (drawn from the seed)
    controller: str  # "rho", "nominal" or "grid-vi"
    steps: int  # closed-loop steps per episode
    trace_episodes: int  # fixed episode count of the traced run, so counts repeat
    batch: int = 1  # episodes per simulate-style batch of files
    # least steps an untraced run completes, and the least a p99 window
    # holds: each window's p99 then has ten samples above it
    min_steps: int = 1000
    window_s: float = 1.0  # least length of a latency window
    setup_repeats: int = 9  # at least this many set-ups are timed per run
    resolution: int = 10  # of the lattice


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ex1-rho", "example1", "rho", steps=2000, trace_episodes=2),
        Workload("grid-rho", "gridworld", "rho", steps=200, trace_episodes=5),
        Workload("lattice-6s", "random", "grid-vi", steps=2000, trace_episodes=2),
        Workload(
            "ex1-nominal", "example1", "nominal", steps=2000, trace_episodes=40,
            batch=8,
        ),
    )
}


@dataclass
class Scenario:
    model: mdp.MdpModel
    obs: belief.ObservationModel
    pa: np.ndarray
    o0: np.ndarray
    x0: int | None  # None: the start state is drawn from o0
    controller: object | None  # None until the lattice solve for grid-vi


def write_inputs(wl: Workload, seed: int, workdir: Path) -> tuple[Path, Path] | None:
    """Generate the workload's input files from the seed (lattice-6s only)."""
    if wl.scenario != "random":
        return None
    rng = np.random.default_rng(seed)
    n, num_u, num_y = RANDOM_STATES, RANDOM_ACTIONS, RANDOM_OBSERVATIONS
    transition = np.empty((n, n, num_u))
    for u in range(num_u):
        for s in range(n):
            transition[:, s, u] = rng.dirichlet(np.ones(n))
    reward = rng.uniform(0.0, 1.0, size=(n, num_u))
    likelihood = np.empty((num_y, n))
    for s in range(n):
        likelihood[:, s] = rng.dirichlet(np.ones(num_y))
    model_path, obs_path = workdir / "model.json", workdir / "obs.json"
    mdp.save_model_file(
        mdp.MdpModel(n, num_u, transition, reward, RANDOM_DISCOUNT), model_path
    )
    belief.save_observation_file(
        belief.ObservationModel(num_y, likelihood), obs_path
    )
    return model_path, obs_path


def setup(wl: Workload, inputs) -> tuple[Scenario, float, int]:
    """Scenario, nominal solve and controller; returns the scenario, the
    nominal value iteration's seconds and its sweep count."""
    x0 = None
    if wl.scenario == "example1":
        model, obs = models.example1_model()
    elif wl.scenario == "gridworld":
        spec = models.desk_gridworld()
        model, obs = models.gridworld_model(spec)
        x0 = spec.cell_index(*spec.start)
    else:
        model = mdp.load_model_file(inputs[0])
        obs = belief.load_observation_file(inputs[1], model.num_states)
    t0 = time.perf_counter()
    nominal = mdp.nominal_value_iteration(model)
    vi_s = time.perf_counter() - t0
    if not nominal.converged:
        raise RuntimeError(f"{wl.name}: nominal value iteration did not converge")
    policy = mdp.extract_nominal_policy(model, nominal.values)
    pa = mdp.induced_chain(model, policy)
    o0 = belief.uniform_belief(model.num_states)
    controller = None
    if wl.controller == "rho":
        config = rho.PlannerConfig(
            HORIZON, REWARD_WEIGHT, EXPOSURE_WEIGHT, 0.0
        )
        controller = sim.RecedingHorizonController(
            model, obs, pa, nominal.values, config
        )
    elif wl.controller == "nominal":
        controller = sim.NominalController(policy)
    return Scenario(model, obs, pa, o0, x0, controller), vi_s, nominal.iterations


def solve_lattice(wl: Workload, scn: Scenario, max_iter: int | None = None):
    kwargs = {} if max_iter is None else {"max_iter": max_iter}
    return augmented.solve_augmented_vi(
        scn.model, scn.obs, scn.pa,
        reward_weight=REWARD_WEIGHT,
        exposure_weight=EXPOSURE_WEIGHT,
        resolution=wl.resolution,
        tol=LATTICE_TOL,
        **kwargs,
    )


def check_solve(result, reference_values: np.ndarray | None) -> bool:
    """Converged to its tolerance, finite, and within 1e-9 of the reference
    table in sup-norm when one was recorded for this seed."""
    values = result.value.values
    if not (result.converged and np.all(np.isfinite(values))):
        return False
    if reference_values is None:
        return True
    return (
        values.shape == reference_values.shape
        and float(np.max(np.abs(values - reference_values))) <= 1e-9
    )


def calibration_loop() -> float:
    """A fixed mix of interpreter work and small numpy calls, like a
    closed-loop step's, of about a millisecond. It is the benchmark's own
    code, so its time follows the machine's speed and nothing else."""
    rows = _CALIBRATION_ROWS
    total = 0.0
    for i in range(300):
        total += float((rows[i % 64] * rows[(i + 1) % 64]).sum())
    return total


class _Stamped:
    """Controller proxy stamping the start of every decision: consecutive
    stamps bound one closed-loop step (decision, bookkeeping, transition
    and filter update). Given a ``calibration`` list, it also times the
    calibration loop before every CALIBRATE_EVERY-th decision, and stamps on
    a clock that stands still while the loop runs."""

    def __init__(self, inner, stamps: list[float], calibration: list[float] | None):
        self.inner = inner
        self.stamps = stamps
        self.calibration = calibration
        self.paused = 0.0  # seconds spent in the calibration loop
        self.controller_id = inner.controller_id

    def decide(self, x: int, o: np.ndarray) -> int:
        if self.calibration is not None and len(self.stamps) % CALIBRATE_EVERY == 0:
            t0 = time.perf_counter()
            calibration_loop()
            spent = time.perf_counter() - t0
            self.calibration.append(spent)
            self.paused += spent
        self.stamps.append(time.perf_counter() - self.paused)
        return self.inner.decide(x, o)


def _split_windows(pending: np.ndarray, min_steps: int, min_s: float):
    """Cut complete windows of consecutive step latencies off the front of
    ``pending``: each holds at least ``min_steps`` steps and ``min_s``
    seconds of them. Returns the windows and the remainder."""
    windows = []
    while pending.size >= min_steps:
        total = np.cumsum(pending)
        k = max(min_steps, int(np.searchsorted(total, min_s)) + 1)
        if k > pending.size:
            break
        windows.append(pending[:k])
        pending = pending[k:]
    return windows, pending


class StepLatency:
    """Per-step latencies summarized in windows of consecutive steps, each at
    least ``window_s`` seconds long: a median per window of at least a tenth
    of ``p99_steps`` steps, and a p99 per window of at least ``p99_steps``
    steps. Memory stays flat however many steps a faster program completes;
    it would otherwise show in peak_rss_mb."""

    def __init__(self, p99_steps: int, window_s: float):
        self.p99_steps = p99_steps
        self.window_s = window_s
        self._for_p50 = np.empty(0)
        self._for_p99 = np.empty(0)
        self.p50: list[float] = []
        self.p99: list[float] = []

    def add(self, latencies: np.ndarray) -> None:
        windows, self._for_p50 = _split_windows(
            np.concatenate([self._for_p50, latencies]),
            max(self.p99_steps // 10, 1), self.window_s,
        )
        self.p50.extend(float(np.median(w)) for w in windows)
        windows, self._for_p99 = _split_windows(
            np.concatenate([self._for_p99, latencies]),
            self.p99_steps, self.window_s,
        )
        self.p99.extend(float(np.percentile(w, 99)) for w in windows)


@dataclass
class EpisodeLog:
    latency: StepLatency
    attempted: int = 0
    failed: int = 0
    steps: int = 0
    timed_s: float = 0.0  # running and writing; output checks excluded
    wall_s: float = 0.0  # everything, checks and after_batch included
    digests: dict[int, str] = field(default_factory=dict)  # by run index
    bytes_written: int = 0
    support_sum: int = 0  # states with positive belief, summed over decisions


def _write_batch(batch: list, out: Path) -> float:
    t0 = time.perf_counter()
    out.mkdir(parents=True)
    for trace in batch:
        stem = f"trace_{trace.run_index:03d}"
        sim.write_trace_csv(trace, out / f"{stem}.csv")
        sim.write_trace_metadata(trace, out / f"{stem}.meta.json")
    sim.write_summary_file(sim.aggregate_runs(batch), out / "summary.json")
    return time.perf_counter() - t0


def _trace_ok(wl: Workload, trace, data: bytes) -> bool:
    rates = (trace.reward_rate, trace.exposure_rate)
    return (
        trace.num_steps == wl.steps
        and data.count(b"\n") == wl.steps + 1
        and all(math.isfinite(r) and 0.0 <= r <= 1.0 for r in rates)
    )


def run_episodes(
    wl: Workload,
    scn: Scenario,
    seed: int,
    outdir: Path,
    stop,
    reference: dict[int, str] | None = None,
    after_batch=None,
    first: int = 0,
    calibration: list[float] | None = None,
) -> EpisodeLog:
    """Episodes ``first, first + 1, ...`` of seed ``seed`` until
    ``stop(log, elapsed)``.

    An episode is one operation. It fails when it raises, when its trace is
    short or its rates leave [0, 1], or when its CSV's sha256 differs from
    ``reference[run_index]``; a flipped decision fails it the same way.
    ``after_batch(digests)`` runs, untimed, after each batch's files are
    checked, with the batch's digests by run index. Given a ``calibration``
    list, the calibration loop's times are appended to it (``_Stamped``).
    """
    log = EpisodeLog(StepLatency(wl.min_steps, wl.window_s))
    batch: list = []
    batch_s = 0.0
    start = time.perf_counter()
    while True:
        index = first + log.attempted
        stamps: list[float] = []
        stamped = _Stamped(scn.controller, stamps, calibration)
        t0 = time.perf_counter()
        try:
            trace = sim.run_closed_loop(
                scn.model, scn.obs, scn.pa, stamped,
                scn.o0, wl.steps, seed, index, x0=scn.x0,
            )
        except Exception:  # a raising episode is a failed operation; go on
            traceback.print_exc(file=sys.stderr)
            trace = None
            log.failed += 1
        t1 = time.perf_counter() - stamped.paused
        log.attempted += 1
        batch_s += t1 - t0
        if trace is not None:
            stamps.append(t1)
            log.latency.add(np.diff(stamps))
            log.steps += trace.num_steps
            batch.append(trace)
        done = stop(log, time.perf_counter() - start)
        if batch and (len(batch) == wl.batch or done):
            out = outdir / f"batch_{batch[0].run_index:04d}"
            batch_s += _write_batch(batch, out)
            log.timed_s += batch_s
            batch_s = 0.0
            batch_digests = {}
            for trace in batch:
                data = (out / f"trace_{trace.run_index:03d}.csv").read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                batch_digests[trace.run_index] = digest
                expected = None if reference is None else reference.get(trace.run_index)
                if not _trace_ok(wl, trace, data) or expected not in (None, digest):
                    log.failed += 1
                log.support_sum += int(np.count_nonzero(trace.beliefs > 0.0))
            log.bytes_written += sum(p.stat().st_size for p in out.iterdir())
            shutil.rmtree(out)
            log.digests.update(batch_digests)
            if after_batch is not None:
                after_batch(batch_digests)
            batch = []
        if done:
            log.wall_s = time.perf_counter() - start
            return log
