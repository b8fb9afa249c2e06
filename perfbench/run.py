"""covertmdp benchmark: closed-loop and lattice workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ex1-rho --seed 0 --seconds 55 --trace 0

Workloads: ex1-rho and lattice-6s are the benchmark's (BENCHMARK.json says
why); grid-rho and ex1-nominal run the same way but are not part of it,
because on this benchmark's 2-vCPU machine they could not be made steady
within its time budget. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs with spans around each module's calls and reports the
per-layer metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give each metric with its unit and what it was taken over, the
figures that are printed but are not metrics (the timings as measured,
before they are scaled to the calibration loop's reference speed, and the
calibration loop's mean time), the error rate, and an environment stamp. A
copy of the full record and the traced run's spans are left in
``.perfbench/`` at the checkout root.

Runs are checked: for seeds with recorded references (perfbench/reference)
every episode's trace CSV must match its sha256 and the lattice-6s value
table must match within 1e-9; for every seed, traces must have their full
length and rates in [0, 1], and the lattice solve must converge.

The smoke test runs every workload at tiny sizes:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("ex1-rho", "grid-rho", "lattice-6s", "ex1-nominal")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None  # not a git checkout
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def load_reference(name: str, seed: int):
    from measure import Reference

    path = HERE / "reference" / f"{name}.json"
    if not path.is_file():
        return Reference()
    doc = json.loads(path.read_text())
    digests = doc["digests"].get(str(seed), [])
    values = None
    values_path = HERE / "reference" / f"{name}-seed{seed}-values.npy"
    if values_path.is_file():
        import numpy as np

        values = np.load(values_path)
    return Reference({i: d for i, d in enumerate(digests) if d is not None}, values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src" / "covertmdp"
    if not (src / "__init__.py").is_file():
        print(f"error: package source {src} not found; run from a checkout",
              file=sys.stderr)
        return 2
    # one process, one thread: as `covertmdp simulate --jobs 1` on small arrays
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import measure
    import workloads

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "loadavg_start": os.getloadavg(),
    }
    wl = workloads.WORKLOADS[args.workload]
    ref = load_reference(args.workload, args.seed)
    out = ROOT / ".perfbench"
    workdir = out / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            spans = out / f"spans-{args.workload}-seed{args.seed}.npz"
            result = measure.run_traced(wl, args.seed, ref, workdir, spans)
            units = measure.PER_LAYER_UNITS
        else:
            result = measure.run_untraced(wl, args.seed, args.seconds, ref, workdir)
            units = measure.END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stamp["loadavg_end"] = os.getloadavg()
    stamp["reference_episodes"] = len(ref.digests)
    stamp["reference_values"] = ref.values is not None

    metrics = {
        name: {"value": result.metrics[name], "unit": unit}
        for name, unit in units.items()
    }
    for name, m in metrics.items():
        n = result.samples.get(name, result.samples.get(name.rsplit(".", 1)[0]))
        note = f" ({n})" if n is not None else ""
        print(f"{name} = {m['value']!r} {m['unit']}{note}")
    for name, value in result.info.items():
        print(f"{name} = {value!r} (not a metric)")
    error_rate = result.failed / result.attempted
    print(f"error_rate = {error_rate!r} ({result.failed} failed of "
          f"{result.attempted} operations)")
    print("env " + json.dumps(stamp))
    record = {
        "env": stamp,
        "error_rate": error_rate,
        "samples": result.samples,
        "series": result.series,
        "info": result.info,
        "digests": result.digests,
        "metrics": metrics,
    }
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
