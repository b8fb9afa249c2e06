"""Record the outputs that benchmark runs are checked against.

For each workload this runs the first episodes of seeds 0 to 10 (many of
seed 0, the default, a few of the others) and stores the sha256 of each
trace CSV in ``reference/<workload>.json`` (null for an episode that
raised); for lattice-6s it also stores seed 0's lattice value table. Run it
only at a commit whose outputs are meant to be the reference, from the root
of a checkout:

    python3 perfbench/record_reference.py --workload ex1-rho

Each window covers several times the episodes one run completes at the
recording commit, so a faster program is still checked on its first
episodes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run

SEEDS = range(11)
WINDOW_SEED0 = {"ex1-rho": 32, "grid-rho": 48, "lattice-6s": 96, "ex1-nominal": 1000}
WINDOW_OTHER = {"ex1-rho": 4, "grid-rho": 6, "lattice-6s": 8, "ex1-nominal": 40}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    args = parser.parse_args()
    for var in run.BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy as np

    import workloads
    from covertmdp import sim

    wl = workloads.WORKLOADS[args.workload]
    refdir = run.HERE / "reference"
    refdir.mkdir(exist_ok=True)
    digests = {}
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=run.ROOT / ".perfbench")
    try:
        for seed in SEEDS:
            window = WINDOW_SEED0[wl.name] if seed == 0 else WINDOW_OTHER[wl.name]
            seeddir = Path(workdir) / str(seed)
            seeddir.mkdir()
            inputs = workloads.write_inputs(wl, seed, seeddir)
            scn, _, _ = workloads.setup(wl, inputs)
            if wl.controller == "grid-vi":
                solved = workloads.solve_lattice(wl, scn)
                if not workloads.check_solve(solved, None):
                    raise RuntimeError(f"seed {seed}: lattice solve failed its check")
                if seed == 0:
                    np.save(refdir / f"{wl.name}-seed0-values.npy", solved.value.values)
                scn.controller = sim.AugmentedValueController(
                    scn.model, scn.obs, scn.pa, solved.value
                )
            log = workloads.run_episodes(
                wl, scn, seed, seeddir / "episodes",
                stop=lambda log, _: log.attempted >= window,
            )
            # an episode that raises has no output to record: null
            digests[str(seed)] = [log.digests.get(i) for i in range(window)]
            print(f"{wl.name} seed {seed}: {window} episodes, "
                  f"{log.failed} failed", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "workload": wl.name,
        "git_sha": run.git_sha(run.ROOT),
        "src_sha256": run.source_digest(run.ROOT / "src" / "covertmdp"),
        "digests": digests,
    }
    (refdir / f"{wl.name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
