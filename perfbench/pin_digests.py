"""Pin the compare-banded results.csv sha256 for a range of seeds.

    python3 perfbench/pin_digests.py 0 64    # seeds 0..63

Runs the workload's configuration once per seed through ``kslab.cli.main``
and rewrites ``perfbench/digests.json``. The benchmark then checks every
unit of a run on a pinned seed against these digests.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    first, stop = (int(a) for a in sys.argv[1:3])
    import kslab.cli

    workload = WORKLOADS["compare-banded"]
    work = HERE / "_runs" / f"pin-{os.getpid()}"
    work.mkdir(parents=True)
    digests = {}
    try:
        for seed in range(first, stop):
            cfg_path = work / "config.json"
            cfg_path.write_text(json.dumps(workload.config(seed), indent=1))
            out = work / f"seed{seed}"
            with contextlib.redirect_stdout(io.StringIO()):
                codes = workload.run(kslab.cli, cfg_path, out)
            if codes != [0]:
                raise SystemExit(f"compare failed for seed {seed}")
            digests[str(seed)] = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
            print(seed, digests[str(seed)], flush=True)
    finally:
        shutil.rmtree(work)
    path = HERE / "digests.json"
    pinned = json.loads(path.read_text())
    pinned[workload.name] = digests
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
