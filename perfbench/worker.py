"""Timed passes of one workload, in a process of their own.

Started by run.py as `python3 perfbench/worker.py <spec.json>`; the parent
has done the set-up.  Runs passes until at least `min_passes` are done and
`seconds` have gone by, optionally under the tracer, and writes the pass
records (and the trace) to the spec's `out` file.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]](
        spec["size"], spec["seed"], Path(spec["work"]))
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
        workload.tracer = tracer
    passes = []
    start = time.perf_counter()
    while (len(passes) < spec["min_passes"]
           or time.perf_counter() - start < spec["seconds"]):
        passes.append(workload.run_pass(spec["first_pass"] + len(passes)))
    wall = time.perf_counter() - start
    out = {"passes": passes, "wall_s": wall}
    if tracer is not None:
        tracer.remove()
        out["summary"] = tracer.summary()
        out["spans"] = tracer.spans
    Path(spec["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
