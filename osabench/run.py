"""Benchmark of the osa package.

    python3 osabench/run.py --workload grid|descriptor|slots --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from its `src/`
directory.  The last line of standard output is the result,
{"correct", "attempted", "failed", "metrics"}; the line before it is the full
record (machine, source version, seed, parameters, per-op times and
failures), which is also written under `.osabench/results/`.  With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones from a traced set-up and pass.

    python3 osabench/run.py --record-references

re-records `osabench/references.json` from the current sources.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["grid", "descriptor", "slots"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_references and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "osa" / "__init__.py").is_file():
        print(f"osabench: no package sources at {SRC}/osa", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    # One BLAS/OpenMP thread; numpy reads these when osa first imports it.
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import osa

    if Path(osa.__file__).resolve().parent != SRC / "osa":
        print(f"osabench: imported osa from {osa.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    import_s = time.perf_counter() - t0

    if args.record_references:
        refs = harness.record_references()
        with open(harness.REFERENCES, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    result, record, tracer = harness.run_workload(
        args.workload, args.seed, args.seconds, args.trace, import_s=import_s
    )
    harness.write_record(record, tracer)
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
