"""rfl-lab benchmark entry point.

    python3 perfbench/run.py --workload longtail|two_stage|detect \
        [--seed N] [--seconds S] [--trace 0|1]

Measures set-up in several fresh processes, then runs the workload in one
more fresh process (``worker.py``) with single-threaded BLAS, and prints
every metric by name and unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Details (checks, absent trace names, environment) also go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # str hashing, and so dict layout, alike in every run
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run the worker with ``args``; its last stdout line is a JSON object."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=max(1.0, timeout),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="rfl-lab benchmark")
    p.add_argument("--workload", required=True, choices=("longtail", "two_stage", "detect"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [d for d in ("src/rfl_lab", "configs") if not (ROOT / d).is_dir()]
    if missing:
        print(f"not an rfl-lab checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        probes = [run_child(["--probe", "--workload", args.workload], 60.0)
                  for _ in range(SETUP_PROBES)]
        result = run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            DEADLINE_S - (time.monotonic() - started),
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    if args.trace:
        import_s = statistics.median(pr["import_s"] for pr in probes)
        metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    else:
        setup_s = statistics.median(pr["setup_s"] for pr in probes)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    for m in declared:
        if m["name"] in metrics:
            continue
        if not args.trace:
            print(f"benchmark failed: no value for {m['name']}", file=sys.stderr)
            return 1
        # A layer this workload does not use, or whose functions are absent.
        metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}

    env = {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "blas": result["blas"],
        "nproc": os.cpu_count(),
        "blas_threads": 1,
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": metrics,
        "setup_probes": probes, "failures": result["failures"], "notes": result["notes"],
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json",
              "w") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    for key, value in sorted(result["notes"].items()):
        print(f"  note {key}: {json.dumps(value)}")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
