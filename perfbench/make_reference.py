"""Write reference.json: the outputs at the default seed of the commit it runs on.

    python3 perfbench/make_reference.py

The training entries hold each arm's mean metrics and the SHA-256 of the
canonical report per shipped seed; the detect entry holds mAP, recall and
mRecall.  Run it only to define a new reference, never to make a failing
check pass.
"""

from __future__ import annotations

import json
import sys

import worker


def main() -> int:
    sys.path[:0] = [str(worker.ROOT / "src"), str(worker.HERE)]
    worker.OUT.mkdir(exist_ok=True)
    ref: dict = {}
    for workload in worker.TRAINING:
        w = worker.Training(workload, worker.DEFAULT_SEED, {})
        meter = worker.hostspeed.HostMeter()  # not entered: no timer signal
        ref[workload] = {}
        for seed in w.seeds:
            _, _, problems = w.op(seed, meter)
            if problems:
                raise SystemExit(f"{workload} seed {seed}: {problems}")
            report, text = w.last
            ref[workload][str(seed)] = {
                "sha256": worker.hashlib.sha256(text.encode()).hexdigest(),
                "arms": {
                    name: {k: v for k, v in arm["mean"].items() if k in worker.TRAINING_TOL}
                    for name, arm in report["arms"].items()
                },
            }
    d = worker.Detect(worker.DEFAULT_SEED, {})
    try:
        fused = [f for sc in d.scenes for f in d.scene_op(sc)[0]]
        summary, _, _ = d.eval_op(fused)
    finally:
        d.close()
    ref["detect"] = {"map": summary.map, "recall": summary.recall,
                     "m_recall": summary.m_recall, "fused": len(fused)}
    with open(worker.HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
