#!/usr/bin/env python3
"""Compare the deterministic baselines on the published dataset against the
reference test-set MSE values, at the +-5% reproduction tolerance.

Needs the dataset CSV at $DENITLAB_DATA or --dataset. Runs in seconds.
"""

import argparse
import os
import sys

from denitlab.baselines import PUBLISHED_TEST_MSE
from denitlab.dataset import load_csv, make_final_split
from denitlab.evaluation import evaluate
from denitlab.pipeline import prepare_frame


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default=os.environ.get("DENITLAB_DATA"))
    args = parser.parse_args()
    if not args.dataset:
        print("no dataset: pass --dataset or set DENITLAB_DATA", file=sys.stderr)
        return 2

    frame, mask = prepare_frame(load_csv(args.dataset))
    print(f"loaded {len(frame)} rows, {len(frame.gaps)} gaps, "
          f"{len(mask.intervals)} cleaning episodes")
    plan = make_final_split(frame)

    failures = 0
    print(f"{'task':<9} {'baseline':<26} {'got':>8} {'reference':>10}  verdict")
    for task, baseline, reference in PUBLISHED_TEST_MSE:
        got = evaluate(baseline, frame, plan, task, split="test").mse
        ok = abs(got - reference) / reference <= 0.05
        failures += not ok
        print(f"{task:<9} {baseline.name:<26} {got:8.3f} {reference:10.2f}  "
              f"{'ok' if ok else 'OUT OF TOLERANCE'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
