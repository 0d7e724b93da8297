"""Build one workload's inputs in a fresh interpreter; run.py times this as set-up.

    PYTHONPATH=src python3 perfbench/build_inputs.py --workload loso --seed 1 --dir WORKDIR
"""

import argparse
from pathlib import Path

import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args()
    workloads.build_inputs(args.workload, args.seed, args.dir)


if __name__ == "__main__":
    main()
