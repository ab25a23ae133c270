"""Process-workload job: prints `metric cpu <value> <unix-ms>` lines on stdout.

Run as `python3 emitter.py --seed N`. It prints one line every `PERIOD_S` and
exits on its own after `LIFETIME_S`, so that a job the engine failed to kill
cannot linger.
"""

import argparse
import random
import sys
import time

PERIOD_S = 0.002
LIFETIME_S = 20.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    deadline = time.monotonic() + LIFETIME_S
    out = sys.stdout
    while time.monotonic() < deadline:
        out.write(f"metric cpu {rng.uniform(40.0, 60.0):.2f} {int(time.time() * 1000)}\n")
        out.flush()
        time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
