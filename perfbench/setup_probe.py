"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py --workload W --inputs DIR

Set-up is importing spkver plus the workload's first heavy object: both
extractors built at full width (train) or the embedding archive read
(score).  Prints one JSON line
{"setup_s": seconds}, in reference-host seconds as the stages in run.py.
The caller puts the repository's ``src`` directory on PYTHONPATH.
"""

from time import thread_time

T0 = thread_time()          # CPU time, as for the stages in run.py

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SPEED_PROBES = 9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    args = parser.parse_args(argv)
    inputs = Path(args.inputs)

    from spkver import cli  # noqa: F401  (the whole CLI import graph)
    from spkver import formats as fm
    from spkver import training as tr

    if args.workload == "train":
        from plans import PLANS, train_configs

        n_spk = PLANS["train"].train.n_speakers
        for cfg in train_configs(PLANS["train"]).values():
            tr.build_model(cfg, n_spk)
    else:
        fm.read_embeddings(inputs / "embeddings.bin")
    elapsed = thread_time() - T0
    from run import host_speed

    speed = statistics.median(host_speed() for _ in range(SPEED_PROBES))
    print(json.dumps({"setup_s": elapsed * speed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
