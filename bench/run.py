"""Run one dualsynth benchmark workload and print its metrics.

    python3 bench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

Workloads: ``ladder``, ``coupled``, ``arena`` (see ``bench/README.md``).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass.  Every metric is printed as a line
``name value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed.
"""

import hostspeed

hostspeed.start()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ladder", "coupled", "arena"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time in "
                             "hostspeed.clock units and exit (used to "
                             "sample setup_s)")
    args = parser.parse_args(argv)
    if not args.setup_only:
        hostspeed.stop()  # the run meters its own passes
    if not (ROOT / "src" / "dualsynth" / "__init__.py").is_file():
        print(f"bench: no dualsynth sources under {ROOT / 'src'}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2

    if args.setup_only:
        from workloads import WORKLOADS
        WORKLOADS[args.workload].setup(args.seed)
        print(hostspeed.clock())
        return 0

    from measure import measure
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in {**result.metrics, **result.rows}.items():
        print(f"{name:42s} {value:.6g} {unit}")
    checks = result.checks
    print(f"{'fail_frac':42s} {checks.failed / checks.attempted:.6g} "
          f"({checks.failed} of {checks.attempted} checks failed)")
    for message in checks.messages[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        hostspeed.stop()  # no SIGALRM may outlive its handler
