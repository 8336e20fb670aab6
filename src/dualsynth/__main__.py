"""``python -m dualsynth``: the ``dualsynth`` command line."""

from dualsynth.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
