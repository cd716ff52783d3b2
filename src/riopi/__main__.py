"""``python -m riopi``: the same command line as the ``riopi`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
