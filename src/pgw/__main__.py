"""Run the command line as ``python -m pgw <command> ...``."""

from .workbench_cli import main

if __name__ == "__main__":
    raise SystemExit(main())
