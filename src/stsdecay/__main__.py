"""``python -m stsdecay ...``: the ``stsdecay`` script, through the same entry point ``cli.run``."""

from .cli import run

if __name__ == "__main__":
    run()
