"""``python -m polyproj``: the same command line as the ``polyproj`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
