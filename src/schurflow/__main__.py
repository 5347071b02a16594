"""Command-line entry point: ``python -m schurflow --config ...``."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
