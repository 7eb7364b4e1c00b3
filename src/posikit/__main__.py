"""``python -m posikit``: the posikit command line (see posikit.cli)."""

from .cli import main

if __name__ == "__main__":
    main()
