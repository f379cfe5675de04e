"""``python -m weylsums``: the same runner as the ``weylsums`` command."""

from .cli import main

if __name__ == "__main__":
    main()
