"""`python -m apspec`: the same command line as the `apspec` script."""

from apspec.cli import main

if __name__ == "__main__":
    main()
