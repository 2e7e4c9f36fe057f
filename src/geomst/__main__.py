"""`python -m geomst`: the same command line as the installed `geomst` script."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
