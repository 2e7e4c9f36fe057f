"""`python -m geomst`: the same command line as the installed `geomst` script."""

from .cli import main_entry

if __name__ == "__main__":  # not when a spawned worker process re-imports the main module
    main_entry()
