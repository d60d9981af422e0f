"""Entry point for ``python -m softgrip``."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
