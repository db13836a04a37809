"""``python3 -m edim``: the ``edim`` command."""

from .cli import main

main()
