"""``python -m uepo <stage> ...``: the ``uepo`` command without an install."""
from .cli import main
if __name__ == "__main__":
    raise SystemExit(main())
