"""``python -m renlab``: the renlab command line."""
from .cli import main

raise SystemExit(main())
