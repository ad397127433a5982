"""Write ``tests/golden/pricing.json``, the fixture of
``tests/test_pricing_golden.py``.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_pricing.py

Regenerate only for a deliberate change to the pricing equations, and
say in the change which numbers moved and why.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from tests.test_pricing_golden import GOLDEN_PATH, collect  # noqa: E402

if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(collect(), indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")
