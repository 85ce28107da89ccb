"""The demos' output, pinned by the SHA-256 of each one's stdout."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DIGESTS = {
    "01_indices_basics.py": "dee81e9cd53c687d7c501f80eb1254e2f5831bbf251cc746e5cf823e2a2afab7",
    "02_products_and_families.py":
        "f0ec590882f3eb80aaed6d8ea04770c540ca74fa5444552552cf6a5b13f953fa",
    "03_formula_verification.py":
        "beaa1cd9b0776a25708a4559364718baff5f8403707001c3e9621ff1874c1767",
    "04_octane_qspr.py": "b25eef5efeb70ae124fb8e8005e33b58df3fe3e4fa79069efae346c26c96c2c6",
}


# every demo is a case, so a demo without a recorded digest fails
@pytest.mark.parametrize("name", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_output(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[name]
