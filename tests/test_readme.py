"""The README's claims about the package that a test can check."""

import re
from pathlib import Path

import cbtcode

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_name_in_the_library_list_is_importable_from_cbtcode():
    text = README.read_text(encoding="utf-8")
    lead = "All pipeline stages are importable from `cbtcode`:"
    listing = text[text.index(lead) + len(lead):]
    listing = re.sub(r"\([^)]*\)", "", listing[: listing.index(".\n")])  # a remark in parentheses is not an entry
    names = re.findall(r"`([^`]+)`", listing)
    assert len(names) > 30
    assert [n for n in names if not hasattr(cbtcode, n)] == []
