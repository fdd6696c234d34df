"""The README's claims about the package that a test can check."""

import argparse
import re
from pathlib import Path

import cbtcode
from cbtcode.cli import _build_parser
from cbtcode.pipeline import PipelineConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_name_in_the_library_list_is_importable_from_cbtcode():
    text = README.read_text(encoding="utf-8")
    lead = "All pipeline stages are importable from `cbtcode`:"
    listing = text[text.index(lead) + len(lead):]
    listing = re.sub(r"\([^)]*\)", "", listing[: listing.index(".\n")])  # a remark in parentheses is not an entry
    names = re.findall(r"`([^`]+)`", listing)
    assert len(names) > 30
    assert [n for n in names if not hasattr(cbtcode, n)] == []


def test_each_row_of_the_config_table_names_the_fields_its_subcommand_takes():
    """A row names, before any ';' and outside parentheses, exactly the
    `PipelineConfig` fields whose flags the subcommand's parser takes; every
    pipeline subcommand that takes one has a row (synth reads its own config)."""
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| subcommand | pipeline config fields |"):]
    rows = {}
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        command, fields = (cell.strip() for cell in line.strip("|").split("|"))
        fields = re.sub(r"\([^)]*\)", "", fields.split(";")[0])
        rows[command.strip("`").split()[0]] = set(re.findall(r"`([^`]+)`", fields))
    known = set(PipelineConfig.__dataclass_fields__)
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    taken = {command: {a.dest for a in parser._actions} & known
             for command, parser in sub.choices.items() if command != "synth"}
    assert rows == {command: fields for command, fields in taken.items() if fields}
