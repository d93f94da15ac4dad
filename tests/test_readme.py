"""The README's Library table names only what each module defines."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
IDENTIFIER = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")


def library_rows():
    """``(module name, contents cell)`` for each ``blowdown.<module>`` row of
    the table under ``## Library``."""
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        match = re.fullmatch(r"`(blowdown\.\w+)`", cells[0])
        if match and len(cells) == 2:
            rows.append((match.group(1), cells[1]))
    return rows


def test_every_library_row_names_attributes_of_its_module():
    rows = library_rows()
    assert {name for name, _ in rows} == {
        "blowdown.tchains", "blowdown.lattice", "blowdown.contraction",
        "blowdown.topology", "blowdown.constructions",
    }
    missing = []
    for name, contents in rows:
        module = importlib.import_module(name)
        for dotted in IDENTIFIER.findall(contents):
            target = module
            for part in dotted.split("."):
                # A dataclass field without a default is no class attribute.
                fields = getattr(target, "__dataclass_fields__", {})
                target = fields.get(part) or getattr(target, part, None)
            if target is None:
                missing.append(f"{name}: {dotted}")
    assert not missing, missing
