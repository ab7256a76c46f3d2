"""The README's config examples and schema agree with the parser."""

import importlib
import json
import re
from pathlib import Path

import pytest

import clineshoot
from clineshoot.nonlinearity import ArctanDamped, CustomPolynomial, DegreeOfDominance, HatFamily
from clineshoot.problem import problem_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"

pytestmark = pytest.mark.skipif(not README.exists(), reason="README not present")


def test_json_blocks_parse():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        problem_from_dict(json.loads(block))


def test_schema_names_every_kind():
    text = README.read_text()
    for cls in (DegreeOfDominance, HatFamily, ArctanDamped, CustomPolynomial):
        assert f"`{cls.KIND}`" in text
    assert "`coeffs`" in text


def library_list() -> dict:
    """Module -> the names its README Library bullet lists."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for bullet in re.findall(r"^- .*?(?=\n- |\n\n|\Z)", section, flags=re.M | re.S):
        module, names = re.match(r"- `([\w.]+)`[^:]*:(.*)", bullet, flags=re.S).groups()
        listed[module] = re.findall(r"`(\w+)`", names)
    return listed


def test_library_list_is_the_export_list():
    # a name added to or dropped from the package surface must be added to
    # or dropped from the README's clineshoot bullet too; every other name
    # is listed under the module that defines it
    listed = library_list()
    exported = listed.pop("clineshoot")
    assert sorted(exported) == sorted(clineshoot.__all__)
    home = {name: module for module, names in listed.items() for name in names}
    for name in set(exported) - {"__version__"}:   # __version__ is the package's own
        assert getattr(clineshoot, name) is getattr(importlib.import_module(home[name]), name)
    for module, names in listed.items():
        for name in names:
            assert getattr(importlib.import_module(module), name).__module__ == module


def test_library_example_runs(prop1_search, capsys):
    # the three names the package keeps are the ones this example imports
    block, = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    exec(block, {})
    clines = prop1_search[0].clines
    assert capsys.readouterr().out.splitlines() == [
        f"{c.c} {c.terminal_u} {c.necessary_integral}" for c in clines]
    assert len(clines) == 3
