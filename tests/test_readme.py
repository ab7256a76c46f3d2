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
    """Exported name -> defining module, from the README's Library bullets."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for bullet in re.findall(r"^- .*?(?=\n- |\n\n|\Z)", section, flags=re.M | re.S):
        module, names = re.match(r"- `([\w.]+)`[^:]*:(.*)", bullet, flags=re.S).groups()
        for name in re.findall(r"`(\w+)`", names):
            listed[name] = module
    return listed


def test_library_list_is_the_export_list():
    # a name added to or dropped from the package surface must be added to
    # or dropped from the README too
    listed = library_list()
    assert sorted(listed) == sorted(clineshoot.__all__)
    for name, module in listed.items():
        assert getattr(clineshoot, name) is getattr(importlib.import_module(module), name)
