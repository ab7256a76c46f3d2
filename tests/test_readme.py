"""The README's config examples and schema agree with the parser."""

import json
import re
from pathlib import Path

import pytest

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
