"""Byte-for-byte guard on the O_3(q) sweep and the transitive
classification: each command's output must match its file in
tests/golden/."""

import io
import pathlib

import pytest

from orthomono.cli import build_parser, cmd_check_theorem, cmd_maximal

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv", [
    ["check-theorem", "3", "3"],
    ["check-theorem", "3", "5"],
    ["maximal", "3", "5"],
    ["maximal", "5", "3"],
    ["maximal", "3", "7"],
    ["maximal", "3", "9"],
    ["check-theorem", "3", "7"],
])
def test_cli_output_matches_golden(argv):
    handler = {"check-theorem": cmd_check_theorem,
               "maximal": cmd_maximal}[argv[0]]
    out = io.StringIO()
    assert handler(build_parser().parse_args(argv), out=out) == 0
    assert out.getvalue() == (GOLDEN / ("_".join(argv) + ".txt")).read_text()
