"""Byte-for-byte guard on the O_3(q) sweep, the transitive classification
and the certificates of the wreath ladder and of a three-level recursion:
each command's output must match its file in tests/golden/."""

import io
import pathlib

import pytest

from orthomono.cli import build_parser, cmd_analyze, cmd_check_theorem, \
    cmd_maximal, cmd_wreath, write_group_file
from orthomono.group import MatrixGroup
from test_monomial import deep_block_group

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv", [
    ["check-theorem", "3", "3"],
    ["check-theorem", "3", "5"],
    ["maximal", "3", "5"],
    ["maximal", "5", "3"],
    ["maximal", "3", "7"],
    ["maximal", "3", "9"],
    ["check-theorem", "3", "7"],
    ["check-theorem", "3", "9"],
])
def test_cli_output_matches_golden(argv):
    handler = {"check-theorem": cmd_check_theorem,
               "maximal": cmd_maximal}[argv[0]]
    out = io.StringIO()
    assert handler(build_parser().parse_args(argv), out=out) == 0
    assert out.getvalue() == (GOLDEN / ("_".join(argv) + ".txt")).read_text()


@pytest.mark.parametrize("n, q, kspec, name", [
    ("5", "3", "C", "C"),
    ("5", "5", "1,2,3,4,0;0,2,4,1,3", "AGL"),   # AGL(1,5)
    ("5", "9", "D", "D"),
    ("7", "3", "D", "D"),
    ("7", "5", "C", "C"),
])
def test_wreath_certificate_matches_golden(tmp_path, n, q, kspec, name):
    group_file = tmp_path / "w.grp"
    args = build_parser().parse_args(
        ["wreath", n, q, kspec, "-o", str(group_file)])
    assert cmd_wreath(args, out=io.StringIO()) == 0
    out = io.StringIO()
    assert cmd_analyze(build_parser().parse_args(
        ["analyze", str(group_file)]), out=out) == 0
    golden = GOLDEN / f"wreath_{n}_{q}_{name}.txt"
    assert out.getvalue() == golden.read_text()


def test_analyze_certifies_a_group_over_the_bound(tmp_path):
    # |G| = 160 exceeds --bound 100, but no derived term or stabilizer
    # does, and G itself is never closed
    group_file = tmp_path / "w.grp"
    args = build_parser().parse_args(
        ["--bound", "100", "wreath", "5", "3", "C", "-o", str(group_file)])
    assert cmd_wreath(args, out=io.StringIO()) == 0
    out = io.StringIO()
    assert cmd_analyze(build_parser().parse_args(
        ["--bound", "100", "analyze", str(group_file)]), out=out) == 0
    assert out.getvalue() == (GOLDEN / "wreath_5_3_C.txt").read_text()


def analyze_output(group_file):
    out = io.StringIO()
    assert cmd_analyze(build_parser().parse_args(
        ["analyze", str(group_file)]), out=out) == 0
    return out.getvalue()


def test_analyze_sorts_no_element_list(tmp_path, monkeypatch):
    group_file = tmp_path / "w.grp"
    args = build_parser().parse_args(
        ["wreath", "7", "3", "D", "-o", str(group_file)])
    assert cmd_wreath(args, out=io.StringIO()) == 0

    def refuse(self):
        raise AssertionError("analyze built a sorted element list")

    monkeypatch.setattr(MatrixGroup, "enumerate", refuse)
    assert analyze_output(group_file) == \
        (GOLDEN / "wreath_7_3_D.txt").read_text()


def test_three_level_certificate_matches_golden(tmp_path):
    # 9 = 3 parts of dimension 3, each split into 3 lines: the transport
    # words of two levels above the lines
    G, space = deep_block_group()
    group_file = tmp_path / "deep.grp"
    group_file.write_text(write_group_file(space, G.gens))
    assert analyze_output(group_file) == \
        (GOLDEN / "deep_block.txt").read_text()
