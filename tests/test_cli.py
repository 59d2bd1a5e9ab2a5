import io

import pytest

from orthomono.cli import parse_group_file, write_group_file
from orthomono.errors import ParseError
from orthomono.field import GF
from orthomono.form import QuadraticSpace
from orthomono.group import PermGroup
from orthomono.linalg import Matrix
from orthomono.wreath import wreath_construct

O33_FILE = """\
# O_3(3) given by two reflections and the sign change
field p=3 k=1
dim 3
gram
1 0 0
0 1 0
0 0 1
gen
0 1 0
1 0 0
0 0 1
gen
0 0 1
0 1 0
1 0 0
gen
2 0 0
0 1 0
0 0 1
"""

EVEN_FILE = """\
field p=5 k=1
dim 2
gram
1 0
0 3
gen
4 0
0 4
"""

REDUCIBLE_FILE = """\
field p=5 k=1
dim 3
gram
1 0 0
0 1 0
0 0 1
gen
4 0 0
0 4 0
0 0 4
"""


def run(argv, tmp_path=None):
    out = io.StringIO()
    import orthomono.cli as cli

    handlers = {
        "analyze": cli.cmd_analyze,
        "check-theorem": cli.cmd_check_theorem,
        "wreath": cli.cmd_wreath,
        "maximal": cli.cmd_maximal,
    }
    args = cli.build_parser().parse_args(argv)
    code = handlers[args.command](args, out=out)
    return code, out.getvalue()


def test_parse_round_trip():
    field, space, gens = parse_group_file(O33_FILE)
    assert field is GF(3) or field == GF(3)
    assert space.n == 3
    assert len(gens) == 3
    text = write_group_file(space, gens)
    field2, space2, gens2 = parse_group_file(text)
    assert space2.gram == space.gram
    assert gens2 == gens


def test_parse_extension_entries():
    text = """\
field p=3 k=2
modulus 1 0 1
dim 1
gram
(1 0)
gen
(2 0)
"""
    field, space, gens = parse_group_file(text)
    assert field.q == 9
    assert gens[0].a[0, 0] == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_group_file("dim 3\n")
    with pytest.raises(ParseError):
        parse_group_file("field p=5 k=1\ndim 2\ngram\n1 0\n0 x\n")
    with pytest.raises(ParseError):
        parse_group_file("field p=5 k=1\ndim 1\ngram\n1\n")  # no gens


def test_analyze_success(tmp_path):
    path = tmp_path / "o33.grp"
    path.write_text(O33_FILE)
    code, output = run(["analyze", str(path)])
    assert code == 0
    assert "certificate" in output
    assert "verified: true" in output
    assert "scalar" in output


def test_analyze_even_dimension(tmp_path):
    path = tmp_path / "even.grp"
    path.write_text(EVEN_FILE)
    code, output = run(["analyze", str(path), "--explain"])
    assert code == 2
    assert "dimension even" in output


def test_analyze_reducible(tmp_path):
    path = tmp_path / "red.grp"
    path.write_text(REDUCIBLE_FILE)
    code, output = run(["analyze", str(path)])
    assert code == 2
    assert "not irreducible" in output


def test_analyze_char2(tmp_path):
    path = tmp_path / "c2.grp"
    path.write_text("field p=2 k=1\ndim 1\ngram\n1\ngen\n1\n")
    code, output = run(["analyze", str(path)])
    assert code == 2
    assert "characteristic 2" in output


NON_ISOMETRY_FILE = """\
field p=7 k=1
dim 3
gram
1 0 0
0 1 0
0 0 1
gen
2 0 0
0 1 0
0 0 1
"""


def test_analyze_non_isometry_with_and_without_form_check(tmp_path):
    path = tmp_path / "noniso.grp"
    path.write_text(NON_ISOMETRY_FILE)
    # validated at group construction
    code, output = run(["analyze", str(path)])
    assert code == 2 and "not isometries" in output
    # --no-form defers the check to the hypothesis stage; same verdict
    code, output = run(["analyze", str(path), "--no-form"])
    assert code == 2 and "not isometries" in output


def test_analyze_parse_error(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("not a group file\n")
    code, output = run(["analyze", str(path)])
    assert code == 1


def test_check_theorem_small(tmp_path):
    code, output = run(["check-theorem", "3", "3"])
    assert code == 0
    assert "failures: 0" in output


def test_check_theorem_even_rejected():
    code, output = run(["check-theorem", "2", "5"])
    assert code == 2


def test_wreath_emit_and_reparse(tmp_path):
    path = tmp_path / "w.grp"
    code, output = run(["wreath", "3", "5", "S", "-o", str(path)])
    assert code == 0
    field, space, gens = parse_group_file(path.read_text())
    from orthomono.group import MatrixGroup
    G = MatrixGroup(gens, space=space)
    W = wreath_construct(PermGroup.symmetric(3),
                         QuadraticSpace(GF(5), Matrix.identity(GF(5), 3)))
    assert set(G.enumerate()) == set(W.group.enumerate())


def test_wreath_explicit_kspec(tmp_path):
    path = tmp_path / "wc.grp"
    code, _ = run(["wreath", "3", "5", "1,2,0", "-o", str(path)])
    assert code == 0
    _, _, gens = parse_group_file(path.read_text())
    from orthomono.group import MatrixGroup
    assert MatrixGroup(gens).order == 24


def test_maximal_n3():
    code, output = run(["maximal", "3", "5"])
    assert code == 0
    assert "order 6 (maximal)" in output
    assert "maximal" in output.splitlines()[-1]


def test_maximal_skips_heavy_without_long():
    code, output = run(["maximal", "5", "3"])
    assert code == 0
    assert "skipped" in output
    # the classification itself still lists the three classes
    assert "order 5" in output and "order 10" in output
    assert "order 20 (maximal)" in output


def test_bound_exceeded_exit_code(tmp_path):
    path = tmp_path / "o33.grp"
    path.write_text(O33_FILE)
    code, output = run(["--bound", "10", "analyze", str(path)])
    assert code == 4
    assert "bound" in output


def test_group_file_round_trip_extension_field():
    F9 = GF(3, 2)
    space = QuadraticSpace(F9, Matrix.identity(F9, 2))
    from orthomono.group import perm_matrix
    gens = [perm_matrix(F9, (1, 0)),
            Matrix.diag(F9, [F9.encode((0, 1)), 1])]
    # the second generator is not an isometry; write/parse only
    text = write_group_file(space, gens)
    assert "modulus 1 0 1" in text
    field2, space2, gens2 = parse_group_file(text)
    assert field2.q == 9
    assert gens2 == gens and space2.gram == space.gram


SINGULAR_FILE = """\
field p=5 k=1
dim 3
gram
1 0 0
0 1 0
0 0 1
gen
1 0 0
0 1 0
0 0 0
"""


def test_analyze_singular_generator(tmp_path):
    # regression: ended in an AlgebraError traceback instead of an exit code
    path = tmp_path / "sing.grp"
    path.write_text(SINGULAR_FILE)
    for extra in ([], ["--no-form"]):
        code, output = run(["analyze", str(path)] + extra)
        assert code == 2
        assert "error: generator is singular" in output.splitlines()


def test_analyze_unmapped_error_exits_3(tmp_path, monkeypatch):
    # an error of no mapped family is reported with exit 3, not raised
    import orthomono.cli as cli
    from orthomono.errors import AlgebraError

    def broken(G, space):
        raise AlgebraError("no rule for this")

    monkeypatch.setattr(cli, "monomialize", broken)
    path = tmp_path / "o33.grp"
    path.write_text(O33_FILE)
    code, output = run(["analyze", str(path)])
    assert code == 3
    assert output.splitlines() == ["error: AlgebraError: no rule for this"]
