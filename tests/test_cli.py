import io
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


@pytest.mark.parametrize("q", [5, 7])
def test_check_theorem_tests_each_class_once(monkeypatch, q):
    # each class is decided once: by a common fixed line in the table, or
    # by the command's own irreducibility test, which stands in for the
    # one in monomialize's hypothesis check
    import orthomono.cli as cli
    import orthomono.monomial as monomial

    def keeping(log, real):
        def wrapper(*args):
            log.append(real(*args))
            return log[-1]
        return wrapper

    tables, classes, verdicts, res_tests = [], [], [], []
    monkeypatch.setattr(cli, "fixed_line_table",
                        keeping(tables, cli.fixed_line_table))
    monkeypatch.setattr(cli.CayleyTable, "solvable_subgroup_classes",
                        keeping(classes,
                                cli.CayleyTable.solvable_subgroup_classes))
    monkeypatch.setattr(cli, "is_irreducible",
                        keeping(verdicts, cli.is_irreducible))
    monkeypatch.setattr(monomial, "is_irreducible",
                        keeping(res_tests, monomial.is_irreducible))
    hypotheses = []
    monkeypatch.setattr(monomial, "_check_hypotheses",
                        lambda *a: hypotheses.append(a))
    code, output = run(["check-theorem", "3", str(q)])
    assert code == 0 and "failures: 0" in output
    assert hypotheses == []
    [fixes], [classes] = tables, classes
    screened = sum(bool(fixes[:, H].all(axis=1).any()) for H in classes)
    assert screened > 0
    assert screened + len(verdicts) == len(classes)
    # in dimension 3 the screen is exact: every class it lets through is
    # irreducible and certified, with one H_res test per certificate
    ran = int(output.split("irreducible solvable classes: ")[1].split(",")[0])
    assert [bool(v) for v in verdicts] == [True] * ran and ran > 0
    assert len(res_tests) == ran


@pytest.mark.parametrize("q", [3, 5])
def test_check_theorem_dimension_one(q):
    # the one line of F^1 is the whole space: no fixed-line screen applies
    code, output = run(["check-theorem", "1", str(q)])
    assert code == 0
    assert output == (f"O_1({q}): order 2, 2 solvable subgroup classes\n"
                      "  class order 1: certificate ok (c = 1)\n"
                      "  class order 2: certificate ok (c = 1)\n"
                      "irreducible solvable classes: 2, failures: 0\n")


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


def test_prime_power_q_builds_the_extension_field(tmp_path):
    # regression: GF(q) read q = 9 as the prime and ended in a traceback
    code, output = run(["check-theorem", "3", "9"])
    assert code == 0
    assert output.splitlines()[0] == \
        "O_3(9): order 1440, 71 solvable subgroup classes"
    assert output.splitlines()[-1] == \
        "irreducible solvable classes: 5, failures: 0"
    code, output = run(["maximal", "3", "9"])
    assert code == 0
    assert output.splitlines()[-1] == \
        "  wreath over order-6 class in O_3(9): maximal"
    path = tmp_path / "w9.grp"
    code, _ = run(["wreath", "3", "9", "S", "-o", str(path)])
    assert code == 0
    field, _, gens = parse_group_file(path.read_text())
    from orthomono.group import MatrixGroup
    assert field.q == 9 and MatrixGroup(gens).order == 48


def test_analyze_over_the_largest_prime_field(tmp_path):
    # regression: over GF(65521) a product of two indices overflowed int32
    # and the certificate failed with NotInvariant
    path = tmp_path / "w.grp"
    assert run(["wreath", "3", "65521", "S", "-o", str(path)])[0] == 0
    code, output = run(["analyze", str(path)])
    assert code == 0
    assert output.splitlines()[1] == "field p=65521 k=1"
    assert output.splitlines()[-1] == "verified: true"


@pytest.mark.parametrize("q", [15, 1])
def test_q_not_an_odd_prime_power_exits_2(q):
    for argv in (["check-theorem", "3", str(q)], ["maximal", "3", str(q)],
                 ["wreath", "3", str(q), "S"]):
        code, output = run(argv)
        assert code == 2
        assert output.splitlines() == \
            [f"error: q = {q} is not an odd prime power"]


def test_q_over_the_field_policy_bound_exits_4():
    # regression: GF(65537) raised a bare AlgebraError, ending in a traceback
    code, output = run(["check-theorem", "3", "65537"])
    assert code == 4
    assert output.splitlines() == \
        ["bound exceeded: field size 65537 exceeds policy bound 2^16"]


@pytest.mark.parametrize("argv", [
    ["--bound", "10", "check-theorem", "3", "3"],
    ["--bound", "10", "maximal", "3", "3"],
    ["--bound", "10", "wreath", "3", "3", "S"],
])
def test_bound_exceeded_in_every_command(argv):
    # regression: check-theorem ended in a BoundExceeded traceback, and
    # wreath ignored --bound
    code, output = run(argv)
    assert code == 4
    assert output.splitlines()[-1] == "bound exceeded: group exceeds bound 10"


def test_wreath_over_s13_writes_its_file(tmp_path):
    # regression: K = S_13 was listed element by element and exited 4
    # (permutation group too big); the orders now come from BSGSs
    path = tmp_path / "w.grp"
    code, output = run(["wreath", "13", "3", "S", "-o", str(path)])
    assert code == 0
    assert output == f"group file written to {path}\n"
    header = path.read_text().splitlines()[0]
    assert header.endswith(f"order {2 ** 13 * 6227020800}")


@pytest.mark.parametrize("text, line", [
    ("field p=3 k=2\ndim 1\ngram\n(1 0)\ngen\n(2 y)\n",
     "parse error: line 6: bad entry '2 y'"),
    ("field p=3 k=2\nmodulus 1 x 1\ndim 1\ngram\n(1 0)\ngen\n(2 0)\n",
     "parse error: line 2: bad modulus '1 x 1'"),
    ("field p=3 k=1\ndim 0\ngram\ngen\n", "parse error: line 2: bad dimension"),
    ("field p=3 k=1\ndim -1\ngram\ngen\n",
     "parse error: line 2: bad dimension"),
], ids=["paren-entry", "modulus", "dim-0", "dim-negative"])
def test_malformed_group_file_exits_1(tmp_path, text, line):
    # regression: each ended in a ValueError traceback
    path = tmp_path / "bad.grp"
    path.write_text(text)
    code, output = run(["analyze", str(path)])
    assert code == 1
    assert output.splitlines() == [line]


@pytest.mark.parametrize("kspec, part", [("1,2,x", "1,2,x"), ("S;", "S")])
def test_malformed_kspec_exits_1(kspec, part):
    # regression: a non-integer image ended in a ValueError traceback
    code, output = run(["wreath", "3", "3", kspec])
    assert code == 1
    assert output.splitlines() == [f"parse error: bad permutation spec {part!r}"]


def test_non_prime_field_exits_2(tmp_path):
    # regression: exited 3 as "error: AlgebraError: p = 4 is not prime"
    path = tmp_path / "p4.grp"
    path.write_text("field p=4 k=1\ndim 1\ngram\n1\ngen\n1\n")
    code, output = run(["analyze", str(path)])
    assert code == 2
    assert output.splitlines() == ["error: p = 4 is not prime"]


@pytest.mark.parametrize("head, body, code, line", [
    ("field p=3 k=0", "1\ngen\n1", 2, "error: k = 0 is not a positive degree"),
    ("field p=3 k=2\nmodulus 2 0 2", "(1 0)\ngen\n(2 0)", 2,
     "error: modulus is not monic of degree k"),
    ("field p=3 k=2\nmodulus 1 1 1", "(1 0)\ngen\n(2 0)", 2,
     "error: modulus x^2 + x + 1 is reducible over GF(3)"),
    ("field p=3 k=11", "1\ngen\n1", 4,
     "bound exceeded: field size 3^11 exceeds policy bound 2^16"),
    ("field p=3 k=8", "(1 0 0 0 0 0 0 0)\ngen\n(2 0 0 0 0 0 0 0)", 0,
     "verified: true"),
], ids=["k-0", "not-monic", "reducible", "k-11", "k-8"])
def test_field_line_refusals_have_a_family(tmp_path, head, body, code, line):
    # regression: each exited 3 as "error: AlgebraError: ...", k=8 with
    # "lookup tables unsupported for field size 6561"
    path = tmp_path / "field.grp"
    path.write_text(f"{head}\ndim 1\ngram\n{body}\n")
    got, output = run(["analyze", str(path)])
    assert got == code
    assert output.splitlines()[-1] == line


@pytest.mark.parametrize("argv", [
    ["check-theorem", "{n}", "3"], ["wreath", "{n}", "3", "S"],
    ["maximal", "{n}", "3"]], ids=["check-theorem", "wreath", "maximal"])
@pytest.mark.parametrize("n", [-1, 0])
def test_dimension_below_one_exits_1(argv, n):
    # regression: a negative N ended in a numpy ValueError traceback
    code, output = run([a.format(n=n) for a in argv])
    assert code == 1
    assert output.splitlines() == [f"parse error: dimension {n} is not positive"]


def test_no_suitable_word_is_a_bound(tmp_path):
    # regression: the line-count bound of the irreducibility search exited 3
    n = 9
    rows = ["\n".join(" ".join(str(c if i == j else 0) for j in range(n))
                      for i in range(n)) for c in (1, 6)]
    path = tmp_path / "minus_identity.grp"
    path.write_text(f"field p=7 k=1\ndim {n}\ngram\n{rows[0]}\n"
                    f"gen\n{rows[1]}\n")
    code, output = run(["analyze", str(path)])
    assert code == 4
    assert output.splitlines() == [
        "bound exceeded: no nullity-one word and 6725601 lines exceed the "
        "bound"]


# -- property: every input ends in an exit code in 0-4, never a traceback --

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=100, suppress_health_check=[HealthCheck.too_slow])
# dimensions, field orders and element bounds stay small so that no input
# runs long (check-theorem 5 9 lists 7381 reflections before any bound
# applies, maximal 7 classifies S_7), and --long is left out
ORDERS = st.sampled_from([0, 1, 2, 3, 4, 5, 9, 15, 65537])
BOUNDS = st.integers(-1, 300).map(str)
KSPECS = st.one_of(st.sampled_from(["S", "C", "D", "max", "1,2,0", "1,0;"]),
                   st.text("0123,;Sx", max_size=8))
COMMANDS = st.one_of(
    st.tuples(st.just("check-theorem"), st.integers(-2, 4), ORDERS),
    st.tuples(st.just("maximal"), st.integers(-2, 6), ORDERS),
    st.tuples(st.just("wreath"), st.integers(-2, 5), ORDERS, KSPECS))


@FUZZ
@given(bound=BOUNDS, command=COMMANDS)
def test_random_argv_exits_with_a_code(bound, command):
    code, _ = run(["--bound", bound] + [str(a) for a in command])
    assert type(code) is int and 0 <= code <= 4


# the signed permutations of three points over GF(9), written with an
# explicit modulus and two-coordinate entries
W3_GF9_FILE = """\
field p=3 k=2
modulus 1 0 1
dim 3
gram
(1 0) (0 0) (0 0)
(0 0) (1 0) (0 0)
(0 0) (0 0) (1 0)
gen
(0 0) (1 0) (0 0)
(1 0) (0 0) (0 0)
(0 0) (0 0) (1 0)
gen
(0 0) (0 0) (1 0)
(1 0) (0 0) (0 0)
(0 0) (1 0) (0 0)
gen
(2 0) (0 0) (0 0)
(0 0) (1 0) (0 0)
(0 0) (0 0) (1 0)
"""
# the same group over GF(3^8), with the canonical modulus
W3_GF6561_FILE = W3_GF9_FILE.replace("k=2\nmodulus 1 0 1", "k=8") \
    .replace(")", " 0 0 0 0 0 0)")
SEED_FILES = [O33_FILE, EVEN_FILE, SINGULAR_FILE, W3_GF9_FILE, W3_GF6561_FILE]
TOKENS = ["0", "1", "2", "4", "-1", "x", "(1", "2)", "(2 y)", "(", ")", "dim",
          "gram", "gen", "field", "modulus", "p=4", "k=0", "k=2", "k=8",
          "k=11", "#"]


@st.composite
def mutated_group_files(draw):
    """A seed file after one to three mutations: a token dropped,
    duplicated or replaced, or two lines swapped."""
    lines = [line.split() for line in
             draw(st.sampled_from(SEED_FILES)).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, len(lines) - 1)), \
            draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "replace", "swap"]))
        if op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif lines[i]:
            k = draw(st.integers(0, len(lines[i]) - 1))
            if op == "drop":
                del lines[i][k]
            elif op == "duplicate":
                lines[i].insert(k, lines[i][k])
            else:
                lines[i][k] = draw(st.sampled_from(TOKENS))
    return "\n".join(" ".join(line) for line in lines) + "\n"


@FUZZ
@given(text=mutated_group_files(),
       flags=st.lists(st.sampled_from(["--no-form", "--explain"]),
                      unique=True))
def test_mutated_group_file_exits_with_a_code(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "mutated.grp"
        path.write_text(text)
        code, _ = run(["--bound", "2000", "analyze", str(path)] + flags)
    assert type(code) is int and 0 <= code <= 4


def test_no_nullity_one_word_over_gf37_certifies(tmp_path):
    # 2^5:D_5 from a generator pair with no nullity-one word, by a fixed
    # search: a line sweep would spin (37^5 - 1) / 36 = 1926221 lines, over
    # the bound, and exit 4; the Holt-Rees pass decides it
    import random
    from orthomono.group import MatrixGroup
    from orthomono.linalg import kernel
    from orthomono.modrep import _word_candidates
    F = GF(37)
    space = QuadraticSpace(F, Matrix.identity(F, 5))
    W = wreath_construct(PermGroup.dihedral(5), space).group
    elements = W.enumerate()
    rng = random.Random(0)
    while True:
        pair = rng.sample(elements, 2)
        if all(kernel(a).dim != 1 for a in _word_candidates(pair)) and \
                MatrixGroup(pair).order == W.order:
            break
    path = tmp_path / "d5.grp"
    path.write_text(write_group_file(space, pair))
    code, output = run(["analyze", str(path)])
    assert code == 0
    assert output.splitlines()[-1] == "verified: true"
