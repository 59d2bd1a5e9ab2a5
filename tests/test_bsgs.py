"""The permutation BSGS (deterministic Schreier-Sims) against independent
oracles: listing the group, sympy's PermutationGroup, and the closure order
of every bench and golden group, read back from its certificate."""

import io
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from orthomono import cli
from orthomono.field import GF
from orthomono.form import QuadraticSpace
from orthomono.group import PermGroup
from orthomono.linalg import Matrix
from orthomono.wreath import transitive_solvable_subgroups, wreath_construct
from test_monomial import deep_block_group

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("n", range(1, 8))
def test_order_and_membership_of_named_groups(n):
    want = {"S": math.factorial(n), "C": n, "D": 2 * n if n > 2 else n}
    everything = PermGroup.symmetric(n).enumerate()
    for kind, build in (("S", PermGroup.symmetric), ("C", PermGroup.cyclic),
                        ("D", PermGroup.dihedral)):
        K = build(n)
        listed = set(K.enumerate())
        assert K.order == len(listed) == want[kind]
        assert all((p in K) == (p in listed) for p in everything)
    assert tuple(range(n + 1)) not in PermGroup.symmetric(n)
    if n > 1:
        assert (0,) * n not in PermGroup.symmetric(n)


def permutation_lists(max_degree=20):
    return st.integers(1, max_degree).flatmap(lambda d: st.tuples(
        st.lists(st.permutations(range(d)), min_size=1, max_size=4),
        st.lists(st.permutations(range(d)), min_size=1, max_size=3)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(permutation_lists())
def test_order_and_membership_match_sympy(case):
    gens, probes = case
    K = PermGroup(len(gens[0]), gens)
    ref = PermutationGroup([Permutation(g) for g in gens])
    assert K.order == ref.order()
    for p in probes + gens:
        assert (tuple(p) in K) == ref.contains(Permutation(p))


def test_signed_points():
    # g w_0 = -w_1, g w_1 = w_0: +w_0 -> -w_1, -w_0 -> +w_1, +w_1 -> +w_0
    K = PermGroup.signed([((1, 0), (-1, 1))])
    assert K.gens == ((3, 2, 0, 1),)
    assert K.order == 4


def certified_orders(monkeypatch, commands):
    """(BSGS order of the certificate's signed permutations, closure order
    of G) for each certificate that the CLI commands verify."""
    seen = []
    real = cli.check_certificate

    def spy(cert, G):
        seen.append((PermGroup.signed(cert.generator_images).order,
                     len(G._span())))
        return real(cert, G)

    monkeypatch.setattr(cli, "check_certificate", spy)
    parser = cli.build_parser()
    for argv in commands:
        handler = {"analyze": cli.cmd_analyze,
                   "check-theorem": cli.cmd_check_theorem}[argv[0]]
        handler(parser.parse_args(argv), out=io.StringIO())
    return seen


def test_certificate_order_is_the_closure_order_on_golden_groups(
        tmp_path, monkeypatch):
    files = []
    for n, q, kspec in (("5", "3", "C"), ("5", "5", "1,2,3,4,0;0,2,4,1,3"),
                        ("5", "9", "D"), ("7", "3", "D"), ("7", "5", "C")):
        path = tmp_path / f"w{len(files)}.grp"
        args = cli.build_parser().parse_args(
            ["wreath", n, q, kspec, "-o", str(path)])
        assert cli.cmd_wreath(args, out=io.StringIO()) == 0
        files.append(path)
    G, space = deep_block_group()
    files.append(tmp_path / "deep.grp")
    files[-1].write_text(cli.write_group_file(space, G.gens))
    seen = certified_orders(
        monkeypatch, [["analyze", str(f)] for f in files]
        + [["check-theorem", "3", q] for q in ("3", "5", "7")])
    assert [order for order, _ in seen[:6]] == \
        [160, 640, 320, 1792, 896, 576]
    assert len(seen) > 6 + 3
    assert all(bsgs == closed for bsgs, closed in seen)


@pytest.mark.parametrize("n, q", [(3, 5), (3, 7), (3, 9), (5, 3)])
def test_wreath_order_is_the_closure_order_on_maximal_classes(n, q):
    F = GF(3, 2) if q == 9 else GF(q)
    space = QuadraticSpace(F, Matrix.identity(F, n))
    for t in transitive_solvable_subgroups(n):
        W = wreath_construct(t.group, space)
        assert W.group._closure is None
        assert W.order == 2 ** n * t.order == W.group.order


@pytest.mark.parametrize("workload", ["certify-prime", "certify-ext"])
def test_certificate_order_is_the_closure_order_on_bench_groups(
        tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    ops, _ = workloads.build(workload, 7331, tmp_path)
    seen = certified_orders(monkeypatch, [op["argv"] for op in ops])
    certified = [op["order"] for op in ops if op["expect"] == "cert"]
    assert [bsgs for bsgs, _ in seen] == certified
    assert all(bsgs == closed for bsgs, closed in seen)
