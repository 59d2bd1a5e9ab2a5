"""Tests of the benchmark itself: generator, checker, tracer and a smoke run.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import io
import json
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gf import Field  # noqa: E402
from orthomono import GF, cli  # noqa: E402


def _certify(spec, seed=0):
    text, op = gen.make_group_op(dict(spec, label="t"), random.Random(seed))
    field, space, gens = cli.parse_group_file(text)
    from orthomono.group import MatrixGroup
    from orthomono.monomial import check_certificate, monomialize
    G = MatrixGroup(gens, space=space)
    cert = monomialize(G, space)
    assert check_certificate(cert, G).ok
    return op, cli.write_certificate(cert, True)


@pytest.mark.parametrize("q", [(7, 1), (3, 2)])
def test_checker_accepts_certificate_and_rejects_tampering(q):
    op, cert = _certify(dict(family="wreath", n=5, K="D", q=q,
                             gens="natural"))
    F = op["field"]
    assert check.check_certificate(F, op["gram"], op["gens"], cert) is None

    lines = cert.splitlines()
    i = next(j for j, ln in enumerate(lines) if ln.startswith("gen 0 "))
    head, signs = lines[i].split(" signs ")
    signs = signs.split()
    signs[0] = "-" if signs[0] == "+" else "+"
    lines_sign = lines[:i] + [f"{head} signs {' '.join(signs)}"] + \
        lines[i + 1:]
    assert check.check_certificate(F, op["gram"], op["gens"],
                                   "\n".join(lines_sign)) is not None

    row = lines.index("basis") + 1
    a = next(a for a in range(2, F.q) if F.mul_t[a, a] != 1)
    entries = check._entries(F, lines[row])
    scaled = " ".join(F.fmt(F.mul_t[a, e]) for e in entries)
    lines_row = lines[:row] + [scaled] + lines[row + 1:]
    assert check.check_certificate(F, op["gram"], op["gens"],
                                   "\n".join(lines_row)) is not None


def test_canonical_modulus_matches_orthomono():
    for p, k in [(3, 2), (5, 2), (3, 3)]:
        assert Field(p, k).modulus == GF(p, k).modulus


def test_generator_is_byte_deterministic(tmp_path):
    for w in ("certify-prime", "certify-ext"):
        workloads.build(w, 7, tmp_path / "a" / w)
        workloads.build(w, 7, tmp_path / "b" / w)
        workloads.build(w, 8, tmp_path / "c" / w)
        names = sorted(p.name for p in (tmp_path / "a" / w).iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b" / w).iterdir())
        for name in names:
            a = (tmp_path / "a" / w / name).read_bytes()
            assert a == (tmp_path / "b" / w / name).read_bytes()
        assert (tmp_path / "a" / w / "op00.grp").read_bytes() != \
            (tmp_path / "c" / w / "op00.grp").read_bytes()


def test_generator_records_and_refusal_share(tmp_path):
    ops, probe = workloads.build("certify-prime", 3, tmp_path)
    refusals = [op for op in ops if op["expect"] == "refuse"]
    assert 0.15 <= len(refusals) / len(ops) <= 0.25
    assert len(ops) % 2 == 1
    assert probe["expect"] == "handled"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [m["label"] for m in manifest] == \
        [op["label"] for op in ops] + ["malformed"]
    assert all(set(m) == set(workloads.MANIFEST_KEYS) for m in manifest)


def test_sweep_checker_knows_the_answers():
    parser = cli.build_parser()
    out = io.StringIO()
    assert cli.cmd_maximal(parser.parse_args(["maximal", "3", "5"]),
                           out=out) == 0
    assert check.maximal_output(3, 5, out.getvalue()) is None
    assert check.maximal_output(5, 5, out.getvalue()) is not None
    out = io.StringIO()
    cli.cmd_check_theorem(parser.parse_args(["check-theorem", "3", "3"]),
                          out=out)
    assert check.check_theorem_output(3, out.getvalue()) is None
    assert check.check_theorem_output(5, out.getvalue()) is not None


def test_tracer_counts_and_restores():
    from orthomono import group, monomial
    original = group.setwise_stabilizer
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert monomial.setwise_stabilizer is not original
        assert group.setwise_stabilizer is monomial.setwise_stabilizer
        _certify(dict(family="wreath", n=3, K="C", q=(5, 1), gens="natural"))
    finally:
        tracer.uninstall()
    assert monomial.setwise_stabilizer is original
    m = tracer.per_pass(1)
    assert m["monomial.levels"] == 2
    assert m["group.elements"] > 0
    assert m["tablegrp.canonical_key.calls"] == 0
    assert m["monomial.monomialize.self_s"] > 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m for m, _ in spans.PER_LAYER] + \
        [f"src.lines.{m}" for m in spans.SRC_MODULES] + ["src.lines.total"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert [m["name"] for m in spec["end_to_end"]] == \
        [m for m, _ in run.END_TO_END]


def test_reference_speed_scales_by_nearby_probes():
    ref, w = run.REFERENCE_S, run.PROBE_WINDOW
    lats = [1.0] * (4 * w)
    assert run.at_reference_speed(lats, [ref] * len(lats)) == lats
    # the machine runs at half speed for the second half of the run
    probes = [ref] * (2 * w) + [2 * ref] * (2 * w)
    scaled = run.at_reference_speed(lats, probes)
    assert scaled[0] == 1.0 and scaled[-1] == 0.5


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_smoke_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(ROOT, "--workload", "certify-ext", "--seed", "1",
                    "--seconds", "0.1", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= len(workloads.CERTIFY_EXT)
        assert sorted(result["metrics"]) == \
            sorted(m["name"] for m in spec[group])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()
