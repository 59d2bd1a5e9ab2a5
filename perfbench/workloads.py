"""The benchmark's three workloads: fixed op lists, instantiated per seed.

Each workload is a closed loop with one client: the next op starts when the
previous one returns.  The op lists are fixed; the seed picks the hidden
position, the scalar of the form and the op order (gen.py).

certify-prime -- `analyze` over GF(3), GF(5) and GF(7).  Groups 2^n:K for
    K in {C_n, D_n, AGL(1,p)}, n in {3, 5, 7, 9}, |G| from 24 to 5376, plus
    two-level block groups of order 576.  Eleven of the nineteen groups to
    certify come with more than six natural generators (orthomono's batched
    prime-field closure), the others with two or three random generators
    (Dimino's closure).  One random set per list has no nullity-one word,
    so the irreducibility test spins every line.  Four of the twenty-three
    ops are refusals: even dimension, an intransitive K, O_3(7), a
    non-isometry.  Why: the recursion, enumeration, derived series,
    stabilizer, transport and verifier do most of the work; the field
    tables and the Cayley-table module do none, and the refusals take the
    early exits.
certify-ext -- the same families over GF(9), GF(25) and GF(27), |G| up to
    640, with O_3(9) as the non-solvable refusal; four of the nineteen ops
    are refusals.  Why: table-driven extension-field arithmetic
    (FieldSpec.mat_mul) takes over half the self time here and none on
    certify-prime, and enumeration always takes the Dimino path.
sweep -- `check-theorem 3 q`, `maximal 3 q` and `maximal 5 q` for q in
    {3, 5, 7}, in a seeded order, with `check-theorem 3 7` and `maximal 3 3`
    listed twice and `maximal 3 5` three times (thirteen ops).  Why: Cayley
    tables, canonical_key, closure and the maximality sweep do most of the
    work; the monomial layer runs on many tiny groups instead of a few
    large ones.  Left out for run length: `maximal 7 3`, O_3(11) and
    `maximal 5 3 --long` (30 s or more each).

Shapes that keep the rank statistics steady from seed to seed and for any
pass count.  The seed changes what each op costs a little (hidden position)
and the machine's speed changes how many passes fit in a run, so neither
statistic may sit on the boundary between two different ops:
  op_p50_ms    each list has an odd number of ops, built around several
               copies of one natural-generator template or command (the
               "anchor"; five copies, each in its own hidden position, in
               the certify lists, three of `maximal 3 5` in sweep) with as
               many ops clearly cheaper as clearly dearer, so the median
               falls among the anchor copies.
  op_tail_ms   each certify list ends in a cluster of its slowest ops
               (four of 1 s or more in certify-prime, five of about 0.7 s
               in certify-ext), so for three or more passes the tail falls
               among them.  The sweep list is short (3 to 4 s) and holds
               `check-theorem 3 7`, by far its slowest op, twice, so a 30 s
               run holds fifteen to twenty of them and the tail falls in
               their lower half.

Which per-layer metric should move which end-to-end metric, and where:

  field.*      wall_s                              certify-ext
  linalg.*     wall_s, op_tail_ms                  certify-*
  form.*       op_p50_ms                           certify-*
  group.*      wall_s, op_tail_ms, peak_rss_mb     certify-prime
  tablegrp.*   wall_s                              sweep
  modrep.*     op_p50_ms                           certify-*, sweep
  monomial.*   wall_s, op_tail_ms                  certify-prime
  wreath.*     wall_s                              sweep
  cli.*        op_p50_ms                           certify-*
"""

import json
import random

import gen


def _w(n, K, q, gens, **kw):
    return dict(family="wreath", n=n, K=K, q=q, gens=gens, **kw)


def _block(q, gens, **kw):
    return dict(family="block", q=q, gens=gens, **kw)


CERTIFY_PRIME = [
    # cheaper than the anchor
    _w(3, "C", (7, 1), "natural"),
    _w(3, "D", (5, 1), "random"),
    _w(5, "C", (3, 1), "natural"),
    _w(5, "C", (7, 1), "random"),
    _w(5, "AGL", (3, 1), "random", count=3),
    # refusals, all cheaper than the anchor
    _w(4, "C", (5, 1), "natural"),
    dict(family="intransitive", n=5, q=(7, 1), gens="natural"),
    dict(family="orthogonal", q=(7, 1)),
    _w(5, "C", (7, 1), "natural", breaks="nonisometry"),
    # the anchor
    *[_w(5, "AGL", (5, 1), "natural")] * 5,
    # dearer than the anchor
    _w(7, "C", (5, 1), "natural"),
    _w(5, "D", (5, 1), "random", fallback=True),
    _block((3, 1), "natural"),
    _block((7, 1), "natural"),
    _w(7, "D", (7, 1), "random"),
    # the tail
    _w(9, "C", (3, 1), "random"),
    _w(9, "C", (7, 1), "random"),
    _w(7, "AGL", (5, 1), "random"),
    _w(7, "AGL", (3, 1), "natural"),
]

CERTIFY_EXT = [
    # cheaper than the anchor
    _w(3, "D", (5, 2), "random"),
    _w(3, "D", (3, 2), "random", fallback=True),
    _w(5, "D", (3, 2), "random"),
    # refusals, all cheaper than the anchor
    _w(4, "C", (5, 2), "natural"),
    dict(family="intransitive", n=5, q=(3, 2), gens="natural"),
    dict(family="orthogonal", q=(3, 2)),
    _w(5, "C", (3, 3), "natural", breaks="nonisometry"),
    # the anchor
    *[_w(5, "C", (3, 2), "natural")] * 5,
    # dearer than the anchor
    _w(5, "AGL", (3, 3), "random", count=3),
    _w(5, "AGL", (5, 2), "random"),
    # the tail
    _block((3, 3), "random"),
    _block((5, 2), "random"),
    _w(5, "D", (3, 2), "natural"),
    _w(5, "D", (3, 3), "natural"),
    _w(5, "D", (5, 2), "natural"),
]

# A singular generator: orthomono raises an unmapped AlgebraError for it
# today.  Run once per run outside the timed list and reported on its own
# line, so the op lists hold only ops that are expected to succeed.
MALFORMED = {
    "certify-prime": _w(5, "C", (3, 1), "natural", breaks="singular"),
    "certify-ext": _w(5, "C", (3, 2), "natural", breaks="singular"),
}

SWEEP = [(cmd, n, q) for q in (3, 5, 7)
         for cmd, n in (("check-theorem", 3), ("maximal", 3), ("maximal", 5))]
SWEEP += [("check-theorem", 3, 7), ("maximal", 3, 3)] + [("maximal", 3, 5)] * 2

WORKLOADS = ("certify-prime", "certify-ext", "sweep")
MANIFEST_KEYS = ("label", "n", "q", "order", "ngens", "expect", "reason")


def _analyze_op(spec, label, rng, directory):
    text, op = gen.make_group_op(dict(spec, label=label), rng)
    path = directory / f"{label}.grp"
    path.write_text(text)
    op["argv"] = ["analyze", str(path)]
    return op


def build(workload, seed, directory):
    """(op list, malformed probe op or None) for one seed; group files are
    written under `directory`."""
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "sweep":
        ops = [{"label": f"{cmd}-{n}-{q}", "n": n, "q": q, "expect": cmd,
                "argv": [cmd, str(n), str(q)]}
               for cmd, n, q in rng.sample(SWEEP, len(SWEEP))]
        return ops, None
    specs = CERTIFY_PRIME if workload == "certify-prime" else CERTIFY_EXT
    ops = [_analyze_op(spec, f"op{i:02d}", rng, directory)
           for i, spec in enumerate(specs)]
    rng.shuffle(ops)
    probe = _analyze_op(MALFORMED[workload], "malformed", rng, directory)
    manifest = [{k: op[k] for k in MANIFEST_KEYS} for op in ops + [probe]]
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return ops, probe
