"""Independent checks of orthomono's outputs.

Certificates are parsed from the text `analyze` prints and checked with
gf.py's arithmetic against the generators the benchmark itself wrote;
nothing from orthomono's own verifier is trusted.  Checking the generators
suffices: signed permutation matrices form a group, so if every generator
permutes the basis lines with signs +-1, so does every element.  Sweep
outputs are compared with known answers for O_3(q) and S_n.
"""

import re

import numpy as np


def _entries(F, text):
    """Row of field elements: residues, or `(c0 c1 ...)` tuples for k > 1."""
    out = []
    for tup, num in re.findall(r"\(([^)]*)\)|(\S+)", text):
        if num:
            v = int(num)
            if F.k != 1 or not 0 <= v < F.p:
                raise ValueError(f"bad entry {num!r}")
            out.append(v)
        else:
            coords = [int(t) for t in tup.split()]
            if len(coords) != F.k or not all(0 <= c < F.p for c in coords):
                raise ValueError(f"bad entry ({tup})")
            out.append(F.elem(coords))
    return out


def parse_certificate(F, n, text):
    """(scalar, basis rows, [(perm, signs)]) from a certificate, or raise
    ValueError when its layout is wrong."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    want = ["certificate", f"field p={F.p} k={F.k}", f"dim {n}", "scalar"]
    if lines[:4] != want:
        raise ValueError(f"header {lines[:4]} is not {want}")
    if lines[-1] != "verified: true":
        raise ValueError("certificate is not marked verified")
    scalar = _entries(F, lines[4])
    if len(scalar) != 1 or lines[5] != "basis":
        raise ValueError("bad scalar section")
    basis = np.array([_entries(F, ln) for ln in lines[6:6 + n]],
                     dtype=np.int64)
    if basis.shape != (n, n) or lines[6 + n] != "images":
        raise ValueError("bad basis section")
    images = []
    for ln in lines[7 + n:]:
        m = re.fullmatch(r"gen (\d+) perm ([\d ]+) signs ([+\- ]+)", ln)
        if not m:
            break
        if int(m.group(1)) != len(images):
            raise ValueError("generator images out of order")
        perm = [int(t) for t in m.group(2).split()]
        signs = [1 if t == "+" else -1 for t in m.group(3).split()]
        images.append((perm, signs))
    return scalar[0], basis, images


def check_certificate(F, gram, gens, text):
    """None when the certificate is right for the group, else a reason."""
    n = gram.shape[0]
    try:
        c, B, images = parse_certificate(F, n, text)
    except (ValueError, IndexError) as exc:
        return f"unparsable certificate: {exc}"
    if c == 0:
        return "scalar is zero"
    if F.rank(B) != n:
        return "basis is not invertible"
    if not np.array_equal(F.matmul(F.matmul(B, gram), B.T),
                          F.scale(c, np.eye(n, dtype=np.int64))):
        return "basis is not orthogonal with constant Q-value c"
    if len(images) != len(gens):
        return f"{len(images)} generator images for {len(gens)} generators"
    for g, (perm, signs) in zip(gens, images):
        if sorted(perm) != list(range(n)) or len(signs) != n:
            return "image record is not a signed permutation"
        moved = F.matmul(g, B.T).T           # row i is g w_i
        want = np.array([B[j] if s == 1 else F.scale(F.minus_one, B[j])
                         for j, s in zip(perm, signs)])
        if not np.array_equal(moved, want):
            return "a generator does not act as its recorded signed perm"
    return None


# O_3(q): order 2q(q^2 - 1) and its number of solvable subgroup classes.
O3_CLASSES = {3: 33, 5: 52, 7: 65}
O3_IRREDUCIBLE = 5
# Transitive solvable subgroup orders of S_n, and the maximal ones.
TRANSITIVE = {3: ([3, 6], [6]), 5: ([5, 10, 20], [20])}


def check_theorem_output(q, text):
    lines = text.strip().splitlines()
    head = f"O_3({q}): order {2 * q * (q * q - 1)}, " \
           f"{O3_CLASSES[q]} solvable subgroup classes"
    if not lines or lines[0] != head:
        return f"header is not {head!r}"
    oks = [ln for ln in lines if re.fullmatch(
        r"\s+class order \d+: certificate ok \(c = \d+\)", ln)]
    tail = f"irreducible solvable classes: {O3_IRREDUCIBLE}, failures: 0"
    if len(oks) != O3_IRREDUCIBLE or lines[-1] != tail:
        return f"expected {O3_IRREDUCIBLE} verified classes and no failure"
    return None


def maximal_output(n, q, text):
    orders, maximal = [], []
    for ln in text.splitlines():
        m = re.fullmatch(r"\s+order (\d+)( \(maximal\))?", ln)
        if m:
            orders.append(int(m.group(1)))
            if m.group(2):
                maximal.append(int(m.group(1)))
    if (orders, maximal) != TRANSITIVE[n]:
        return f"classes {orders}, maximal {maximal}; want {TRANSITIVE[n]}"
    if n == 3 and f"  wreath over order-6 class in O_3({q}): maximal" \
            not in text.splitlines():
        return "wreath over S_3 not reported maximal"
    return None


def check_outcome(op, code, text):
    """None when an op's exit code and output are as expected, else a
    reason."""
    expect = op["expect"]
    if expect == "cert":
        if code != 0:
            return f"exit {code}, expected a certificate"
        return check_certificate(op["field"], op["gram"], op["gens"], text)
    if expect == "refuse":
        want = f"error: {op['reason']}"
        if code != 2 or want not in text.splitlines():
            return f"exit {code}, expected exit 2 with {want!r}"
        return None
    if expect == "handled":
        if code not in (1, 2, 3, 4) or not text.strip():
            return f"exit {code}, expected an exit code 1-4 with a reason"
        return None
    if code != 0:
        return f"exit {code}, expected 0"
    if expect == "check-theorem":
        return check_theorem_output(op["q"], text)
    return maximal_output(op["n"], op["q"], text)
