"""Command-line surface: parse group/form files, run the pipeline, emit
certificates and verification reports.

Exit codes are a total function of the failure class:
  0  success
  1  parse error
  2  a hypothesis of the main results fails (reason line printed)
  3  internal invariant violation (impossible for valid inputs) or a
     certificate that fails verification
  4  a configured resource bound was exceeded

Group file grammar (line oriented, '#' starts a comment):

  field p=<prime> k=<int>
  modulus c0 c1 ... ck          # optional, low to high; default is canonical
  dim <n>
  gram
  <n rows of n entries>
  gen
  <n rows of n entries>         # repeated once per generator

Entries are decimal residues in [0, p); for k > 1 an entry is k residues in
parentheses, e.g. (1 2) for 1 + 2x.
"""

import argparse
import sys

from .errors import (
    AlgebraError,
    BoundExceeded,
    CertificateCheckFailed,
    CharacteristicTwo,
    DegenerateForm,
    DimensionMismatch,
    EvenDimension,
    HypothesisViolated,
    InvariantViolation,
    NonScalarForm,
    NotAbelian,
    NotCoprime,
    NotIsometry,
    NotSemisimple,
    ParityViolation,
    ParseError,
    TooLarge,
)
from .field import GF, POLICY_MAX_Q, FieldSpec, prime_factors
from .form import QuadraticSpace
from .group import MatrixGroup, PermGroup, orthogonal_group
from .linalg import Matrix
from .modrep import is_irreducible
from .monomial import check_certificate, monomialize
from .tablegrp import CayleyTable
from .wreath import maximality_check, maximality_check_big, \
    transitive_solvable_subgroups, wreath_construct

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_HYPOTHESIS = 2
EXIT_INVARIANT = 3
EXIT_BOUND = 4

_HYPOTHESIS_ERRORS = (HypothesisViolated, CharacteristicTwo, DegenerateForm,
                      EvenDimension, NotIsometry, NonScalarForm,
                      DimensionMismatch)
_INVARIANT_ERRORS = (InvariantViolation, ParityViolation, NotSemisimple,
                     NotCoprime, NotAbelian, CertificateCheckFailed)
_BOUND_ERRORS = (BoundExceeded, TooLarge)


def _reason_of(exc):
    if isinstance(exc, HypothesisViolated):
        return exc.reason
    if isinstance(exc, CharacteristicTwo):
        return "characteristic 2"
    if isinstance(exc, EvenDimension):
        return "dimension even"
    if isinstance(exc, DegenerateForm):
        return "degenerate form"
    if isinstance(exc, NotIsometry):
        return "not isometries"
    if isinstance(exc, DimensionMismatch):
        return "dimension mismatch"
    if isinstance(exc, NonScalarForm):
        return "non-scalar form"
    return type(exc).__name__


# ---------------------------------------------------------------------------
# group files


def _tokenize_entries(text, lineno):
    """Split a row into entries, honoring parenthesized tuples."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            j = text.find(")", i)
            if j < 0:
                raise ParseError(f"line {lineno}: unbalanced parenthesis")
            inner = text[i + 1:j].split()
            out.append(tuple(int(t) for t in inner))
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace():
                j += 1
            tok = text[i:j]
            try:
                out.append(int(tok))
            except ValueError:
                raise ParseError(f"line {lineno}: bad entry {tok!r}")
            i = j
    return out


def _entry_index(field, entry, lineno):
    if isinstance(entry, tuple):
        if len(entry) != field.k:
            raise ParseError(
                f"line {lineno}: entry needs {field.k} coordinates")
        return field.encode([c % field.p for c in entry])
    if not 0 <= entry < field.p:
        raise ParseError(f"line {lineno}: residue {entry} out of [0, p)")
    return entry


def parse_group_file(text):
    """(FieldSpec, QuadraticSpace, generator Matrices) from the grammar."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body))
    pos = 0

    def peek():
        return lines[pos] if pos < len(lines) else (None, "")

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ParseError("unexpected end of file")
        item = lines[pos]
        pos += 1
        return item

    lineno, head = take()
    if not head.startswith("field"):
        raise ParseError(f"line {lineno}: expected 'field p=. k=.'")
    kv = dict(tok.split("=", 1) for tok in head.split()[1:] if "=" in tok)
    try:
        p = int(kv["p"])
        k = int(kv.get("k", "1"))
    except (KeyError, ValueError):
        raise ParseError(f"line {lineno}: field line needs p=<int> k=<int>")
    modulus = None
    if peek()[1].startswith("modulus"):
        lineno, mod_line = take()
        modulus = [int(t) for t in mod_line.split()[1:]]
        if len(modulus) != k + 1:
            raise ParseError(f"line {lineno}: modulus needs k+1 coefficients")
    field = FieldSpec(p, k, modulus=modulus) if modulus is not None \
        else GF(p, k)
    lineno, dim_line = take()
    if not dim_line.startswith("dim"):
        raise ParseError(f"line {lineno}: expected 'dim <n>'")
    try:
        n = int(dim_line.split()[1])
    except (IndexError, ValueError):
        raise ParseError(f"line {lineno}: bad dimension")

    def read_rows(tag):
        rows = []
        for _ in range(n):
            rl, row_text = take()
            entries = _tokenize_entries(row_text, rl)
            if len(entries) != n:
                raise ParseError(f"line {rl}: expected {n} entries in {tag}")
            rows.append([_entry_index(field, e, rl) for e in entries])
        return rows

    lineno, gram_head = take()
    if gram_head != "gram":
        raise ParseError(f"line {lineno}: expected 'gram'")
    gram_rows = read_rows("gram")
    space = QuadraticSpace(field, Matrix(field, gram_rows))
    gens = []
    while pos < len(lines):
        lineno, gen_head = take()
        if gen_head != "gen":
            raise ParseError(f"line {lineno}: expected 'gen'")
        gens.append(Matrix(field, read_rows("gen")))
    if not gens:
        raise ParseError("no generators given")
    return field, space, gens


def _format_entry(field, idx):
    if field.k == 1:
        return str(int(idx))
    return "(" + " ".join(str(c) for c in field.coeffs(int(idx))) + ")"


def write_group_file(space, gens, header=""):
    field = space.field
    n = space.n
    out = []
    if header:
        for h in header.splitlines():
            out.append(f"# {h}")
    out.append(f"field p={field.p} k={field.k}")
    if field.k > 1:
        out.append("modulus " + " ".join(str(c) for c in field.modulus))
    out.append(f"dim {n}")
    out.append("gram")
    for row in space.gram.a:
        out.append(" ".join(_format_entry(field, e) for e in row))
    for g in gens:
        out.append("gen")
        for row in g.a:
            out.append(" ".join(_format_entry(field, e) for e in row))
    return "\n".join(out) + "\n"


def write_certificate(cert, verified):
    field = cert.space.field
    out = ["certificate",
           f"field p={field.p} k={field.k}",
           f"dim {cert.n}",
           "scalar",
           _format_entry(field, cert.scalar.idx),
           "basis"]
    for row in cert.basis:
        out.append(" ".join(_format_entry(field, e) for e in row))
    out.append("images")
    for i, (perm, signs) in enumerate(cert.generator_images):
        perm_s = " ".join(str(j) for j in perm)
        sign_s = " ".join("+" if s == 1 else "-" for s in signs)
        out.append(f"gen {i} perm {perm_s} signs {sign_s}")
    out.append("transport")
    for level, words in enumerate(cert.transport):
        rendered = ";".join(" ".join(str(j) for j in word) for word in words)
        out.append(f"level {level}: {rendered}")
    out.append(f"verified: {'true' if verified else 'false'}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# commands


def _field_of_order(q):
    """GF(q) for a prime power q = p^k; any q with more or fewer than one
    prime divisor is refused (HypothesisViolated), as is one over the
    field-size policy bound (TooLarge).  The field itself refuses p = 2."""
    primes = prime_factors(q) if q > 1 else []
    if len(primes) != 1:
        raise HypothesisViolated(f"q = {q} is not an odd prime power")
    if q > POLICY_MAX_Q:
        raise TooLarge(f"field size {q} exceeds policy bound 2^16")
    p, k = primes[0], 0
    while q > 1:
        q //= p
        k += 1
    return GF(p, k)


def cmd_analyze(args, out=sys.stdout):
    try:
        text = open(args.path).read()
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=out)
        return EXIT_PARSE
    try:
        field, space, gens = parse_group_file(text)
        G = MatrixGroup(gens, space=None if args.no_form else space,
                        bound=args.bound)
        cert = monomialize(G, space)
        report = check_certificate(cert, G)
    except ParseError as exc:
        print(f"parse error: {exc}", file=out)
        return EXIT_PARSE
    except _HYPOTHESIS_ERRORS as exc:
        print(f"error: {_reason_of(exc)}", file=out)
        if args.explain:
            print(f"detail: {exc}", file=out)
        return EXIT_HYPOTHESIS
    except _BOUND_ERRORS as exc:
        print(f"bound exceeded: {exc}", file=out)
        return EXIT_BOUND
    except _INVARIANT_ERRORS as exc:
        print(f"invariant violation: {exc}", file=out)
        return EXIT_INVARIANT
    except AlgebraError as exc:
        # belongs to no family above: reported, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=out)
        return EXIT_INVARIANT
    doc = write_certificate(cert, report.ok)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(doc)
        print(f"certificate written to {args.output}", file=out)
    else:
        out.write(doc)
    if not report.ok:
        print(f"verification failed: {report.failure}", file=out)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_check_theorem(args, out=sys.stdout):
    n, q = args.n, args.q
    if n % 2 == 0:
        print("error: dimension even", file=out)
        return EXIT_HYPOTHESIS
    try:
        field = _field_of_order(q)
    except _HYPOTHESIS_ERRORS as exc:
        print(f"error: {_reason_of(exc)}", file=out)
        return EXIT_HYPOTHESIS
    except _BOUND_ERRORS as exc:
        print(f"bound exceeded: {exc}", file=out)
        return EXIT_BOUND
    space = QuadraticSpace(field, Matrix.identity(field, n))
    ambient = orthogonal_group(space, bound=args.bound)
    if ambient.order > 5000:
        print(f"bound exceeded: ambient order {ambient.order} too large for "
              "the subgroup sweep", file=out)
        return EXIT_BOUND
    ct = CayleyTable.from_matrix_group(ambient)
    els = ambient.enumerate()
    classes = ct.solvable_subgroup_classes()
    print(f"O_{n}({q}): order {ambient.order}, "
          f"{len(classes)} solvable subgroup classes", file=out)
    ran = 0
    failures = 0
    for H in classes:
        gens = [els[i] for i in ct.subgroup_generators(H)] or [ambient.identity]
        G = MatrixGroup(gens, space=space, bound=args.bound)
        if not is_irreducible(G):
            continue
        ran += 1
        try:
            cert = monomialize(G, space)
            report = check_certificate(cert, G)
        except AlgebraError as exc:
            failures += 1
            print(f"  class order {len(H)}: FAIL ({exc})", file=out)
            continue
        if report.ok:
            print(f"  class order {len(H)}: certificate ok "
                  f"(c = {cert.scalar.idx})", file=out)
        else:
            failures += 1
            print(f"  class order {len(H)}: FAIL ({report.failure})",
                  file=out)
    print(f"irreducible solvable classes: {ran}, failures: {failures}",
          file=out)
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def _parse_kspec(spec, n):
    if spec == "S":
        return PermGroup.symmetric(n)
    if spec == "C":
        return PermGroup.cyclic(n)
    if spec == "D":
        return PermGroup.dihedral(n)
    if spec == "max":
        classes = transitive_solvable_subgroups(n)
        best = [t for t in classes if t.maximal]
        return best[-1].group
    gens = []
    for part in spec.split(";"):
        images = tuple(int(t) for t in part.split(","))
        if sorted(images) != list(range(n)):
            raise ParseError(f"bad permutation spec {part!r}")
        gens.append(images)
    return PermGroup(n, gens)


def cmd_wreath(args, out=sys.stdout):
    try:
        field = _field_of_order(args.q)
        space = QuadraticSpace(field, Matrix.identity(field, args.n))
        K = _parse_kspec(args.kspec, args.n)
        W = wreath_construct(K, space)
    except ParseError as exc:
        print(f"parse error: {exc}", file=out)
        return EXIT_PARSE
    except _BOUND_ERRORS as exc:
        print(f"bound exceeded: {exc}", file=out)
        return EXIT_BOUND
    except _HYPOTHESIS_ERRORS as exc:
        print(f"error: {_reason_of(exc)}", file=out)
        return EXIT_HYPOTHESIS
    doc = write_group_file(
        W.space, W.group.gens,
        header=f"signed permutations over {args.kspec} on {args.n} points, "
               f"GF({args.q}); order {W.group.order}")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(doc)
        print(f"group file written to {args.output}", file=out)
    else:
        out.write(doc)
    return EXIT_OK


def cmd_maximal(args, out=sys.stdout):
    n, q = args.n, args.q
    try:
        field = _field_of_order(q)
        classes = transitive_solvable_subgroups(n)
    except _HYPOTHESIS_ERRORS as exc:
        print(f"error: {_reason_of(exc)}", file=out)
        return EXIT_HYPOTHESIS
    except _BOUND_ERRORS as exc:
        print(f"bound exceeded: {exc}", file=out)
        return EXIT_BOUND
    print(f"transitive solvable classes of S_{n}:", file=out)
    for t in classes:
        flag = " (maximal)" if t.maximal else ""
        print(f"  order {t.order}{flag}", file=out)
    heavy = n > 3
    if heavy and not args.long:
        print("maximality sweep skipped (use --long for n > 3)", file=out)
        return EXIT_OK
    space = QuadraticSpace(field, Matrix.identity(field, n))
    check = maximality_check_big if heavy else maximality_check
    for t in classes:
        if not t.maximal:
            continue
        W = wreath_construct(t.group, space)
        try:
            res = check(W, bound=args.bound)
        except _BOUND_ERRORS as exc:
            print(f"bound exceeded: {exc}", file=out)
            return EXIT_BOUND
        verdict = "maximal" if res.maximal else \
            f"NOT maximal (overgroup of order {res.counterexample.order})"
        print(f"  wreath over order-{t.order} class in O_{n}({q}): {verdict}",
              file=out)
        if not res.maximal:
            return EXIT_INVARIANT
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orthomono",
        description="orthogonal decompositions and monomial certificates "
                    "for solvable matrix groups over small odd finite fields")
    parser.add_argument("--bound", type=int, default=10 ** 6,
                        help="element enumeration cap (default 10^6)")
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="certificate for a group file")
    a.add_argument("path")
    a.add_argument("--no-form", action="store_true",
                   help="skip the isometry validation at parse time")
    a.add_argument("--explain", action="store_true",
                   help="report which hypothesis fails")
    a.add_argument("-o", "--output", default=None)

    t = sub.add_parser("check-theorem",
                       help="sweep all solvable irreducible subgroups")
    t.add_argument("n", type=int)
    t.add_argument("q", type=int)

    w = sub.add_parser("wreath", help="emit a signed-permutation group file")
    w.add_argument("n", type=int)
    w.add_argument("q", type=int)
    w.add_argument("kspec",
                   help="S | C | D | max | explicit images like 1,2,0;1,0,2")
    w.add_argument("-o", "--output", default=None)

    m = sub.add_parser("maximal",
                       help="classify maximal transitive solvable groups "
                            "and verify wreath maximality")
    m.add_argument("n", type=int)
    m.add_argument("q", type=int)
    m.add_argument("--long", action="store_true",
                   help="enable the long-running sweep for n > 3")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "check-theorem": cmd_check_theorem,
        "wreath": cmd_wreath,
        "maximal": cmd_maximal,
    }
    return handlers[args.command](args)


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
