"""Command-line surface: parse group/form files, run the pipeline, emit
certificates and verification reports.

Exit codes: 0 on success; a failure prints the reason line and exits with
the code of its error's family, as listed in errors.py.  An unreadable
input file exits 1 and a certificate that fails verification exits 3.

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
import functools
import sys

from .errors import AlgebraError, EvenDimension, HypothesisViolated, \
    ParseError, TooLarge
from .field import GF, POLICY_MAX_Q, FieldSpec, prime_factors
from .form import QuadraticSpace
from .group import MatrixGroup, PermGroup, derived_series, orthogonal_group
from .linalg import Matrix
from .modrep import fixed_line_table, is_irreducible
from .monomial import check_certificate, monomialize
from .tablegrp import CayleyTable
from .wreath import maximality_check, maximality_check_big, \
    transitive_solvable_subgroups, wreath_construct

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVARIANT = 3


def exit_by_family(cmd):
    """Run the command `cmd(args, out)`; an AlgebraError it raises prints
    its family's reason lines to `out` and returns the family's exit code."""
    @functools.wraps(cmd)
    def run(args, out=sys.stdout):
        try:
            return cmd(args, out)
        except AlgebraError as exc:
            code, lines = exc.report(getattr(args, "explain", False))
            print(*lines, sep="\n", file=out)
            return code
    return run


# ---------------------------------------------------------------------------
# group files


def _ints(tokens, lineno, what):
    """The integers written as `tokens` on line `lineno`."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"line {lineno}: bad {what} "
                         f"{' '.join(tokens)!r}") from None


def _tokenize_entries(text, lineno):
    """Split a row into entries, honoring parenthesized tuples."""
    out = []
    rest = text.lstrip()
    while rest:
        if rest.startswith("("):
            inner, paren, rest = rest[1:].partition(")")
            if not paren:
                raise ParseError(f"line {lineno}: unbalanced parenthesis")
            out.append(tuple(_ints(inner.split(), lineno, "entry")))
        else:
            tok = rest.split(None, 1)[0]
            out += _ints([tok], lineno, "entry")
            rest = rest[len(tok):]
        rest = rest.lstrip()
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
        modulus = _ints(mod_line.split()[1:], lineno, "modulus")
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
        n = 0
    if n < 1:
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


def _dimension(n):
    """The dimension N given to check-theorem, wreath or maximal; N < 1 is
    refused as a parse error."""
    if n < 1:
        raise ParseError(f"dimension {n} is not positive")
    return n


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


@exit_by_family
def cmd_analyze(args, out=sys.stdout):
    try:
        text = open(args.path).read()
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=out)
        return EXIT_PARSE
    field, space, gens = parse_group_file(text)
    G = MatrixGroup(gens, space=None if args.no_form else space,
                    bound=args.bound)
    cert = monomialize(G, space)
    report = check_certificate(cert, G)
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


@exit_by_family
def cmd_check_theorem(args, out=sys.stdout):
    n, q = _dimension(args.n), args.q
    if n % 2 == 0:
        raise EvenDimension(f"n = {n}")
    field = _field_of_order(q)
    space = QuadraticSpace(field, Matrix.identity(field, n))
    ambient = orthogonal_group(space, bound=args.bound)
    if ambient.order > 5000:
        raise TooLarge(f"ambient order {ambient.order} too large for the "
                       "subgroup sweep")
    ct = CayleyTable.from_matrix_group(ambient)
    els = ambient.enumerate()
    classes = ct.solvable_subgroup_classes()
    print(f"O_{n}({q}): order {ambient.order}, "
          f"{len(classes)} solvable subgroup classes", file=out)
    fixes = fixed_line_table(field, n, els)
    ran = 0
    failures = 0
    for H in classes:
        if fixes[:, H].all(axis=1).any():
            continue    # a common fixed line is a proper invariant subspace
        gens = [els[i] for i in ct.subgroup_generators(H)] or [ambient.identity]
        G = MatrixGroup(gens, space=space, bound=args.bound)
        if not is_irreducible(G):
            continue
        ran += 1
        try:
            # the hypotheses hold: n is odd, the class is a solvable group
            # of isometries, and its irreducibility was just tested
            cert = monomialize(G, space, derived_series(G))
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
        try:
            images = tuple(int(t) for t in part.split(","))
            if sorted(images) != list(range(n)):
                raise ValueError
        except ValueError:
            raise ParseError(f"bad permutation spec {part!r}") from None
        gens.append(images)
    return PermGroup(n, gens)


@exit_by_family
def cmd_wreath(args, out=sys.stdout):
    n = _dimension(args.n)
    field = _field_of_order(args.q)
    space = QuadraticSpace(field, Matrix.identity(field, n))
    K = _parse_kspec(args.kspec, n)
    W = wreath_construct(K, space, bound=args.bound)
    doc = write_group_file(
        W.space, W.group.gens,
        header=f"signed permutations over {args.kspec} on {n} points, "
               f"GF({args.q}); order {W.order}")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(doc)
        print(f"group file written to {args.output}", file=out)
    else:
        out.write(doc)
    return EXIT_OK


@exit_by_family
def cmd_maximal(args, out=sys.stdout):
    n, q = _dimension(args.n), args.q
    field = _field_of_order(q)
    classes = transitive_solvable_subgroups(n)
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
        res = check(W, bound=args.bound)
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
                        help="cap on every group closure (default 10^6)")
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="certificate for a group file")
    a.set_defaults(cmd=cmd_analyze)
    a.add_argument("path")
    a.add_argument("--no-form", action="store_true",
                   help="skip the isometry validation at parse time")
    a.add_argument("--explain", action="store_true",
                   help="report which hypothesis fails")
    a.add_argument("-o", "--output", default=None)

    t = sub.add_parser("check-theorem",
                       help="sweep all solvable irreducible subgroups")
    t.set_defaults(cmd=cmd_check_theorem)
    t.add_argument("n", type=int)
    t.add_argument("q", type=int)

    w = sub.add_parser("wreath", help="emit a signed-permutation group file")
    w.set_defaults(cmd=cmd_wreath)
    w.add_argument("n", type=int)
    w.add_argument("q", type=int)
    w.add_argument("kspec",
                   help="S | C | D | max | explicit images like 1,2,0;1,0,2")
    w.add_argument("-o", "--output", default=None)

    m = sub.add_parser("maximal",
                       help="classify maximal transitive solvable groups "
                            "and verify wreath maximality")
    m.set_defaults(cmd=cmd_maximal)
    m.add_argument("n", type=int)
    m.add_argument("q", type=int)
    m.add_argument("--long", action="store_true",
                   help="enable the long-running sweep for n > 3")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.cmd(args)


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
