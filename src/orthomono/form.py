"""Quadratic spaces over odd-characteristic finite fields.

The convention throughout: b(u, v) = (Q(u+v) - Q(u) - Q(v)) / 2, so the Gram
matrix B satisfies Q(v) = v^T B v and carries the Q-values of the basis
vectors on its diagonal.  Vectors are handled as index rows; matrices act on
columns.
"""

import numpy as np

from .errors import (
    CharacteristicTwo,
    DegenerateForm,
    DimensionMismatch,
    EvenDimension,
    InvariantViolation,
    NotInvariant,
    TooLarge,
)
from .field import FieldElem
from .linalg import Matrix, Subspace, kernel, projective_lines


class QuadraticSpace:
    """(V, Q, b): dimension n with symmetric Gram matrix B over F.

    Degenerate Gram matrices are admitted only with allow_degenerate=True
    (the radical computation needs them); everything downstream requires
    nondegeneracy.
    """

    __slots__ = ("field", "n", "gram", "_gram_inverse")

    def __init__(self, field, gram, allow_degenerate=False):
        if field.p == 2:
            raise CharacteristicTwo(
                "characteristic 2 rejected: for odd n the radical of the "
                "polarization is nonzero")
        g = gram if isinstance(gram, Matrix) else Matrix(field, gram)
        if not g.is_square:
            raise DimensionMismatch("Gram matrix must be square")
        if not np.array_equal(g.a, g.a.T):
            raise DegenerateForm("Gram matrix must be symmetric")
        if not allow_degenerate and g.det().idx == 0:
            raise DegenerateForm("Gram matrix is singular")
        self.field = field
        self.n = g.rows
        self.gram = g
        self._gram_inverse = None

    @property
    def is_nondegenerate(self):
        return self.gram.det().idx != 0

    @property
    def gram_inverse(self):
        """B^-1 as an entry array, computed once; None when B is singular."""
        if self._gram_inverse is None and self.is_nondegenerate:
            self._gram_inverse = self.gram.inverse().a
        return self._gram_inverse

    def q_value(self, v):
        """Q(v) = v^T B v as an index."""
        F = self.field
        w = F.mat_vec(self.gram.a, np.asarray(v))
        acc = 0
        for x, y in zip(np.asarray(v), w):
            acc = F.add(acc, F.mul(int(x), int(y)))
        return acc

    def bil(self, u, v):
        """b(u, v) = u^T B v as an index."""
        F = self.field
        w = F.mat_vec(self.gram.a, np.asarray(v))
        acc = 0
        for x, y in zip(np.asarray(u), w):
            acc = F.add(acc, F.mul(int(x), int(y)))
        return acc

    def gram_block(self, rows_u, rows_v):
        """Matrix of b between two row families."""
        F = self.field
        return F.mat_mul(F.mat_mul(np.asarray(rows_u), self.gram.a),
                         np.asarray(rows_v).T)

    def restricted_gram(self, sub):
        """Gram matrix of b restricted to the basis rows of a Subspace."""
        return Matrix(self.field, self.gram_block(sub.basis, sub.basis))

    def __repr__(self):
        return f"QuadraticSpace(n={self.n}, {self.field})"


def radical(space):
    """Kernel of the Gram matrix; nonzero radical means the space is
    rejected by every downstream operation."""
    return kernel(space.gram)


def is_isometry(g, space):
    """True iff g^T B g = B (equivalent to preserving Q in odd
    characteristic)."""
    if g.rows != space.n or g.cols != space.n:
        raise DimensionMismatch(
            f"{g.rows}x{g.cols} matrix on a {space.n}-dimensional space")
    F = space.field
    lhs = F.mat_mul(F.mat_mul(g.a.T, space.gram.a), g.a)
    return np.array_equal(lhs, space.gram.a)


class OrthoDecomposition:
    """Pairwise-orthogonal nondegenerate parts of equal dimension whose sum
    is the whole space; parts are kept sorted by canonical basis."""

    __slots__ = ("space", "parts", "part_dim")

    def __init__(self, space, parts):
        parts = tuple(sorted(parts, key=lambda s: s.sort_key()))
        if not parts:
            raise InvariantViolation("decomposition needs at least one part")
        d = parts[0].dim
        if any(p.dim != d or p.dim == 0 for p in parts):
            raise InvariantViolation("parts must have equal nonzero dims")
        if d * len(parts) != space.n:
            raise InvariantViolation("part dimensions do not fill the space")
        for i, p in enumerate(parts):
            if space.restricted_gram(p).det().idx == 0:
                raise InvariantViolation(f"part {i} is degenerate")
            for q in parts[i + 1:]:
                if space.gram_block(p.basis, q.basis).any():
                    raise InvariantViolation("parts are not orthogonal")
        self.space = space
        self.parts = parts
        self.part_dim = d

    @property
    def k(self):
        return len(self.parts)

    def index_of(self, sub):
        for i, p in enumerate(self.parts):
            if p == sub:
                return i
        return None

    def __eq__(self, other):
        return (isinstance(other, OrthoDecomposition)
                and self.parts == other.parts)

    def __hash__(self):
        return hash(tuple(p._key for p in self.parts))

    def __repr__(self):
        return f"OrthoDecomposition({self.k} parts of dim {self.part_dim})"


class PermutationAction:
    """The permutation action of a group's generators on the parts of a
    decomposition: gen_perms[i][j] = image part index of part j under
    generator i."""

    __slots__ = ("decomposition", "gen_perms")

    def __init__(self, decomposition, gen_perms):
        self.decomposition = decomposition
        self.gen_perms = tuple(tuple(p) for p in gen_perms)


def validate_decomposition(decomposition, group):
    """Check that every generator of the group permutes the parts; returns
    the induced PermutationAction or raises NotInvariant.

    Only `group.gens` is consulted, so any object carrying generator
    matrices works.
    """
    D = decomposition
    index = {p: i for i, p in enumerate(D.parts)}
    perms = []
    for g in group.gens:
        perm = []
        for part in D.parts:
            img = part.image(g)
            j = index.get(img)
            if j is None:
                raise NotInvariant(
                    "generator moves a part outside the decomposition")
            perm.append(j)
        perms.append(tuple(perm))
    return PermutationAction(D, perms)


def diagonalize_scalar(space):
    """Change of basis P with P^T B P = c I, n odd.

    Gram-Schmidt with a deterministic anisotropic-vector search builds an
    orthogonal basis; adjacent pairs are then adjusted to the discriminant
    class representative c (1 if disc B is a square, else the smallest
    non-square), which exists because n is odd and binary nondegenerate
    forms over a finite field represent every nonzero scalar.
    """
    F = space.field
    n = space.n
    if n % 2 == 0:
        raise EvenDimension("scalar diagonal form requires odd dimension")
    if not space.is_nondegenerate:
        raise DegenerateForm("cannot diagonalize a degenerate form")
    # scalar Gram short-circuit keeps P = I for already-scalar inputs
    d0 = int(space.gram.a[0, 0])
    if d0 != 0:
        scal = np.zeros((n, n), dtype=np.int32)
        np.fill_diagonal(scal, d0)
        if np.array_equal(space.gram.a, scal):
            return Matrix.identity(F, n), FieldElem(F, d0)

    basis = _orthogonal_basis(space)
    dvals = [space.q_value(v) for v in basis]
    disc = 1
    for d in dvals:
        disc = F.mul(disc, d)
    if F.is_square(disc):
        c = 1
    else:
        c = next(a for a in range(2, F.q) if not F.is_square(a))
    for i in range(n - 1):
        if dvals[i] == c:
            continue
        vi, vj = basis[i], basis[i + 1]
        found = None
        for x in range(F.q):
            qx = F.mul(F.mul(x, x), dvals[i])
            for y in range(F.q):
                if F.add(qx, F.mul(F.mul(y, y), dvals[i + 1])) == c:
                    found = (x, y)
                    break
            if found:
                break
        if found is None:
            raise InvariantViolation(
                "binary form failed to represent the target scalar")
        x, y = found
        w = F.vadd(F.vscale(x, vi), F.vscale(y, vj))
        u = F.vsub(F.vscale(F.mul(dvals[i + 1], y), vi),
                   F.vscale(F.mul(dvals[i], x), vj))
        basis[i], basis[i + 1] = w, u
        dvals[i], dvals[i + 1] = c, space.q_value(u)
        if dvals[i + 1] == 0:
            raise InvariantViolation("pair complement became isotropic")
    last = dvals[n - 1]
    if last != c:
        ratio = F.div(c, last)
        t = F.sqrt(ratio)
        if t is None:
            raise InvariantViolation(
                "last diagonal entry not in the discriminant class")
        basis[n - 1] = F.vscale(t, basis[n - 1])
    P = Matrix(F, np.stack(basis).T.copy())
    target = Matrix.diag(F, [c] * n)
    check = F.mat_mul(F.mat_mul(P.a.T, space.gram.a), P.a)
    if not np.array_equal(check, target.a):
        raise InvariantViolation("scalar diagonalization check failed")
    return P, FieldElem(F, c)


def _orthogonal_basis(space):
    """Orthogonal basis rows via Gram-Schmidt; the anisotropic search tries
    the current complement's basis vectors first, then their pairwise sums
    in lexicographic order."""
    F = space.field
    n = space.n
    rem = np.eye(n, dtype=np.int32)
    out = []
    while rem.shape[0]:
        v = _find_anisotropic(space, rem)
        out.append(v)
        # complement of v within the row space of rem
        w = F.mat_vec(space.gram.a, v)
        constraints = F.mat_mul(rem, w.reshape(-1, 1)).reshape(-1)
        coords = kernel(Matrix(F, constraints.reshape(1, -1)))
        rem = F.mat_mul(coords.basis, rem) if coords.dim else \
            np.zeros((0, n), dtype=np.int32)
    return out


def _find_anisotropic(space, rows):
    F = space.field
    m = rows.shape[0]
    for i in range(m):
        if space.q_value(rows[i]) != 0:
            return rows[i].copy()
    for i in range(m):
        for j in range(i + 1, m):
            v = F.vadd(rows[i], rows[j])
            if space.q_value(v) != 0:
                return v
    raise InvariantViolation(
        "no anisotropic vector: the restricted form is totally isotropic, "
        "impossible for a nondegenerate form in odd characteristic")


def anisotropic_lines(space):
    """Canonical representatives (leading coordinate 1) of all lines with
    Q != 0, in lexicographic order."""
    return [v for v in projective_lines(space.field, space.n)
            if space.q_value(v) != 0]


def all_ortho_line_decompositions(space, bound=10 ** 6):
    """Every unordered set of n pairwise-orthogonal anisotropic lines
    summing to V, each reported once.  Exhaustive; refuses when q^n exceeds
    the bound."""
    F = space.field
    n = space.n
    if F.q ** n > bound:
        raise TooLarge(f"q^n = {F.q ** n} exceeds enumeration bound {bound}")
    reps = anisotropic_lines(space)
    L = len(reps)
    if L == 0:
        return []
    stack_rows = np.stack(reps)
    pair = space.gram_block(stack_rows, stack_rows)
    ortho = pair == 0
    out = []

    def extend(chosen, start):
        if len(chosen) == n:
            parts = [Subspace(F, n, stack_rows[i].reshape(1, -1))
                     for i in chosen]
            total = parts[0]
            for p in parts[1:]:
                total = total.sum_with(p)
            if total.dim == n:
                out.append(OrthoDecomposition(space, parts))
            return
        for i in range(start, L):
            if all(ortho[i, j] for j in chosen):
                extend(chosen + [i], i + 1)

    extend([], 0)
    return out
