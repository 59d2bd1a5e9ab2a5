"""Exact dense linear algebra over a FieldSpec.

Matrices act on column vectors; subspaces store their basis as rows of a
reduced-row-echelon matrix, which makes subspace equality a byte comparison.
Characteristic polynomials come from fraction-free (Bareiss) elimination on
xI - m over the polynomial ring, minimal polynomials from Krylov annihilator
sequences; both are exact and deterministic.
"""

import numpy as np

from .errors import (
    AlgebraError,
    FieldMismatch,
    NonSquare,
    NotGaloisStable,
    NotInvariant,
)
from .field import (
    FieldElem,
    Poly,
    embedding,
    embedding_inverse,
    poly_factor,
    poly_gcd,
)


def _coerce_entry(field, v):
    if isinstance(v, FieldElem):
        if v.field != field:
            raise FieldMismatch("entry from a different field")
        return v.idx
    v = int(v)
    if v < 0:
        return v % field.p
    if v < field.q:
        return v
    raise AlgebraError(f"entry {v} out of range for {field}")


def as_array(field, rows):
    """2-D int32 index array from nested lists / FieldElems."""
    if isinstance(rows, np.ndarray):
        return rows.astype(np.int32)
    data = [[_coerce_entry(field, v) for v in row] for row in rows]
    return np.array(data, dtype=np.int32).reshape(len(data), -1)


def vec(field, entries):
    """1-D int32 index vector."""
    return np.array([_coerce_entry(field, v) for v in entries],
                    dtype=np.int32)


class Matrix:
    """Immutable dense matrix of field-element indices."""

    __slots__ = ("field", "a", "_key")

    def __init__(self, field, rows):
        a = as_array(field, rows)
        if a.ndim != 2:
            raise AlgebraError("matrix data must be two-dimensional")
        a.setflags(write=False)
        self.field = field
        self.a = a
        self._key = (field.key, a.shape, a.tobytes())

    @classmethod
    def identity(cls, field, n):
        return cls(field, np.eye(n, dtype=np.int32))

    @classmethod
    def zeros(cls, field, r, c):
        return cls(field, np.zeros((r, c), dtype=np.int32))

    @classmethod
    def diag(cls, field, entries):
        e = vec(field, entries)
        a = np.zeros((len(e), len(e)), dtype=np.int32)
        np.fill_diagonal(a, e)
        return cls(field, a)

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    @property
    def is_square(self):
        return self.a.shape[0] == self.a.shape[1]

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if other.field != self.field:
                raise FieldMismatch("matrix product across fields")
            if self.cols != other.rows:
                raise AlgebraError("inner dimensions differ")
            return Matrix(self.field, self.field.mat_mul(self.a, other.a))
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Matrix):
            if other.field != self.field or self.a.shape != other.a.shape:
                raise FieldMismatch("matrix sum shape/field mismatch")
            return Matrix(self.field, self.field.vadd(self.a, other.a))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Matrix):
            return Matrix(self.field, self.field.vsub(self.a, other.a))
        return NotImplemented

    def __neg__(self):
        return Matrix(self.field, self.field.vneg(self.a))

    def scale(self, c):
        return Matrix(self.field, self.field.vscale(
            _coerce_entry(self.field, c), self.a))

    @property
    def T(self):
        return Matrix(self.field, self.a.T.copy())

    def apply(self, v):
        """Image of a column vector, given and returned as 1-D array."""
        return self.field.mat_vec(self.a, v)

    def pow(self, e):
        if not self.is_square:
            raise NonSquare("matrix power needs a square matrix")
        if e < 0:
            return self.inverse().pow(-e)
        r = Matrix.identity(self.field, self.rows)
        b = self
        while e:
            if e & 1:
                r = r @ b
            b = b @ b
            e >>= 1
        return r

    def is_identity(self):
        n = self.rows
        return self.is_square and \
            np.array_equal(self.a, np.eye(n, dtype=np.int32))

    def inverse(self):
        if not self.is_square:
            raise NonSquare("inverse needs a square matrix")
        n = self.rows
        aug = np.concatenate(
            [self.a, np.eye(n, dtype=np.int32)], axis=1)
        red, rank, _ = rref_array(self.field, aug)
        if rank < n:
            raise AlgebraError("matrix is singular")
        return Matrix(self.field, red[:, n:])

    def det(self):
        if not self.is_square:
            raise NonSquare("determinant needs a square matrix")
        F = self.field
        a = self.a.copy()
        n = self.rows
        d = 1
        for c in range(n):
            pr = next((i for i in range(c, n) if a[i, c] != 0), None)
            if pr is None:
                return FieldElem(F, 0)
            if pr != c:
                a[[c, pr]] = a[[pr, c]]
                d = F.neg(d)
            d = F.mul(d, int(a[c, c]))
            inv = F.inv(int(a[c, c]))
            for i in range(c + 1, n):
                if a[i, c] != 0:
                    f = F.mul(inv, int(a[i, c]))
                    a[i] = F.vsub(a[i], F.vscale(f, a[c]))
        return FieldElem(F, d)

    def rank(self):
        return rref_array(self.field, self.a)[1]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Matrix({self.field}, {self.a.tolist()})"


def rref_array(F, a):
    """(reduced array, rank, pivot columns) by Gauss-Jordan elimination."""
    a = a.astype(np.int32).copy()
    nrows, ncols = a.shape
    piv = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i, c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = F.inv(int(a[r, c]))
        if inv != 1:
            a[r] = F.vscale(inv, a[r])
        # clear column c outside row r in one step; skipped when there is
        # nothing to clear, which is cheaper for the many one-row inputs
        if nrows > 1 and np.count_nonzero(a[:, c]) > 1:
            col = a[:, c:c + 1].copy()
            col[r] = 0
            a = F.vsub(a, F.vmul(col, a[r]))
        piv.append(c)
        r += 1
        if r == nrows:
            break
    return a, r, tuple(piv)


def rref(m):
    """Reduced row echelon form of a Matrix: (Matrix, rank, pivot cols)."""
    red, rank, piv = rref_array(m.field, m.a)
    return Matrix(m.field, red), rank, piv


class Subspace:
    """A subspace of F^n in canonical form: the basis is a full-row-rank
    matrix in reduced row echelon form, so two Subspaces are equal iff their
    basis arrays are identical."""

    __slots__ = ("field", "ambient_dim", "basis", "_key")

    def __init__(self, field, ambient_dim, rows):
        a = as_array(field, rows) if not isinstance(rows, np.ndarray) \
            else rows.astype(np.int32)
        if a.size == 0:
            a = a.reshape(0, ambient_dim)
        if a.shape[1] != ambient_dim:
            raise AlgebraError("row length differs from ambient dimension")
        red, rank, _ = rref_array(field, a)
        red = red[:rank].copy()
        red.setflags(write=False)
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = red
        self._key = (field.key, ambient_dim, red.tobytes())

    @classmethod
    def zero(cls, field, n):
        return cls(field, n, np.zeros((0, n), dtype=np.int32))

    @classmethod
    def whole(cls, field, n):
        return cls(field, n, np.eye(n, dtype=np.int32))

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def is_zero(self):
        return self.dim == 0

    def image(self, g):
        """Image under the matrix g (acting on column vectors)."""
        rows = self.field.mat_mul(self.basis, g.a.T)
        return Subspace(self.field, self.ambient_dim, rows)

    def contains_vec(self, v):
        r = reduce_against(self.field, self.basis, np.asarray(v))
        return not r.any()

    def contains(self, other):
        return all(self.contains_vec(row) for row in other.basis)

    def sum_with(self, other):
        rows = np.concatenate([self.basis, other.basis], axis=0)
        return Subspace(self.field, self.ambient_dim, rows)

    @property
    def pivots(self):
        """Pivot column of each RREF basis row."""
        return tuple(int(np.argmax(row != 0)) for row in self.basis)

    def lift_rows(self, rows):
        """Map row vectors in basis coordinates back to the ambient space."""
        return self.field.mat_mul(np.asarray(rows, dtype=np.int32),
                                  self.basis)

    def sort_key(self):
        return (self.dim, self.basis.tobytes())

    def __eq__(self, other):
        return isinstance(other, Subspace) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient_dim}, " \
               f"{self.basis.tolist()})"


def reduce_against(F, rref_rows, v):
    """Reduce vector v against rows already in RREF; returns the residue."""
    v = v.astype(np.int32).copy()
    for row in rref_rows:
        pc = int(np.argmax(row != 0)) if row.any() else None
        if pc is not None and v[pc] != 0:
            v = F.vsub(v, F.vscale(int(v[pc]), row))
    return v


def kernel(m):
    """Right null space {v : m v = 0} as a canonical Subspace."""
    F = m.field
    red, rank, piv = rref_array(F, m.a)
    n = m.cols
    free = [c for c in range(n) if c not in piv]
    rows = np.zeros((len(free), n), dtype=np.int32)
    for i, fc in enumerate(free):
        rows[i, fc] = 1
        for j, pc in enumerate(piv):
            rows[i, pc] = F.neg(int(red[j, fc]))
    return Subspace(F, n, rows)


def eval_poly(f, m):
    """f(m) by Horner's rule."""
    F = m.field
    n = m.rows
    acc = Matrix.zeros(F, n, n)
    for c in reversed(f.coeffs if f.coeffs else (0,)):
        acc = acc @ m
        if c:
            acc = acc + Matrix.diag(F, [c] * n)
    return acc


def charpoly(m):
    """Monic characteristic polynomial det(xI - m), by fraction-free
    elimination over F[x]; divisions are exact, no pivoting is needed since
    the leading principal minors of xI - m are monic."""
    if not m.is_square:
        raise NonSquare("characteristic polynomial needs a square matrix")
    F = m.field
    n = m.rows
    if n == 0:
        return Poly.const(F, 1)
    M = [[Poly(F, (F.neg(int(m.a[i, j])),) + ((1,) if i == j else ()))
          for j in range(n)] for i in range(n)]
    prev = Poly.const(F, 1)
    for t in range(n - 1):
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                num = M[t][t] * M[i][j] - M[i][t] * M[t][j]
                quo, rem = divmod(num, prev)
                assert rem.is_zero
                M[i][j] = quo
        prev = M[t][t]
    return M[n - 1][n - 1]


class RelationTracker:
    """Incremental row reduction that remembers how each reduced row was
    expressed in the inserted vectors; insert() returns the dependency
    coefficients (monic in the newest vector) when the span stops growing."""

    def __init__(self, F):
        self.F = F
        self.rows = []    # reduced rows, each with recorded pivot column
        self.combos = []  # expression of rows[i] in the inserted vectors
        self.count = 0

    def insert(self, v):
        F = self.F
        v = np.asarray(v, dtype=np.int32).copy()
        combo = [0] * self.count + [1]
        self.count += 1
        for (pc, row), rc in zip(self.rows, self.combos):
            coef = int(v[pc])
            if coef:
                v = F.vsub(v, F.vscale(coef, row))
                for i, c in enumerate(rc):
                    combo[i] = F.sub(combo[i], F.mul(coef, c))
        if not v.any():
            return combo
        pc = int(np.argmax(v != 0))
        inv = F.inv(int(v[pc]))
        if inv != 1:
            v = F.vscale(inv, v)
            combo = [F.mul(inv, c) for c in combo]
        combo += [0] * (self.count - len(combo))
        for rc in self.combos:
            rc += [0] * (self.count - len(rc))
        self.rows.append((pc, v))
        self.combos.append(combo)
        return None


def minpoly(m):
    """Least-degree monic annihilator: lcm over standard basis vectors of
    the annihilator of the Krylov sequence v, mv, m^2 v, ..."""
    if not m.is_square:
        raise NonSquare("minimal polynomial needs a square matrix")
    F = m.field
    n = m.rows
    result = Poly.const(F, 1)
    for idx in range(n):
        v = np.zeros(n, dtype=np.int32)
        v[idx] = 1
        tracker = RelationTracker(F)
        rel = tracker.insert(v)
        while rel is None:
            v = F.mat_vec(m.a, v)
            rel = tracker.insert(v)
        ann = Poly(F, rel)
        g = poly_gcd(result, ann)
        result = (result * ann) // g
        if result.degree == n:
            break
    return result.monic()


def primary_components(m):
    """(irreducible factor q_i, ker q_i(m)^{e_i}) pairs, e_i taken from the
    characteristic polynomial; components are m-invariant, independent and
    fill the space."""
    if not m.is_square:
        raise NonSquare("primary decomposition needs a square matrix")
    cp = charpoly(m)
    out = []
    for g, e in poly_factor(cp):
        mat = eval_poly(g, m).pow(e)
        out.append((g, kernel(mat)))
    return out


def extend_scalars(obj, K):
    """Map a Matrix or Subspace over F through the canonical embedding
    F -> K.  RREF structure is preserved, so subspaces stay canonical."""
    if isinstance(obj, Matrix):
        table = embedding(obj.field, K)
        return Matrix(K, table[obj.a])
    if isinstance(obj, Subspace):
        table = embedding(obj.field, K)
        return Subspace(K, obj.ambient_dim, table[obj.basis])
    raise AlgebraError(f"cannot extend scalars of {type(obj).__name__}")


def restrict_matrix(g, sub):
    """Matrix of g's action on a g-invariant Subspace, in the subspace's
    basis-row coordinates (still acting on column vectors).

    Because the basis is RREF, coordinates are read off the pivot columns.
    Raises NotInvariant when g moves the subspace.
    """
    F = g.field
    Z = sub.basis
    img = F.mat_mul(Z, g.a.T)  # row i = g applied to basis row i
    coords = img[:, list(sub.pivots)].astype(np.int32)
    if not np.array_equal(F.mat_mul(coords, Z), img):
        raise NotInvariant("matrix does not preserve the subspace")
    return Matrix(F, coords.T.copy())


def projective_lines(field, n):
    """Canonical line representatives of F^n (leading coordinate 1), in
    lexicographic order."""
    reps = []
    for pivot in range(n):
        tail = n - pivot - 1
        for code in range(field.q ** tail):
            v = np.zeros(n, dtype=np.int32)
            v[pivot] = 1
            c = code
            for j in range(tail - 1, -1, -1):
                v[pivot + 1 + j] = c % field.q
                c //= field.q
            reps.append(v)
    return reps


def rational_form(s, F):
    """Descend a Frobenius-stable subspace over K to a subspace over F with
    extend_scalars(result, K) == s.

    A subspace is stable under the entrywise map x -> x^|F| iff its canonical
    RREF basis is fixed entrywise (RREF bases are unique, and the map
    preserves the RREF shape), i.e. iff every entry lies in the embedded
    copy of F.  Raises NotGaloisStable otherwise.
    """
    K = s.field
    inv = embedding_inverse(F, K)
    qf = F.q
    for row in s.basis:
        for e in row:
            if K.pow(int(e), qf) != int(e):
                raise NotGaloisStable(
                    f"basis entry {int(e)} of {K} moves under x -> x^{qf}")
    down = inv[s.basis]
    if (down < 0).any():
        raise NotGaloisStable("fixed entry outside the embedded subfield")
    return Subspace(F, s.ambient_dim, down.astype(np.int32))
