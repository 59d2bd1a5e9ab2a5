"""Finite-field and matrix arithmetic for the benchmark's own generator and
checker, written independently of orthomono so that its outputs can be
checked without trusting its code.

An element of GF(p^k) is the integer whose base-p digits, least significant
first, are its coordinates in the power basis of the modulus; this is also
the group-file encoding, where such an element is written `(c0 c1 ...)`.
Tables are dense because the benchmark only uses q <= 27.
"""

import numpy as np


def _is_irreducible(p, coeffs):
    """Monic `coeffs` (low to high) of degree 2 or 3 over GF(p): irreducible
    iff it has no root."""
    return all(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p
               for x in range(p))


def canonical_modulus(p, k):
    """Lexicographically least monic irreducible of degree k over GF(p),
    comparing (c_{k-1}, ..., c_0): the modulus a group file gets when it
    names none."""
    if k == 1:
        return (0, 1)
    if k > 3:
        raise ValueError("root test decides irreducibility only for k <= 3")
    for code in range(p ** k):
        tail = tuple((code // p ** i) % p for i in range(k))
        if _is_irreducible(p, tail + (1,)):
            return tail + (1,)
    raise ValueError(f"no irreducible of degree {k} over GF({p})")


class Field:
    """GF(p^k) on element indices, with q x q add and mul tables."""

    def __init__(self, p, k=1):
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = canonical_modulus(p, k)
        q = self.q
        digits = np.array([[(a // p ** i) % p for i in range(k)]
                           for a in range(q)], dtype=np.int64)
        place = p ** np.arange(k, dtype=np.int64)
        self.add_t = ((digits[:, None, :] + digits[None, :, :]) % p) @ place
        self.neg_t = ((-digits) % p) @ place
        self.mul_t = np.array([[self._mul_poly(digits[a], digits[b]) @ place
                                for b in range(q)] for a in range(q)],
                              dtype=np.int64)
        self.inv_t = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            self.inv_t[a] = int(np.flatnonzero(self.mul_t[a] == 1)[0])
        self.minus_one = p - 1

    def _mul_poly(self, a, b):
        p, k = self.p, self.k
        prod = np.convolve(a, b) % p
        for d in range(len(prod) - 1, k - 1, -1):
            c = prod[d]
            if c:
                prod[d - k:d + 1] = (prod[d - k:d + 1]
                                     - c * np.array(self.modulus)) % p
        out = np.zeros(k, dtype=np.int64)
        out[:min(k, len(prod))] = prod[:k]
        return out

    def elem(self, coords):
        """Index of the element with the given coordinates (or residue)."""
        if isinstance(coords, int):
            return coords % self.p
        return sum((c % self.p) * self.p ** i for i, c in enumerate(coords))

    def fmt(self, a):
        a = int(a)
        if self.k == 1:
            return str(a)
        return "(" + " ".join(str((a // self.p ** i) % self.p)
                              for i in range(self.k)) + ")"

    def matmul(self, A, B):
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if self.k == 1:
            return (A @ B) % self.p
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for t in range(A.shape[1]):
            out = self.add_t[out, self.mul_t[A[:, t][:, None], B[t][None, :]]]
        return out

    def scale(self, c, A):
        return self.mul_t[int(c), np.asarray(A, dtype=np.int64)]

    def _reduce(self, M, ncols):
        """Gauss-Jordan on the first ncols columns of M in place; returns
        the rank."""
        rank = 0
        for col in range(ncols):
            piv = next((r for r in range(rank, M.shape[0]) if M[r, col]),
                       None)
            if piv is None:
                continue
            M[[rank, piv]] = M[[piv, rank]]
            M[rank] = self.scale(self.inv_t[M[rank, col]], M[rank])
            for r in range(M.shape[0]):
                if r != rank and M[r, col]:
                    f = self.neg_t[M[r, col]]
                    M[r] = self.add_t[M[r], self.mul_t[f, M[rank]]]
            rank += 1
        return rank

    def rank(self, A):
        return self._reduce(np.array(A, dtype=np.int64), A.shape[1])

    def inverse(self, A):
        """Inverse of a square matrix, or None when it is singular."""
        n = A.shape[0]
        M = np.concatenate([np.asarray(A, dtype=np.int64),
                            np.eye(n, dtype=np.int64)], axis=1)
        if self._reduce(M, n) < n:
            return None
        return M[:, n:]

    def is_isometry(self, g, gram):
        return np.array_equal(self.matmul(self.matmul(g.T, gram), g), gram)
