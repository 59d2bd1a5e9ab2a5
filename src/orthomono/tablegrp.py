"""Indexed finite groups: a full Cayley table plus subgroup machinery.

Subgroups are numpy index arrays into the parent's element list.  On top of
the table sit the closure, normalizer, derived-series and conjugacy-
canonicalization primitives, the cyclic-extension enumeration of all
solvable subgroups up to conjugacy, and a slow brute-force subgroup
enumeration used as an independent oracle at tiny sizes.
"""

import numpy as np

from .errors import TooLarge
from .field import is_prime


class CayleyTable:
    """Multiplication table of a finite group on element indices 0..N-1."""

    __slots__ = ("table", "inv", "identity", "n", "_keys")

    def __init__(self, table, identity):
        self.table = table
        self.identity = int(identity)
        self.n = table.shape[0]
        # row i holds the identity exactly once, in column inv[i]
        self.inv = np.argmax(table == self.identity, axis=1) \
            .astype(table.dtype)
        # canonical_key memo: sorted subgroup bytes -> key, for this table
        self._keys = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_generator_rows(cls, rows, identity):
        """Table from the left action of generators: rows[s][j] is the index
        of s * g_j.  Row i is filled from an already filled row w with
        g_i = s * g_w, as rows[s][table[w]], so each row is one gather."""
        N = len(rows[0])
        table = np.empty((N, N), dtype=np.int16 if N < 32767 else np.int32)
        table[identity] = np.arange(N)
        filled = np.zeros(N, dtype=bool)
        filled[identity] = True
        todo = [int(identity)]
        while todo:
            w = todo.pop()
            for row in rows:
                i = int(row[w])
                if not filled[i]:
                    filled[i] = True
                    table[i] = row[table[w]]
                    todo.append(i)
        return cls(table, identity)

    @classmethod
    def from_matrix_group(cls, G):
        els = G.enumerate()
        N = len(els)
        n = G.dim
        F = G.field
        if F.q ** (n * n) < 2 ** 62:
            # every element's columns side by side: one product per generator
            flat = np.concatenate([m.a for m in els], axis=1)
            powers = F.q ** np.arange(n * n, dtype=np.int64)

            def codes(M):
                return M.reshape(n, N, n).transpose(1, 0, 2) \
                    .reshape(N, -1).astype(np.int64) @ powers

            own = codes(flat)
            order = np.argsort(own)
            sorted_codes = own[order]
            rows = [order[np.searchsorted(sorted_codes,
                                          codes(F.mat_mul(g.a, flat)))]
                    for g in G.gens]
        else:
            rows = [np.array([G.index_of(g @ b) for b in els])
                    for g in G.gens]
        return cls._from_generator_rows(rows, G.index_of(G.identity))

    @classmethod
    def from_perm_group(cls, P):
        els = P.enumerate()
        n = P.degree
        arr = np.array(els, dtype=np.int64)
        powers = np.int64(n) ** np.arange(n, dtype=np.int64)
        lut = np.full(n ** n, -1, dtype=np.int64)
        lut[arr @ powers] = np.arange(len(els))
        # (s * q)(x) = s[q(x)]
        rows = [lut[np.asarray(s)[arr] @ powers] for s in P.gens]
        return cls._from_generator_rows(
            rows, lut[np.arange(n, dtype=np.int64) @ powers])

    # -- basic subgroup operations -------------------------------------------

    def closure(self, seeds):
        """Sorted index array of the subgroup generated by the seeds."""
        seen = np.zeros(self.n, dtype=bool)
        seen[self.identity] = True
        fresh = np.empty(self.n, dtype=bool)
        gens = np.unique(np.asarray(seeds, dtype=np.intp))
        frontier = np.array([self.identity])
        while frontier.size and gens.size:
            fresh.fill(False)
            fresh[self.table[gens[:, None], frontier]] = True
            np.greater(fresh, seen, out=fresh)  # fresh and not seen
            seen |= fresh
            frontier = fresh.nonzero()[0]
        return np.flatnonzero(seen)

    def subgroup_generators(self, H):
        """Greedy small generating set for a subgroup index array."""
        gens = []
        span = np.zeros(self.n, dtype=bool)
        span[self.identity] = True
        for x in np.sort(np.asarray(H)):
            if not span[x]:
                gens.append(int(x))
                span[:] = False
                span[self.closure(gens)] = True
                if span.sum() == len(H):
                    break
        return gens

    def element_order(self, x):
        m = 1
        y = int(x)
        while y != self.identity:
            y = int(self.table[y, x])
            m += 1
        return m

    def conjugate_rows(self, H):
        """(N, |H|) array: row g is the set gHg^-1, entries sorted."""
        Hs = np.sort(np.asarray(H))
        M = self.table[self.table[:, Hs], self.inv[:, None]]
        # table[g, h] then times inv[g] on the right: careful with order
        return np.sort(M, axis=1)

    def normalizer_mask(self, H):
        Hs = np.sort(np.asarray(H))
        M = self.conjugate_rows(Hs)
        return (M == Hs[None, :]).all(axis=1)

    def canonical_key(self, H):
        """Bytes key of the lexicographically least conjugate of H."""
        Hs = np.sort(np.asarray(H)).astype(np.int32)
        memo = Hs.tobytes()
        key = self._keys.get(memo)
        if key is None:
            M = self.conjugate_rows(Hs)
            order = np.lexsort(M.T[::-1])
            key = self._keys[memo] = M[order[0]].astype(np.int32).tobytes()
        return key

    def contained_up_to_conjugacy(self, K, K2):
        """True iff some conjugate of K is a subset of K2."""
        mask2 = np.zeros(self.n, dtype=bool)
        mask2[np.asarray(K2)] = True
        M = self.conjugate_rows(K)
        return bool(mask2[M].all(axis=1).any())

    # -- solvability on index sets ----------------------------------------------

    def derived_series_sets(self, H):
        series = [np.sort(np.asarray(H))]
        gens = self.subgroup_generators(series[0])
        while len(series[-1]) > 1:
            seeds = set()
            for i, a in enumerate(gens):
                for b in gens[i + 1:]:
                    c = self.table[self.inv[a],
                                   self.table[self.inv[b], self.table[a, b]]]
                    if int(c) != self.identity:
                        seeds.add(int(c))
            if not seeds:
                series.append(np.array([self.identity]))
                break
            conj_by = gens + [int(self.inv[g]) for g in gens]
            closed = set(seeds)
            frontier = list(seeds)
            while frontier:
                nxt = []
                for s in frontier:
                    for g in conj_by:
                        t = int(self.table[self.table[g, s], self.inv[g]])
                        if t not in closed:
                            closed.add(t)
                            nxt.append(t)
                frontier = nxt
            D = self.closure(sorted(closed))
            if len(D) == len(series[-1]):
                break
            series.append(D)
            gens = self.subgroup_generators(D)
        return series

    def is_solvable_set(self, H):
        return len(self.derived_series_sets(H)[-1]) == 1

    # -- subgroup enumeration ------------------------------------------------------

    def solvable_subgroup_classes(self):
        """All conjugacy classes of solvable subgroups, by the cyclic
        extension method: grow each known class by elements of prime order
        modulo the subgroup inside its normalizer, deduplicating by the
        canonical conjugate.  Deterministic; returns sorted index arrays,
        ordered by (order, canonical key).

        <H, x> = <H, xh>, so each coset xH of the normalizer is tried once,
        at its least element; and when xH has prime order, every element
        of K = <H, x> outside H generates K over H, so all of K is skipped.
        x runs in increasing order, so each class keeps the representative
        found first."""
        e = self.identity
        trivial = np.array([e])
        classes = {self.canonical_key(trivial): trivial}
        frontier = [trivial]
        while frontier:
            fresh = []
            for H in frontier:
                mask = np.zeros(self.n, dtype=bool)
                mask[H] = True
                tried = mask.copy()
                for x in np.flatnonzero(self.normalizer_mask(H)):
                    if tried[x]:
                        continue
                    m = 1
                    y = int(x)
                    while not mask[y]:
                        y = int(self.table[y, x])
                        m += 1
                    if not is_prime(m):
                        tried[self.table[x, H]] = True
                        continue
                    powers = [e]
                    y = int(x)
                    for _ in range(m - 1):
                        powers.append(y)
                        y = int(self.table[y, x])
                    K = np.unique(self.table[np.ix_(powers, H)])
                    tried[K] = True
                    key = self.canonical_key(K)
                    if key not in classes:
                        classes[key] = K
                        fresh.append(K)
            frontier = fresh
        return sorted(classes.values(), key=lambda a: (len(a), a.tobytes()))

    def all_subgroup_classes(self, limit=300):
        """Brute-force enumeration of every subgroup class: close each known
        class representative with each group element until stable.  Only for
        tiny groups; serves as the independent oracle."""
        if self.n > limit:
            raise TooLarge(f"brute-force subgroup sweep over {self.n} "
                           f"elements exceeds limit {limit}")
        classes = {}
        frontier = []
        for x in range(self.n):
            K = self.closure([x])
            key = self.canonical_key(K)
            if key not in classes:
                classes[key] = K
                frontier.append(K)
        while frontier:
            fresh = []
            for H in frontier:
                mask = np.zeros(self.n, dtype=bool)
                mask[H] = True
                for x in range(self.n):
                    if mask[x]:
                        continue
                    K = self.closure(list(H) + [x])
                    key = self.canonical_key(K)
                    if key not in classes:
                        classes[key] = K
                        fresh.append(K)
            frontier = fresh
        return sorted(classes.values(), key=lambda a: (len(a), a.tobytes()))
