"""PBW straightening kernel.

This is the hot inner loop of the whole package: rewriting words in an
ordered basis into normal form using the commutator table.  Words are
run-length encoded as tuples of (basis index, exponent), and the kernel
stays in that sparse form throughout: a normal-form monomial inside it
is a run tuple with strictly increasing indices, and the memoized pair
products are dicts keyed by such runs.  Dense exponent tuples of length
``dim`` appear only at the public boundary, as the keys that
``normal_order_word``, ``multiply_monomials`` and ``multiply_sums``
return and the monomials that the last two take.
Coefficients stay in Z throughout because the structure constants are
integers.

``multiply_sums`` straightens a whole product of two integer sums in one
pass: each key becomes runs once, every joined word goes into the one
pending sum of the kernel loop, and each output term comes back with its
dense key and its degree, both read off its runs once.

The rewrite rule is the leftmost out-of-order adjacent pair.  Products
of pure powers b_hi^a * b_lo^b are memoized per kernel whatever their
exponents, so a product of high powers reuses the products of the lower
powers it peels down to.  Results never depend on cache state.

``normal_order_word`` and ``multiply_monomials`` also take an index
window [lo, hi): a pending word that starts below lo or ends at hi or
above is dropped as it is popped, and only monomials inside the window
come out.  With the triangular basis of ``liealg`` (y's, then h's, then
x's) and the window of the h's, that is exactly the U(h) part of the
normal form: U(g) = U(h) + (n- U(g) + U(g) n+) is direct, a word that
starts with a y lies in n- U(g) and one that ends with an x in U(g) n+.
Likewise the window of the y's and h's keeps exactly the x-free part,
U(g) = U(b-) + U(g) n+, which is all that acts on a highest-weight
vector.  The window applies to the top-level pending words only.  Pair
products are spliced into the middle of words, so they, and the
straightening that peels them, keep full normal forms; a pruned pair
product would also poison the cache that unwindowed calls share.
"""

from __future__ import annotations

from itertools import compress

#: name of the live kernel, reported by ``bggkit selftest`` and perfbench
KERNEL_IMPL = "python"


def _squash(runs):
    """Merge adjacent equal indices and drop zero exponents."""
    out = []
    for idx, exp in runs:
        if exp == 0:
            continue
        if out and out[-1][0] == idx:
            out[-1] = (idx, out[-1][1] + exp)
        else:
            out.append((idx, exp))
    return tuple(out)


def _sparse(exps):
    """Runs of a dense exponent tuple, in index order."""
    return tuple(zip(compress(range(len(exps)), exps), filter(None, exps)))


def _join(left, right):
    """Concatenate two squashed words, merging equal indices at the seam."""
    if left and right and left[-1][0] == right[0][0]:
        return left[:-1] + ((right[0][0], left[-1][1] + right[0][1]),) + right[1:]
    return left + right


def _accumulate(out, key, c):
    """Add c to out[key], dropping the key when the sum is 0."""
    acc = out.get(key, 0) + c
    if acc:
        out[key] = acc
    elif key in out:
        del out[key]


class StraightenKernel:
    """Normal ordering for one fixed basis and commutator table.

    ``table`` maps (hi, lo) with hi > lo to the expansion of the
    commutator [b_hi, b_lo] as a tuple of (basis index, integer) pairs.
    Missing keys mean the commutator vanishes.
    """

    def __init__(self, dim, table):
        self.dim = int(dim)
        self.table = {pair: tuple(entries) for pair, entries in table.items()}
        self._pair_cache = {}

    def _dense(self, terms):
        """Re-key {runs: int} by dense exponent tuples."""
        out = {}
        for runs, c in terms.items():
            exps = [0] * self.dim
            for idx, exp in runs:
                exps[idx] = exp
            out[tuple(exps)] = c
        return out

    def normal_order_word(self, runs, window=None):
        """Straighten an arbitrary word; returns {monomial exps: int}.

        With ``window=(lo, hi)``, only the monomials whose indices all lie
        in [lo, hi) are returned, and the other words are dropped as they
        appear; see the module docstring for when that is exact.
        """
        return self._dense(self._straighten({_squash(runs): 1}, window))

    def multiply_monomials(self, exps_a, exps_b, window=None):
        """Normal form of X^A * X^B; returns {monomial exps: int}.

        ``window=(lo, hi)`` keeps the monomials inside [lo, hi) only, as
        for ``normal_order_word``.
        """
        return self._dense(self._straighten(
            {_join(_sparse(exps_a), _sparse(exps_b)): 1}, window))

    def multiply_sums(self, left, right):
        """Normal form of (sum n_A X^A)(sum m_B X^B) as a list of
        (monomial exps, degree, int), one per nonzero term.

        ``left`` and ``right`` are sequences of (monomial exps, int)
        pairs.  Each key is turned into runs once, and every joined word
        goes into one pending sum, so the product is one straightening
        pass in integers.
        """
        right = [(_sparse(eb), nb) for eb, nb in right]
        pending = {}
        for ea, na in left:
            ra = _sparse(ea)
            for rb, nb in right:
                _accumulate(pending, _join(ra, rb), na * nb)
        out = []
        for runs, c in self._straighten(pending).items():
            exps = [0] * self.dim
            deg = 0
            for idx, exp in runs:
                exps[idx] = exp
                deg += exp
            out.append((tuple(exps), deg, c))
        return out

    def _straighten(self, pending, window=None):
        """Normal form of a sum {squashed word: int} as {sorted runs: int},
        or its window part when ``window=(lo, hi)``.  ``pending`` is
        consumed."""
        out = {}
        pair_product = self._pair_product
        start, stop = window or (0, self.dim)
        while pending:
            word, coef = pending.popitem()
            if window and word and (word[0][0] < start or word[-1][0] >= stop):
                continue  # outside the window, and so is its normal form
            for k in range(len(word) - 1):
                if word[k][0] > word[k + 1][0]:
                    break
            else:
                _accumulate(out, word, coef)
                continue
            hi, a = word[k]
            lo, b = word[k + 1]
            prefix = word[:k]
            suffix = word[k + 2:]
            for mono, c in pair_product(hi, lo, a, b).items():
                _accumulate(pending, _join(_join(prefix, mono), suffix), coef * c)
        return out

    def _pair_product(self, hi, lo, a, b):
        """Normal form of b_hi^a * b_lo^b for hi > lo, as {sorted runs: int}.

        Callers must treat the returned dict as read-only; it is a shared
        cache entry.
        """
        key = (hi, lo, a, b)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        if a == 1 and b == 1:
            res = {((lo, 1), (hi, 1)): 1}
            for idx, c in self.table.get((hi, lo), ()):
                _accumulate(res, ((idx, 1),), c)
        else:
            # peel one power of each factor: hi^a lo^b = hi^(a-1) (hi lo) lo^(b-1)
            res = {}
            left = ((hi, a - 1),) if a > 1 else ()
            right = ((lo, b - 1),) if b > 1 else ()
            for mono, c in self._pair_product(hi, lo, 1, 1).items():
                for m2, c2 in self._straighten({_join(_join(left, mono), right): 1}).items():
                    _accumulate(res, m2, c * c2)
        self._pair_cache[key] = res
        return res

