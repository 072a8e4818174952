"""PBW straightening kernel.

This is the hot inner loop of the whole package: rewriting words in an
ordered basis into normal form using the commutator table.  Words are
run-length encoded as tuples of (basis index, exponent); normal-form
monomials are dense exponent tuples of length ``dim``.  Coefficients
stay in Z throughout because the structure constants are integers.

The rewrite rule is the leftmost out-of-order adjacent pair.  Products
of pure powers b_hi^a * b_lo^b are memoized per kernel whatever their
exponents, so a product of high powers reuses the products of the lower
powers it peels down to.  Results never depend on cache state.
"""

from __future__ import annotations

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

    def _runs_to_exps(self, runs):
        exps = [0] * self.dim
        for idx, exp in runs:
            exps[idx] += exp
        return tuple(exps)

    def _exps_to_runs(self, exps):
        return tuple((i, e) for i, e in enumerate(exps) if e)

    def normal_order_word(self, runs):
        """Straighten an arbitrary word; returns {monomial exps: int}."""
        pending = {_squash(runs): 1}
        out = {}
        while pending:
            word, coef = pending.popitem()
            if coef == 0:
                continue
            k = -1
            for pos in range(len(word) - 1):
                if word[pos][0] > word[pos + 1][0]:
                    k = pos
                    break
            if k < 0:
                mono = self._runs_to_exps(word)
                acc = out.get(mono, 0) + coef
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
                continue
            hi, a = word[k]
            lo, b = word[k + 1]
            prefix = word[:k]
            suffix = word[k + 2:]
            for mono, c in self.pair_product(hi, lo, a, b).items():
                new = _squash(prefix + self._exps_to_runs(mono) + suffix)
                acc = pending.get(new, 0) + coef * c
                if acc:
                    pending[new] = acc
                elif new in pending:
                    del pending[new]
        return out

    def pair_product(self, hi, lo, a, b):
        """Normal form of b_hi^a * b_lo^b for hi > lo.

        Callers must treat the returned dict as read-only; it is a shared
        cache entry.
        """
        key = (hi, lo, a, b)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        if a == 1 and b == 1:
            res = {}
            exps = [0] * self.dim
            exps[lo] = 1
            exps[hi] += 1
            res[tuple(exps)] = 1
            for idx, c in self.table.get((hi, lo), ()):
                unit = [0] * self.dim
                unit[idx] = 1
                unit = tuple(unit)
                acc = res.get(unit, 0) + c
                if acc:
                    res[unit] = acc
                elif unit in res:
                    del res[unit]
        else:
            # peel one power of each factor: hi^a lo^b = hi^(a-1) (hi lo) lo^(b-1)
            res = {}
            for mono, c in self.pair_product(hi, lo, 1, 1).items():
                word = ((hi, a - 1),) + self._exps_to_runs(mono) + ((lo, b - 1),)
                for m2, c2 in self.normal_order_word(word).items():
                    acc = res.get(m2, 0) + c * c2
                    if acc:
                        res[m2] = acc
                    elif m2 in res:
                        del res[m2]
        self._pair_cache[key] = res
        return res

    def multiply_monomials(self, exps_a, exps_b):
        """Normal form of X^A * X^B; returns {monomial exps: int}."""
        return self.normal_order_word(
            self._exps_to_runs(exps_a) + self._exps_to_runs(exps_b))
