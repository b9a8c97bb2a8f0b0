"""Bit-blasting of bitvector terms into an AIG.

``BitBlaster`` maps each term to a tuple of AIG literals (LSB first) and
keeps a per-variable registry so repeated blasts of the same variable share
inputs.  All traversal is iterative; datapath DAGs exceed Python's recursion
limit routinely.
"""

from __future__ import annotations

from repro.smt.aig import AIG, FALSE_LIT, TRUE_LIT

__all__ = ["BitBlaster"]


class BitBlaster:
    """Lowers terms to AIG literal vectors."""

    def __init__(self, aig=None):
        self.aig = aig if aig is not None else AIG()
        self._cache = {}
        self.var_bits = {}

    def blast(self, term):
        """Return the tuple of AIG literals (LSB first) for ``term``.

        The cache is keyed by the term object itself — terms hash by
        identity, and the key holds a strong reference.  Keying by
        ``id(term)`` without a reference would be unsound: after
        ``terms.reset_interner()`` a garbage-collected term's id can be
        reused by a *different* term, silently aliasing it to the stale
        entry's literals.
        """
        cache = self._cache
        stack = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if node in cache:
                continue
            if not expanded:
                stack.append((node, True))
                for arg in node.args:
                    if arg not in cache:
                        stack.append((arg, False))
            else:
                cache[node] = self._blast_node(node)
        return cache[term]

    def clear_memo(self):
        """Drop the term -> literals memo, keeping the AIG and ``var_bits``.

        The memo pins every term it has seen; clearing it lets them be
        freed.  Blasting such a term again gives the literals it had and
        builds no AIG node: variables map to the same inputs through
        ``var_bits``, and every AND the operator handlers ask for is
        already in the graph's structural hash.  So node ids, and with
        them any solver's SAT variable numbering, stay as they were.
        """
        self._cache.clear()

    def blast_bit(self, term):
        """Blast a width-1 term to a single literal."""
        bits = self.blast(term)
        if len(bits) != 1:
            raise ValueError(f"expected a width-1 term, got width {len(bits)}")
        return bits[0]

    # ------------------------------------------------------------------

    def _blast_node(self, node):
        op = node.op
        if op == "const":
            return tuple(
                TRUE_LIT if (node.value >> i) & 1 else FALSE_LIT
                for i in range(node.width)
            )
        if op == "var":
            bits = self.var_bits.get(node.name)
            if bits is None:
                bits = tuple(self.aig.new_input() for _ in range(node.width))
                self.var_bits[node.name] = bits
            elif len(bits) != node.width:
                raise ValueError(
                    f"variable {node.name!r} blasted at two widths: "
                    f"{len(bits)} and {node.width}"
                )
            return bits
        args = [self._cache[arg] for arg in node.args]
        handler = getattr(self, f"_op_{op}")
        return handler(node, *args)

    # --- bitwise ------------------------------------------------------

    def _op_not(self, node, a):
        return tuple(bit ^ 1 for bit in a)

    def _op_and(self, node, a, b):
        g = self.aig
        return tuple(g.and_(x, y) for x, y in zip(a, b))

    def _op_or(self, node, a, b):
        g = self.aig
        return tuple(g.or_(x, y) for x, y in zip(a, b))

    def _op_xor(self, node, a, b):
        g = self.aig
        return tuple(g.xor_(x, y) for x, y in zip(a, b))

    # --- arithmetic ----------------------------------------------------

    def _adder(self, a, b, carry_in):
        g = self.aig
        out = []
        carry = carry_in
        for x, y in zip(a, b):
            partial = g.xor_(x, y)
            out.append(g.xor_(partial, carry))
            carry = g.or_(g.and_(x, y), g.and_(partial, carry))
        return tuple(out), carry

    def _op_add(self, node, a, b):
        bits, _ = self._adder(a, b, FALSE_LIT)
        return bits

    def _op_sub(self, node, a, b):
        bits, _ = self._adder(a, tuple(bit ^ 1 for bit in b), TRUE_LIT)
        return bits

    def _op_mul(self, node, a, b):
        g = self.aig
        width = len(a)
        acc = tuple([FALSE_LIT] * width)
        for i, sel in enumerate(b):
            if sel == FALSE_LIT:
                continue
            shifted = tuple([FALSE_LIT] * i) + a[: width - i]
            partial = tuple(g.and_(bit, sel) for bit in shifted)
            acc, _ = self._adder(acc, partial, FALSE_LIT)
        return acc

    def _less_than_unsigned(self, a, b):
        """Literal for a < b (unsigned)."""
        g = self.aig
        lt = FALSE_LIT
        for x, y in zip(a, b):  # LSB to MSB; later bits dominate
            eq = g.xor_(x, y) ^ 1
            lt = g.or_(g.and_(x ^ 1, y), g.and_(eq, lt))
        return lt

    def _subtract_if_fits(self, rem, divisor):
        """One restoring-division step: (rem >= d) ? rem - d : rem."""
        g = self.aig
        diff, borrow_free = self._adder(
            rem, tuple(bit ^ 1 for bit in divisor), TRUE_LIT
        )
        fits = borrow_free  # carry out of (rem - d) means no borrow
        new_rem = tuple(g.mux(fits, dbit, rbit) for dbit, rbit in zip(diff, rem))
        return new_rem, fits

    def _divmod(self, a, b):
        g = self.aig
        width = len(a)
        rem = tuple([FALSE_LIT] * width)
        quot = [FALSE_LIT] * width
        for i in range(width - 1, -1, -1):
            rem = (a[i],) + rem[: width - 1]
            rem, fits = self._subtract_if_fits(rem, b)
            quot[i] = fits
        # SMT-LIB: division by zero yields all-ones, remainder yields a.
        zero = self._is_zero(b)
        quot = tuple(g.mux(zero, TRUE_LIT, q) for q in quot)
        rem = tuple(g.mux(zero, abit, rbit) for abit, rbit in zip(a, rem))
        return quot, rem

    def _op_udiv(self, node, a, b):
        return self._divmod(a, b)[0]

    def _op_urem(self, node, a, b):
        return self._divmod(a, b)[1]

    def _is_zero(self, bits):
        g = self.aig
        any_set = FALSE_LIT
        for bit in bits:
            any_set = g.or_(any_set, bit)
        return any_set ^ 1

    # --- shifts (barrel) -------------------------------------------------

    def _shift_overflow(self, amount, width):
        """Literal that is 1 when the shift amount is >= width."""
        g = self.aig
        stages = max(1, (width - 1).bit_length())
        overflow = FALSE_LIT
        for i in range(stages, len(amount)):
            overflow = g.or_(overflow, amount[i])
        # Amounts encodable in the low stage bits but still >= width.
        if width & (width - 1):
            low = amount[:stages]
            ge = self._less_than_unsigned(
                low, self._const_bits(width, stages)
            ) ^ 1
            overflow = g.or_(overflow, ge)
        return overflow

    @staticmethod
    def _const_bits(value, width):
        return tuple(
            TRUE_LIT if (value >> i) & 1 else FALSE_LIT for i in range(width)
        )

    def _barrel(self, a, amount, direction, fill):
        g = self.aig
        width = len(a)
        stages = max(1, (width - 1).bit_length())
        bits = list(a)
        for stage in range(min(stages, len(amount))):
            sel = amount[stage]
            if sel == FALSE_LIT:
                continue
            step = 1 << stage
            shifted = [fill] * width
            for i in range(width):
                if direction == "left":
                    if i - step >= 0:
                        shifted[i] = bits[i - step]
                else:
                    if i + step < width:
                        shifted[i] = bits[i + step]
            bits = [g.mux(sel, s, b) for s, b in zip(shifted, bits)]
        overflow = self._shift_overflow(amount, width)
        return tuple(g.mux(overflow, fill, bit) for bit in bits)

    def _op_shl(self, node, a, b):
        return self._barrel(a, b, "left", FALSE_LIT)

    def _op_lshr(self, node, a, b):
        return self._barrel(a, b, "right", FALSE_LIT)

    def _op_ashr(self, node, a, b):
        g = self.aig
        sign = a[-1]
        width = len(a)
        # ashr(a, n) for n >= width saturates to the sign bit, so clamp the
        # shift by muxing the overflow case explicitly.
        shifted = self._barrel(a, b, "right", FALSE_LIT)
        # Fill vacated high bits with the sign: compute both logical shift of
        # a and of the all-sign vector, then OR where the mask indicates.
        sign_vec = tuple([sign] * width)
        sign_shift = self._barrel(
            tuple([FALSE_LIT] * width), b, "right", TRUE_LIT
        )
        # sign_shift has 1s exactly in the vacated positions.
        return tuple(
            g.or_(s, g.and_(m, sign))
            for s, m in zip(shifted, sign_shift)
        )

    # --- predicates ------------------------------------------------------

    def _op_eq(self, node, a, b):
        g = self.aig
        acc = TRUE_LIT
        for x, y in zip(a, b):
            acc = g.and_(acc, g.xor_(x, y) ^ 1)
        return (acc,)

    def _op_ult(self, node, a, b):
        return (self._less_than_unsigned(a, b),)

    def _op_slt(self, node, a, b):
        # slt(a, b) == ult(a ^ MSB, b ^ MSB)
        a2 = a[:-1] + (a[-1] ^ 1,)
        b2 = b[:-1] + (b[-1] ^ 1,)
        return (self._less_than_unsigned(a2, b2),)

    # --- structure -------------------------------------------------------

    def _op_concat(self, node, high, low):
        return low + high

    def _op_extract(self, node, a):
        high, low = node.params
        return a[low : high + 1]

    def _op_ite(self, node, cond, then, els):
        g = self.aig
        sel = cond[0]
        return tuple(g.mux(sel, t, e) for t, e in zip(then, els))
