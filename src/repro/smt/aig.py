"""And-inverter graphs with structural hashing.

The bit-blaster lowers terms to an AIG; CNF generation then Tseitin-encodes
the AND nodes.  Literals are ints: ``2 * node + sign`` where sign 1 means
complemented.  Node 0 is the constant-false node, so literal 0 is FALSE and
literal 1 is TRUE.
"""

from __future__ import annotations

from repro.smt.counters import COUNTERS

__all__ = ["AIG", "FALSE_LIT", "TRUE_LIT"]

FALSE_LIT = 0
TRUE_LIT = 1


class AIG:
    """A mutable and-inverter graph.

    ``inputs`` is the list of primary-input node indices.  AND nodes store
    their two operand literals in ``left``/``right`` (index-aligned lists;
    primary inputs and the constant node hold ``-1`` there).
    """

    def __init__(self):
        self.left = [-1]
        self.right = [-1]
        self._strash = {}

    def __len__(self):
        return len(self.left)

    def new_input(self):
        """Allocate a fresh primary input; returns its positive literal."""
        index = len(self.left)
        self.left.append(-1)
        self.right.append(-1)
        COUNTERS.aig_nodes += 1
        return index << 1

    def is_input(self, node):
        return node != 0 and self.left[node] == -1

    @staticmethod
    def neg(lit):
        return lit ^ 1

    def and_(self, a, b):
        """AND of two literals with constant/structural simplification."""
        if a == FALSE_LIT or b == FALSE_LIT or a == (b ^ 1):
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if b == TRUE_LIT or a == b:
            return a
        if b < a:
            a, b = b, a
        # One int per pair (literals stay below 2**32): the table then
        # holds no 2-tuple per AND node.
        key = (a << 32) | b
        cached = self._strash.get(key)
        if cached is not None:
            return cached
        index = len(self.left)
        self.left.append(a)
        self.right.append(b)
        COUNTERS.aig_nodes += 1
        lit = index << 1
        self._strash[key] = lit
        return lit

    def or_(self, a, b):
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor_(self, a, b):
        if a == FALSE_LIT:
            return b
        if b == FALSE_LIT:
            return a
        if a == TRUE_LIT:
            return b ^ 1
        if b == TRUE_LIT:
            return a ^ 1
        if a == b:
            return FALSE_LIT
        if a == (b ^ 1):
            return TRUE_LIT
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def mux(self, sel, then, els):
        """``then`` if ``sel`` else ``els``."""
        if sel == TRUE_LIT:
            return then
        if sel == FALSE_LIT:
            return els
        if then == els:
            return then
        return self.or_(self.and_(sel, then), self.and_(sel ^ 1, els))

    def cone(self, roots):
        """Node indices reachable from root literals (excluding node 0)."""
        seen = set()
        stack = [lit >> 1 for lit in roots]
        while stack:
            node = stack.pop()
            if node == 0 or node in seen:
                continue
            seen.add(node)
            left = self.left[node]
            if left != -1:
                stack.append(left >> 1)
                stack.append(self.right[node] >> 1)
        return seen

    def evaluate(self, roots, input_values):
        """Evaluate root literals given ``{input_node: 0/1}``; returns ints."""
        values = {0: 0}
        order = self._topo(roots)
        for node in order:
            left = self.left[node]
            if left == -1:
                values[node] = input_values.get(node, 0)
            else:
                lv = values[left >> 1] ^ (left & 1)
                right = self.right[node]
                rv = values[right >> 1] ^ (right & 1)
                values[node] = lv & rv
        return [values[lit >> 1] ^ (lit & 1) for lit in roots]

    def _topo(self, roots):
        seen = set()
        order = []
        stack = [(lit >> 1, False) for lit in roots]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            left = self.left[node]
            if left != -1:
                for operand in (left >> 1, self.right[node] >> 1):
                    if operand not in seen:
                        stack.append((operand, False))
        return order
