"""And-inverter graph with structural hashing.

The bit-blaster lowers bitvector terms to AIG literals.  Structural hashing
plus constant propagation means that two syntactically different circuits
computing the same selection/permutation of bits collapse to the *same*
literal — which is what makes the page-table bit-manipulation lemmas cheap:
most discharge during construction, before the SAT solver ever runs.

Literal encoding: literal ``2*n`` is node ``n``, ``2*n + 1`` its complement.
Node 0 is the constant, so ``TRUE == 0`` and ``FALSE == 1``.
"""

from __future__ import annotations

TRUE = 0
FALSE = 1


def neg(lit: int) -> int:
    """Complement a literal."""
    return lit ^ 1


def node_of(lit: int) -> int:
    """The AIG node index a literal refers to."""
    return lit >> 1


def is_complement(lit: int) -> bool:
    return bool(lit & 1)


class Aig:
    """A mutable and-inverter graph.

    Node 0 is the constant TRUE node.  Input nodes have ``None`` as their
    definition; AND nodes store a pair of fan-in literals.
    """

    def __init__(self) -> None:
        # _defs[n] is None for inputs/constant, else (left_lit, right_lit).
        self._defs: list[tuple[int, int] | None] = [None]
        self._strash: dict[tuple[int, int], int] = {}
        self.input_names: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._defs)

    @property
    def num_ands(self) -> int:
        return sum(1 for d in self._defs if d is not None)

    def new_input(self, name: str) -> int:
        """Create a fresh primary input; returns its positive literal."""
        index = len(self._defs)
        self._defs.append(None)
        self.input_names[index] = name
        return index << 1

    def definition(self, node: int) -> tuple[int, int] | None:
        return self._defs[node]

    # -- gate constructors ---------------------------------------------------

    def and_(self, a: int, b: int) -> int:
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == b:
            return a
        if a == neg(b):
            return FALSE
        if a > b:
            a, b = b, a
        key = (a, b)
        cached = self._strash.get(key)
        if cached is not None:
            return cached
        index = len(self._defs)
        self._defs.append((a, b))
        lit = index << 1
        self._strash[key] = lit
        return lit

    def or_(self, a: int, b: int) -> int:
        return neg(self.and_(neg(a), neg(b)))

    def xor_(self, a: int, b: int) -> int:
        # a ^ b == (a | b) & ~(a & b)
        return self.and_(self.or_(a, b), neg(self.and_(a, b)))

    def xnor_(self, a: int, b: int) -> int:
        return neg(self.xor_(a, b))

    def mux(self, sel: int, then: int, other: int) -> int:
        """sel ? then : other."""
        if then == other:
            return then
        if sel == TRUE:
            return then
        if sel == FALSE:
            return other
        return self.or_(self.and_(sel, then), self.and_(neg(sel), other))

    def implies_(self, a: int, b: int) -> int:
        return neg(self.and_(a, neg(b)))

    def and_many(self, lits: list[int]) -> int:
        """Balanced conjunction of a list of literals."""
        if not lits:
            return TRUE
        work = list(lits)
        while len(work) > 1:
            nxt = []
            for i in range(0, len(work) - 1, 2):
                nxt.append(self.and_(work[i], work[i + 1]))
            if len(work) % 2:
                nxt.append(work[-1])
            work = nxt
        return work[0]

    def or_many(self, lits: list[int]) -> int:
        return neg(self.and_many([neg(l) for l in lits]))

    # -- adders ----------------------------------------------------------------

    def full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        """Return (sum, carry_out)."""
        axb = self.xor_(a, b)
        total = self.xor_(axb, cin)
        carry = self.or_(self.and_(a, b), self.and_(cin, axb))
        return total, carry

    # -- evaluation (for tests and SAT-model validation) -----------------------

    def evaluate(self, lit: int, inputs: dict[int, bool]) -> bool:
        """Evaluate a literal under an assignment of input nodes to bools."""
        values: dict[int, bool] = {0: True}
        stack = [node_of(lit)]
        while stack:
            node = stack[-1]
            if node in values:
                stack.pop()
                continue
            definition = self._defs[node]
            if definition is None:
                values[node] = bool(inputs.get(node, False))
                stack.pop()
                continue
            left, right = definition
            left_node, right_node = node_of(left), node_of(right)
            pending = [n for n in (left_node, right_node) if n not in values]
            if pending:
                stack.extend(pending)
                continue
            left_val = values[left_node] ^ is_complement(left)
            right_val = values[right_node] ^ is_complement(right)
            values[node] = left_val and right_val
            stack.pop()
        return values[node_of(lit)] ^ is_complement(lit)

    def cone(self, lits: list[int]) -> list[int]:
        """All node indices in the transitive fan-in of `lits` (excluding
        the constant node), in topological (children-first) order."""
        seen: set[int] = set()
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(node_of(l), False) for l in lits]
        while stack:
            node, ready = stack.pop()
            if ready:
                order.append(node)
                continue
            if node in seen or node == 0:
                continue
            seen.add(node)
            stack.append((node, True))
            definition = self._defs[node]
            if definition is not None:
                left, right = definition
                stack.append((node_of(left), False))
                stack.append((node_of(right), False))
        return order
