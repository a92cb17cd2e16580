"""Seeded Orders/InStock statement generator with answers known by construction.

The generator keeps a model of the order book it has written, so every
query it emits comes with the answer the engine must give:

* **frozen** orders are inserted once, either definite
  (``Orders(o,p,q)``) or as a two-way disjunction
  (``Orders(o,p,q) | Orders(o,p,q+1)``), and no later statement mentions
  their order number, so their answers never change;
* **churn** orders are the targets of MODIFY, DELETE and the conditional
  ``INSERT InStock(p,q) WHERE Orders(o,p,q)``; the generator tracks each
  one's candidate rows so a churn statement always targets a row that may
  hold.

No statement can make the theory inconsistent: new orders use fresh order
numbers, MODIFY replaces a row of the same order, DELETE only removes, and
``InStock`` has no dependency.  No statement is an ASSERT.

This module imports nothing from the program; it only writes LDML and
query text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

Row = Tuple[int, int]  # (part, quantity)

#: Statement kinds a stream holds: a ground update or an open update.
UPDATE = "update"
OPEN_UPDATE = "open_update"

#: The ingest mix per block of 20 ground statements: 25% disjunctive new
#: orders, 35% definite new orders, 20% conditional inserts, 10% DELETE and
#: 10% MODIFY.  About half of the new orders are frozen.
_BLOCK = (
    ["new_disjunctive_frozen"] * 3
    + ["new_disjunctive_churn"] * 2
    + ["new_definite_frozen"] * 3
    + ["new_definite_churn"] * 4
    + ["conditional_insert"] * 4
    + ["delete"] * 2
    + ["modify"] * 2
)

#: The churn update of one mixed cycle, per block of 4 cycles: the ingest
#: mix restricted to its churn operations (20% conditional inserts, 10%
#: DELETE, 10% MODIFY), so 2:1:1.  A mixed round is short enough that its
#: DELETEs never use up the churn orders of its starting theory.
_CHURN_BLOCK = ["conditional_insert"] * 2 + ["delete"] + ["modify"]

_CHURN_OPS = ("conditional_insert", "delete", "modify")

CERTAIN, POSSIBLE, IMPOSSIBLE = "certain", "possible", "impossible"
STATUSES = (CERTAIN, POSSIBLE, IMPOSSIBLE)

SCHEMA = {"Orders": ["OrderNo", "PartNo", "Quan"], "InStock": ["PartNo", "Quan"]}


@dataclass(frozen=True)
class FrozenOrder:
    order: int
    part: int
    quantity: int
    disjunctive: bool

    def rows(self) -> List[Row]:
        if self.disjunctive:
            return [(self.part, self.quantity), (self.part, self.quantity + 1)]
        return [(self.part, self.quantity)]


@dataclass(frozen=True)
class Ask:
    text: str
    expected: str  # certain | possible | impossible


@dataclass(frozen=True)
class Find:
    text: str
    #: ((part, quantity) as strings, status) for each row the find returns.
    expected: Tuple[Tuple[Tuple[str, str], str], ...]


def _atom(order: int, row: Row) -> str:
    return f"Orders({order},{row[0]},{row[1]})"


#: Part numbers in use.  An open update ``INSERT InStock(p, ?q) WHERE
#: Orders(?o, p, ?q)`` grounds over the order rows of one part, so with 12
#: parts it grounds about a twelfth of the order rows: 11 to 13 pairs on a
#: mixed theory.  That is enough rows for simultaneous GUA Step 4 to
#: matter, and few enough that an open update costs about two ground ones.
PARTS = 12


class OrderBook:
    """A seeded statement and query source over one growing order book."""

    def __init__(self, seed: Union[int, str]):
        self.rng = random.Random(seed)
        self.frozen: List[FrozenOrder] = []
        self.churn: Dict[int, Set[Row]] = {}
        self._next_frozen = 100000
        self._next_churn = 500000

    # -- statements ---------------------------------------------------------

    def _quantity(self, avoid: Set[Row], part: int) -> int:
        while True:
            quantity = self.rng.randrange(10, 98)
            if (part, quantity) not in avoid and (part, quantity + 1) not in avoid:
                return quantity

    def _new_order(self, frozen: bool, disjunctive: bool) -> str:
        part = self.rng.randrange(1, PARTS + 1)
        quantity = self._quantity(set(), part)
        if frozen:
            order = self._next_frozen
            self._next_frozen += 1
            self.frozen.append(FrozenOrder(order, part, quantity, disjunctive))
        else:
            order = self._next_churn
            self._next_churn += 1
        rows = [(part, quantity)]
        if disjunctive:
            rows.append((part, quantity + 1))
        if not frozen:
            self.churn[order] = set(rows)
        return "INSERT " + " | ".join(_atom(order, r) for r in rows) + " WHERE T"

    def _churn_target(self) -> Tuple[int, Row]:
        order = self.rng.choice(sorted(self.churn))
        return order, self.rng.choice(sorted(self.churn[order]))

    def _churn_op(self, op: str) -> str:
        order, row = self._churn_target()
        if op == "conditional_insert":
            return f"INSERT InStock({row[0]},{row[1]}) WHERE {_atom(order, row)}"
        rows = self.churn[order]
        rows.discard(row)
        if op == "delete":
            if not rows:
                del self.churn[order]
            return f"DELETE {_atom(order, row)}"
        new_row = (row[0], self._quantity(rows | {row}, row[0]))
        rows.add(new_row)
        return f"MODIFY {_atom(order, row)} TO BE {_atom(order, new_row)}"

    def _statement(self, kind: str) -> str:
        if kind.startswith("new_"):
            return self._new_order(
                frozen=kind.endswith("_frozen"),
                disjunctive="disjunctive" in kind,
            )
        return self._churn_op(kind)

    @staticmethod
    def _open_update(part: int) -> str:
        return f"INSERT InStock({part}, ?q) WHERE Orders(?o, {part}, ?q)"

    def open_update(self) -> str:
        """``INSERT InStock(p, ?q) WHERE Orders(?o, p, ?q)`` for a part that
        a frozen order written so far uses, so the grounding is never
        empty."""
        return self._open_update(self.rng.choice(self.frozen).part)

    def open_updates(self, count: int) -> List[str]:
        """*count* open updates sweeping the parts frozen orders use, in
        turn: together they ground every order row of those parts, so their
        median varies less with the seed than that of random parts."""
        parts = sorted({order.part for order in self.frozen})
        return [self._open_update(parts[i % len(parts)]) for i in range(count)]

    def _blocks(self, template: List[str], count: int) -> List[str]:
        kinds: List[str] = []
        while len(kinds) < count:
            block = list(template)
            self.rng.shuffle(block)
            kinds.extend(block)
        return kinds[:count]

    def _emit(self, kinds: List[str]) -> Iterator[str]:
        """Statements for *kinds*, deferring a churn op while no churn order
        exists (only possible at the very start of a stream).  Lazy, so a
        caller can interleave statements that depend on the state so far."""
        pending: List[str] = []
        for kind in kinds:
            if kind in _CHURN_OPS and not self.churn:
                pending.append(kind)
                continue
            yield self._statement(kind)
            while pending and self.churn:
                yield self._statement(pending.pop())
        for _ in pending:
            yield self._statement("new_definite_churn")

    def ingest_stream(
        self, count: int, open_every: Optional[int] = None
    ) -> List[Tuple[str, str]]:
        """*count* ground statements in the ingest mix, with an open update
        after every *open_every* of them, if given (first one half-way in,
        or as soon after as a frozen order exists)."""
        stream: List[Tuple[str, str]] = []
        due = False
        for index, text in enumerate(self._emit(self._blocks(_BLOCK, count))):
            stream.append((UPDATE, text))
            if open_every is None:
                continue
            due = due or index % open_every == open_every // 2
            if due and self.frozen:
                stream.append((OPEN_UPDATE, self.open_update()))
                due = False
        return stream

    def churn_updates(self, count: int) -> List[str]:
        """One churn update per mixed cycle (never a frozen order)."""
        return list(self._emit(self._blocks(_CHURN_BLOCK, count)))

    # -- queries --------------------------------------------------------------

    def _frozen_of(self, disjunctive: bool) -> FrozenOrder:
        while True:
            order = self.rng.choice(self.frozen)
            if order.disjunctive == disjunctive:
                return order

    def ask(self, status: str) -> Ask:
        """An ask on a frozen order whose answer is *status*.

        The impossible query conjoins the two rows of a disjunctive order;
        only the FD ``OrderNo -> PartNo, Quan`` rules it out, so it needs SAT.
        """
        if status == CERTAIN:
            order = self._frozen_of(disjunctive=self.rng.random() < 0.5)
            text = " | ".join(_atom(order.order, r) for r in order.rows())
        else:
            order = self._frozen_of(disjunctive=True)
            rows = order.rows()
            if status == POSSIBLE:
                text = _atom(order.order, self.rng.choice(rows))
            else:
                text = " & ".join(_atom(order.order, r) for r in rows)
        return Ask(text, status)

    def asks(self, count: int) -> List[Ask]:
        """*count* asks split into thirds by status, shuffled."""
        statuses = [STATUSES[i % 3] for i in range(count)]
        self.rng.shuffle(statuses)
        return [self.ask(status) for status in statuses]

    def find(self, disjunctive: bool) -> Find:
        """``Orders(o, ?p, ?q)`` on a frozen order: one certain row for a
        definite order, two possible rows for a disjunctive one."""
        order = self._frozen_of(disjunctive)
        status = POSSIBLE if disjunctive else CERTAIN
        rows = tuple(
            sorted(((str(p), str(q)), status) for p, q in order.rows())
        )
        return Find(f"Orders({order.order}, ?p, ?q)", rows)
