"""Terms of the language L: constants, predicates, and atoms.

The paper's language L (Section 2) contains constants (domain elements),
predicates of arity >= 1 (database relations and attributes), and an infinite
pool of 0-ary predicates called *predicate constants* that are invisible in
alternative worlds.  This module defines the immutable, hashable value types
for all of these.

Two kinds of *atom* can appear in a formula:

* :class:`GroundAtom` -- ``P(c1, ..., cn)`` with ``n >= 1``; these are the
  ground atomic formulas whose truth valuations make up an alternative world.
* :class:`PredicateConstant` -- a 0-ary predicate such as the fresh symbols
  introduced by Step 2 of algorithm GUA; never visible to queries.

All four types are hash-consed through :data:`repro.logic.arena.ARENA`:
``Constant("a") is Constant("a")`` holds, equality short-circuits on
identity, and hashes are precomputed at interning time.  The two atom
types also carry an ``arena_id`` from the arena, which the SAT solver
keys and orders its variables by.  ``copy``/``pickle`` round-trips
re-enter the interning constructor via ``__reduce__``, so identity
semantics survive serialization within a process.

All support a total order (used by indexes and deterministic printing) and
cheap hashing (used pervasively by valuations and substitutions).
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterable, Tuple, Union

from repro.errors import LanguageError
from repro.logic.arena import ARENA

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")
_NUMBER_RE = re.compile(r"-?\d+\Z")
_PC_RE = re.compile(r"@?[A-Za-z_][A-Za-z0-9_']*\Z")


def _check_symbol(name: str, kind: str) -> str:
    """Validate a symbol name, returning it unchanged.

    Constants may be identifiers, integers, or quoted strings; predicates must
    be identifiers.  Raises :class:`LanguageError` on anything else so that
    malformed names fail at construction time rather than at print time.
    """
    if not isinstance(name, str) or not name:
        raise LanguageError(f"{kind} name must be a non-empty string, got {name!r}")
    return name


@total_ordering
class Constant:
    """A domain constant of L, e.g. an order number or part number.

    Constants compare by name only.  The unique name axioms of every extended
    relational theory guarantee that distinct names denote distinct elements,
    so name identity *is* semantic identity — and interning makes it object
    identity too.
    """

    __slots__ = ("name", "_hash", "__weakref__")

    def __new__(cls, name: Union[str, int]):
        if isinstance(name, int):
            name = str(name)
        # Per-class tables so subclasses (e.g. SkolemConstant) never alias
        # a plain Constant of the same name.
        table = ARENA.table(cls.__name__)
        existing = table.get(name)
        if existing is not None:
            ARENA.hits += 1
            return existing
        _check_symbol(name, "constant")
        plain = bool(_IDENT_RE.match(name) or _NUMBER_RE.match(name))
        if not plain and any(ch in name for ch in "'\"(),\n"):
            # Non-identifier names are printed quoted, so they may not
            # contain quote or structural characters themselves.
            raise LanguageError(f"invalid constant name {name!r}")
        ARENA.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Constant", name)))
        table[name] = self
        return self

    @property
    def needs_quoting(self) -> bool:
        """True when the name must be quoted to re-parse (e.g. has spaces)."""
        return not (_IDENT_RE.match(self.name) or _NUMBER_RE.match(self.name))

    def __setattr__(self, key, value):
        raise AttributeError("Constant is immutable")

    def __reduce__(self):
        return (type(self), (self.name,))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Constant) and self.name == other.name
        )

    def __lt__(self, other) -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        return self.name < other.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Constant({self.name!r})"

    def __str__(self) -> str:
        if self.needs_quoting:
            return f"'{self.name}'"
        return self.name


@total_ordering
class Predicate:
    """A predicate symbol of arity >= 1 (a database relation or attribute)."""

    __slots__ = ("name", "arity", "_hash", "__weakref__")

    def __new__(cls, name: str, arity: int):
        table = ARENA.table("Predicate")
        existing = table.get((name, arity))
        if existing is not None:
            ARENA.hits += 1
            return existing
        _check_symbol(name, "predicate")
        if not _IDENT_RE.match(name):
            raise LanguageError(f"invalid predicate name {name!r}")
        if not isinstance(arity, int) or arity < 1:
            raise LanguageError(
                f"predicate arity must be an integer >= 1, got {arity!r} "
                "(0-ary predicates are PredicateConstant)"
            )
        ARENA.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_hash", hash(("Predicate", name, arity)))
        table[(name, arity)] = self
        return self

    def __setattr__(self, key, value):
        raise AttributeError("Predicate is immutable")

    def __reduce__(self):
        return (Predicate, (self.name, self.arity))

    def __call__(self, *args: Union[Constant, str, int]) -> "GroundAtom":
        """Build a ground atom: ``Orders(700, 32, 9)`` reads like the paper."""
        return GroundAtom(self, tuple(as_constant(a) for a in args))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Predicate)
            and self.name == other.name
            and self.arity == other.arity
        )

    def __lt__(self, other) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return (self.name, self.arity) < (other.name, other.arity)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Predicate({self.name!r}, {self.arity})"

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@total_ordering
class GroundAtom:
    """A ground atomic formula ``P(c1, ..., cn)`` with n >= 1.

    These are the units whose truth valuations constitute an alternative
    world.  They are interned and hashable; ordering is lexicographic on
    (predicate, args) which gives the deterministic iteration order the
    indexes rely on.
    """

    __slots__ = ("predicate", "args", "arena_id", "_hash", "__weakref__")

    def __new__(cls, predicate: Predicate, args: Tuple[Constant, ...]):
        if not isinstance(predicate, Predicate):
            raise LanguageError(f"expected Predicate, got {predicate!r}")
        args = tuple(as_constant(a) for a in args)
        table = ARENA.table("GroundAtom")
        existing = table.get((predicate, args))
        if existing is not None:
            ARENA.hits += 1
            return existing
        if len(args) != predicate.arity:
            raise LanguageError(
                f"predicate {predicate} expects {predicate.arity} arguments, "
                f"got {len(args)}"
            )
        ARENA.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "arena_id", ARENA.next_id())
        object.__setattr__(self, "_hash", hash(("GroundAtom", predicate, args)))
        table[(predicate, args)] = self
        return self

    def __setattr__(self, key, value):
        raise AttributeError("GroundAtom is immutable")

    def __reduce__(self):
        return (GroundAtom, (self.predicate, self.args))

    @property
    def is_predicate_constant(self) -> bool:
        return False

    def constants(self) -> Tuple[Constant, ...]:
        """The constants appearing as arguments, in position order."""
        return self.args

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, GroundAtom)
            and self._hash == other._hash
            and self.predicate == other.predicate
            and self.args == other.args
        )

    def __lt__(self, other) -> bool:
        if isinstance(other, PredicateConstant):
            # Ground atoms sort before predicate constants.
            return True
        if not isinstance(other, GroundAtom):
            return NotImplemented
        return (self.predicate, self.args) < (other.predicate, other.args)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GroundAtom({self})"

    def __str__(self) -> str:
        inner = ",".join(str(a) for a in self.args)
        return f"{self.predicate.name}({inner})"


@total_ordering
class PredicateConstant:
    """A 0-ary predicate (Section 2, item 6): invisible in alternative worlds.

    Algorithm GUA mints one fresh predicate constant per renamed ground atom
    (Step 2).  By convention the library names internal ones ``@p<k>`` so they
    can never collide with user identifiers, but any identifier is accepted
    because the paper allows predicate constants in stored wffs.
    """

    __slots__ = ("name", "arena_id", "_hash", "__weakref__")

    def __new__(cls, name: str):
        table = ARENA.table("PredicateConstant")
        existing = table.get(name)
        if existing is not None:
            ARENA.hits += 1
            return existing
        _check_symbol(name, "predicate constant")
        if not _PC_RE.match(name):
            raise LanguageError(f"invalid predicate constant name {name!r}")
        ARENA.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arena_id", ARENA.next_id())
        object.__setattr__(self, "_hash", hash(("PredicateConstant", name)))
        table[name] = self
        return self

    def __setattr__(self, key, value):
        raise AttributeError("PredicateConstant is immutable")

    def __reduce__(self):
        return (PredicateConstant, (self.name,))

    @property
    def is_predicate_constant(self) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, PredicateConstant) and self.name == other.name
        )

    def __lt__(self, other) -> bool:
        if isinstance(other, GroundAtom):
            return False
        if not isinstance(other, PredicateConstant):
            return NotImplemented
        return self.name < other.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PredicateConstant({self.name!r})"

    def __str__(self) -> str:
        return self.name


#: Anything that may serve as a propositional unit inside a formula.
AtomLike = Union[GroundAtom, PredicateConstant]


def as_constant(value: Union[Constant, str, int]) -> Constant:
    """Coerce a raw string/int to a :class:`Constant` (idempotent)."""
    if isinstance(value, Constant):
        return value
    return Constant(value)


def is_atom(value: object) -> bool:
    """True iff *value* is a ground atom or predicate constant."""
    return isinstance(value, (GroundAtom, PredicateConstant))


def sort_atoms(atoms: Iterable[AtomLike]) -> list:
    """Deterministically order a mixed collection of atoms.

    Ground atoms come first (by predicate then arguments), predicate constants
    last (by name).  Used wherever reproducible output matters: printing,
    world enumeration, completion-axiom rendering.
    """
    return sorted(atoms)
