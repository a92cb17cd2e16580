"""JSON persistence for theories and databases.

Stores exactly what Section 2 says an implementation stores — the
non-axiomatic section (as concrete formula text, which round-trips through
the parser), the schema, and the dependency axioms; the derived axioms are
rederived on load.  The :class:`~repro.core.engine.Database` form also
journals the applied updates structurally so a reloaded engine can keep
replaying and rolling back.

Format (versioned)::

    {
      "format": "repro-theory-v1",
      "schema": {"Orders": ["OrderNo", "PartNo", "Quan"], ...} | null,
      "dependencies": [{"kind": "fd", "relation": "Orders", "arity": 3,
                        "determinant": [0], "dependent": [2]}, ...],
      "formulas": ["Orders(700,32,9)", "..."],
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.errors import ReproError
from repro.ldml.ast import Assert_, Delete, Insert, Modify
from repro.logic.parser import parse, parse_atom
from repro.logic.printer import to_text
from repro.logic.terms import Predicate
from repro.theory.dependencies import (
    FunctionalDependency,
    InclusionDependency,
    MultivaluedDependency,
    TemplateDependency,
)
from repro.theory.schema import DatabaseSchema, schema_from_dict
from repro.theory.theory import ExtendedRelationalTheory

THEORY_FORMAT = "repro-theory-v1"
DATABASE_FORMAT = "repro-database-v1"


class PersistenceError(ReproError):
    """A file could not be interpreted as a stored theory/database."""


# -- dependencies ----------------------------------------------------------------


def dependency_to_dict(dependency: TemplateDependency) -> Dict[str, Any]:
    if isinstance(dependency, FunctionalDependency):
        return {
            "kind": "fd",
            "relation": dependency.predicate.name,
            "arity": dependency.predicate.arity,
            "determinant": list(dependency.determinant),
            "dependent": list(dependency.dependent),
        }
    if isinstance(dependency, InclusionDependency):
        return {
            "kind": "inclusion",
            "child": dependency.child.name,
            "child_arity": dependency.child.arity,
            "child_columns": list(dependency.child_columns),
            "parent": dependency.parent.name,
            "parent_arity": dependency.parent.arity,
            "parent_columns": list(dependency.parent_columns),
        }
    if isinstance(dependency, MultivaluedDependency):
        return {
            "kind": "mvd",
            "relation": dependency.predicate.name,
            "arity": dependency.predicate.arity,
            "determinant": list(dependency.determinant),
            "dependent": list(dependency.dependent),
        }
    raise PersistenceError(
        f"cannot serialize general template dependency {dependency!r}; "
        "only FD / inclusion / MVD forms persist"
    )


def dependency_from_dict(data: Dict[str, Any]) -> TemplateDependency:
    kind = data.get("kind")
    if kind == "fd":
        return FunctionalDependency(
            Predicate(data["relation"], data["arity"]),
            data["determinant"],
            data["dependent"],
        )
    if kind == "inclusion":
        return InclusionDependency(
            Predicate(data["child"], data["child_arity"]),
            data["child_columns"],
            Predicate(data["parent"], data["parent_arity"]),
            data["parent_columns"],
        )
    if kind == "mvd":
        return MultivaluedDependency(
            Predicate(data["relation"], data["arity"]),
            data["determinant"],
            data["dependent"],
        )
    raise PersistenceError(f"unknown dependency kind {kind!r}")


# -- theory ------------------------------------------------------------------------


def theory_to_dict(theory: ExtendedRelationalTheory) -> Dict[str, Any]:
    schema_spec: Optional[Dict[str, List[str]]] = None
    if theory.schema is not None:
        schema_spec = {
            relation.name: [a.name for a in relation.attributes]
            for relation in theory.schema.relations()
        }
    return {
        "format": THEORY_FORMAT,
        "schema": schema_spec,
        "dependencies": [
            dependency_to_dict(d) for d in theory.dependencies
        ],
        "formulas": [to_text(f) for f in theory.formulas()],
    }


def _check_format(data: Any, expected: str) -> None:
    """Reject anything but a JSON object tagged with the *expected* format."""
    if not isinstance(data, Mapping):
        raise PersistenceError(
            f"not a {expected} document (a {type(data).__name__}, not an object)"
        )
    if data.get("format") != expected:
        raise PersistenceError(
            f"not a {expected} document (format={data.get('format')!r})"
        )


def theory_from_dict(data: Dict[str, Any]) -> ExtendedRelationalTheory:
    _check_format(data, THEORY_FORMAT)
    schema: Optional[DatabaseSchema] = None
    if data.get("schema"):
        schema = schema_from_dict(data["schema"])
    dependencies = [dependency_from_dict(d) for d in data.get("dependencies", [])]
    theory = ExtendedRelationalTheory(schema=schema, dependencies=dependencies)
    for text in data.get("formulas", []):
        theory.add_formula(parse(text))
    return theory


def save_theory(theory: ExtendedRelationalTheory, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(theory_to_dict(theory), indent=2))


def load_theory(path: Union[str, Path]) -> ExtendedRelationalTheory:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"invalid JSON in {path}: {exc}") from exc
    return theory_from_dict(data)


# -- updates (journal entries) --------------------------------------------------------


def update_to_dict(update) -> Dict[str, Any]:
    from repro.ldml.simultaneous import SimultaneousInsert

    if isinstance(update, SimultaneousInsert):
        return {
            "op": "simultaneous",
            "pairs": [
                {"where": to_text(where), "body": to_text(body)}
                for where, body in update.pairs
            ],
        }
    if isinstance(update, Insert):
        return {"op": "insert", "body": to_text(update.body),
                "where": to_text(update.where)}
    if isinstance(update, Delete):
        return {"op": "delete", "target": str(update.target),
                "where": to_text(update.where)}
    if isinstance(update, Modify):
        return {"op": "modify", "target": str(update.target),
                "body": to_text(update.body), "where": to_text(update.where)}
    if isinstance(update, Assert_):
        return {"op": "assert", "condition": to_text(update.condition)}
    raise PersistenceError(f"cannot serialize update {update!r}")


def update_from_dict(data: Dict[str, Any]):
    op = data.get("op")
    if op == "simultaneous":
        from repro.ldml.simultaneous import SimultaneousInsert

        return SimultaneousInsert(
            [
                (parse(pair["where"]), parse(pair["body"]))
                for pair in data["pairs"]
            ]
        )
    if op == "insert":
        return Insert(parse(data["body"]), parse(data["where"]))
    if op == "delete":
        return Delete(parse_atom(data["target"]), parse(data["where"]))
    if op == "modify":
        return Modify(
            parse_atom(data["target"]), parse(data["body"]), parse(data["where"])
        )
    if op == "assert":
        return Assert_(parse(data["condition"]))
    raise PersistenceError(f"unknown update op {op!r}")


# -- database ----------------------------------------------------------------------------


def database_to_dict(db) -> Dict[str, Any]:
    """Serialize a Database on any backend.

    Alongside the live theory (``None`` for the theory-less naive backend),
    the document records the *base* theory the transaction manager replays
    from and the backend name, so a loaded engine replays, rolls back, and
    answers exactly like the saved one — including ``"simultaneous"``
    journal entries — on all three backends.
    """
    from repro.errors import TheoryError

    try:
        live_theory = theory_to_dict(db.theory)
    except TheoryError:  # naive backend: no theory; state = base + journal
        live_theory = None
    return {
        "format": DATABASE_FORMAT,
        "backend": db.backend.name,
        "theory": live_theory,
        "base": theory_to_dict(db.transactions.base_theory),
        "journal": [
            {"kind": entry.kind, **update_to_dict(entry.update)}
            for entry in db.transactions.log.entries()
        ],
        "auto_tag": db.auto_tag,
    }


def database_from_dict(data: Dict[str, Any]):
    from repro.core.engine import Database
    from repro.core.transaction import KIND_GROUND, KIND_SIMULTANEOUS
    from repro.core.pipeline import NormalizedUpdate

    _check_format(data, DATABASE_FORMAT)
    backend = data.get("backend", "gua")
    live = theory_from_dict(data["theory"]) if data.get("theory") else None
    # Pre-base documents stored only the live theory: fall back to an empty
    # base with the live theory's schema/dependencies (the old behavior).
    base = theory_from_dict(data["base"]) if data.get("base") else None
    structure = base if base is not None else live
    if structure is None:
        raise PersistenceError(
            "document has neither a live theory nor a base theory"
        )
    db = Database(
        schema=structure.schema,
        dependencies=structure.dependencies,
        facts=base.formulas() if base is not None else (),
        auto_tag=data.get("auto_tag", True),
        backend=backend,
    )
    replay_into_backend = live is None or backend not in ("gua",)
    for entry in data.get("journal", []):
        # Older files have no "kind"; record() then derives it structurally.
        update = update_from_dict(entry)
        kind = entry.get("kind")
        if replay_into_backend:
            # Backends whose live state cannot be overwritten wholesale
            # (log: base + pending log; naive: explicit worlds) rebuild it
            # by re-executing the journal.  Entries are already normalized
            # and attribute-tagged, so execution must not re-tag.
            from repro.ldml.simultaneous import SimultaneousInsert

            is_simultaneous = (
                kind == KIND_SIMULTANEOUS
                if kind is not None
                else isinstance(update, SimultaneousInsert)
            )
            db.backend.execute(
                NormalizedUpdate(
                    kind=KIND_SIMULTANEOUS if is_simultaneous else KIND_GROUND,
                    original=update,
                    ground=None if is_simultaneous else update,
                    simultaneous=update if is_simultaneous else None,
                )
            )
        db.transactions.log.record(update, db.backend.size(), kind=kind)
    if live is not None and not replay_into_backend:
        # The gua backend restores its exact saved syntactic state directly
        # (cheaper than replaying, and preserves predicate-constant names).
        db.theory.replace_formulas(live.formulas())
    return db


def save_database(db, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(database_to_dict(db), indent=2))


def load_database(path: Union[str, Path]):
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"invalid JSON in {path}: {exc}") from exc
    return database_from_dict(data)
