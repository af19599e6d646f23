"""Ontology loading.

An ontology arrives as a label dump: one entity per line,
``entity_id<TAB>preferred_label<TAB>syn1|syn2|...`` with ``#`` comments and
blank lines ignored; a line ends at LF, CRLF or a lone CR. The synonym field
may be empty or absent. Entities are immutable once loaded.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import (
    DuplicateEntityId, EmptyOntology, MalformedRecord, UnknownEntity, refuse_assignment,
)
from .fileio import read_records


def normalize_label(text: str) -> str:
    """Collapse runs of whitespace and strip the ends."""
    return " ".join(text.split())


class Entity(NamedTuple):
    """One ontology entity: an id, a preferred label, optional synonyms.

    Synonyms keep their dump order, minus duplicates and minus any synonym
    identical to the preferred label. A tuple, built at tuple speed.
    """

    id: str
    preferred_label: str
    synonyms: tuple[str, ...] = ()

    __setattr__ = refuse_assignment  # immutable, as a frozen dataclass

    @property
    def labels(self) -> tuple[str, ...]:
        """All labels, preferred first, synonyms in load order."""
        return (self.preferred_label,) + self.synonyms


class Ontology:
    """An immutable named collection of entities, compared by value."""

    __slots__ = ("name", "entities", "_by_id")
    __setattr__ = refuse_assignment

    def __init__(self, name: str, entities: tuple[Entity, ...]):
        by_id = {entity.id: entity for entity in entities}
        if len(by_id) < len(entities):
            seen: set[str] = set()
            for entity in entities:
                if entity.id in seen:
                    raise DuplicateEntityId(
                        f"entity id {entity.id!r} appears more than once in {name!r}"
                    )
                seen.add(entity.id)
        for slot, value in zip(self.__slots__, (name, entities, by_id)):
            object.__setattr__(self, slot, value)

    def __eq__(self, other) -> bool:
        return type(other) is Ontology and (self.name, self.entities) == (
            other.name, other.entities
        )

    def __len__(self) -> int:
        return len(self.entities)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self.entities)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._by_id

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise UnknownEntity(
                f"{self.name!r} has no entity {entity_id!r}"
            ) from None

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(entity.id for entity in self.entities)


def load_ontology(path: str, name: str) -> Ontology:
    """Parse a label dump into an Ontology.

    Raises MalformedRecord with the offending line number, DuplicateEntityId
    on repeated ids, and EmptyOntology when no entity lines remain.
    """
    by_id: dict[str, Entity] = {}
    for line_no, fields in read_records(path):
        if len(fields) == 2:
            fields.append("")
        if len(fields) != 3:
            raise MalformedRecord(
                path, line_no, f"expected 2 or 3 tab-separated fields, got {len(fields)}"
            )
        entity_id = fields[0].strip()
        preferred = normalize_label(fields[1])
        if not entity_id:
            raise MalformedRecord(path, line_no, "empty entity id")
        if not preferred:
            raise MalformedRecord(path, line_no, "empty preferred label")
        if entity_id in by_id:
            raise DuplicateEntityId(
                f"{path}:{line_no}: entity id {entity_id!r} already defined"
            )
        synonyms: list[str] = []
        for raw in fields[2].split("|") if fields[2] else ():
            synonym = normalize_label(raw)
            if synonym and synonym != preferred and synonym not in synonyms:
                synonyms.append(synonym)
        by_id[entity_id] = Entity(entity_id, preferred, tuple(synonyms))
    if not by_id:
        raise EmptyOntology(f"{path} contains no entities")
    return Ontology(name=name, entities=tuple(by_id.values()))
