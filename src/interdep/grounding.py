"""Symbolic grounding: events as planning actions over kitchen propositions.

A grounded proposition is a binary fact about the kitchen, drawn from a
closed vocabulary (what sits on each counter, each pot's fill level and
phase, what each cook holds, soups delivered so far). An event, what
`gridworld.step` reports one cook's interact did, becomes a planning-style
action with a precondition set, an add set and a delete set over those
propositions, so the simulator alone decides what an action did. A move or
a stay has no event and grounds to nothing.

The vocabulary follows from the EFFECTS table below: each predicate's
argument types are read off its terms, and every predicate but
PRIVATE_PREDICATES (held items, the delivery tally) is a shared fluent, an
observable surface both cooks act through (counters, pots). A private
fluent can never link one cook's action to the other's.

Each subtask's effects are written once, in the EFFECTS table, as
propositions whose arguments name roles (the acting cook, the faced cell,
the faced pot and its fill, the delivered count) instead of values.
`step` fills every role into the event it reports, so grounding reads the
event alone: it looks the event's key (subtask, cook, cell, pot, fill,
soups delivered, whether the placement fills the pot) up in one cached
table (`_effects`), so each distinct event is grounded once, however many
steps repeat it. Every event with that key shares the cached entry, a
`Grounding`, which nothing mutates. Beside the pre, add and delete sets
it holds the event's link view, what the pair matcher folds: the shared
preconditions as (canonical text, proposition) and the canonical texts of
the shared deletes and adds. A text names one fact, since each predicate
has one signature, so the matcher can key its map by the text, whose hash
a `str` caches, instead of hashing propositions.
The table is bounded by faced cells x pot fill levels x soups target (for
each subtask and cook); a whole sweep needs a few dozen entries.
SUBTASK_TEMPLATES, which drives the interaction schema and the schema
dump, is the same EFFECTS text projected to predicate names.
"""

from __future__ import annotations

import functools
from typing import Optional

from .gridworld import (
    GET_SOUP_POT,
    MOVE,
    NOOP,
    PICKUP_DISH_DISPENSER,
    PICKUP_ONION_DISPENSER,
    PLACE_ONION_POT,
    SERVE_SOUP,
    EnvEvent,
    Item,
)
from .records import record

PRIVATE_PREDICATES = frozenset({"holding", "soups-delivered"})

_ITEM_NAMES = frozenset(item.value for item in Item)


@record
class Proposition:
    """One grounded binary fact, e.g. onion-on-counter(4,2)."""

    predicate: str
    args: tuple

    def __post_init__(self) -> None:
        sig = PREDICATE_SIGNATURES.get(self.predicate)
        if sig is None:
            raise ValueError(f"unknown predicate {self.predicate!r}")
        if len(self.args) != len(sig) or any(
            not isinstance(a, t) or isinstance(a, bool)
            for a, t in zip(self.args, sig)
        ):
            raise ValueError(
                f"bad arguments {self.args!r} for predicate {self.predicate!r}"
            )
        if self.predicate == "holding":
            agent, item = self.args
            if agent not in (1, 2) or item not in _ITEM_NAMES:
                raise ValueError(f"bad holding arguments {self.args!r}")

    @property
    def shared(self) -> bool:
        return self.predicate in SHARED_PREDICATES

    def canonical(self) -> str:
        return f"{self.predicate}({','.join(str(a) for a in self.args)})"


# Pre, add and delete sets of every subtask, each written once. An argument
# is a role filled in from the event at grounding time (i the acting cook,
# x,y the faced cell, p the faced pot, n its onion count, k the soups
# delivered so far) or a literal item name or count. A leading `?` marks an
# add that holds only when the placement fills the pot: the step starts the
# cook and owns the readiness cook_time ticks later, the one add not yet
# true in the successor state.
EFFECTS: dict[str, tuple[str, str, str]] = {
    PICKUP_ONION_DISPENSER: (
        "holding(i,nothing)",
        "holding(i,onion)",
        "holding(i,nothing)",
    ),
    PICKUP_DISH_DISPENSER: (
        "holding(i,nothing)",
        "holding(i,dish)",
        "holding(i,nothing)",
    ),
    # Counters work alike for every item: taking one empties the counter,
    # putting one down fills it.
    **{
        f"pickup-{item}-counter": (
            f"holding(i,nothing) {item}-on-counter(x,y)",
            f"holding(i,{item}) counter-empty(x,y)",
            f"holding(i,nothing) {item}-on-counter(x,y)",
        )
        for item in ("onion", "dish", "soup")
    },
    **{
        f"place-{item}-counter": (
            f"holding(i,{item}) counter-empty(x,y)",
            f"holding(i,nothing) {item}-on-counter(x,y)",
            f"holding(i,{item}) counter-empty(x,y)",
        )
        for item in ("onion", "dish", "soup")
    },
    PLACE_ONION_POT: (
        "holding(i,onion) pot-contains(p,n)",
        "holding(i,nothing) pot-contains(p,n+1) ?soup-cooking(p) ?soup-ready(p)",
        "holding(i,onion) pot-contains(p,n)",
    ),
    GET_SOUP_POT: (
        "holding(i,dish) soup-ready(p)",
        "holding(i,soup) pot-contains(p,0)",
        "holding(i,dish) soup-ready(p) pot-contains(p,n)",
    ),
    SERVE_SOUP: (
        "holding(i,soup)",
        "holding(i,nothing) soups-delivered(k+1)",
        "holding(i,soup) soups-delivered(k)",
    ),
    MOVE: ("", "", ""),
    NOOP: ("", "", ""),
}


def _terms(text: str):
    """(conditional, predicate, argument names) of each term of one effect set."""
    for term in text.split():
        predicate, _, args = term.lstrip("?").rstrip(")").partition("(")
        yield term.startswith("?"), predicate, args.split(",")


def _signatures(effects: dict) -> dict[str, tuple[type, ...]]:
    """Each predicate's argument types; TypeError if it is written with two."""
    signatures: dict = {}
    for sets in effects.values():
        for _, predicate, args in _terms(" ".join(sets)):
            sig = tuple(str if a in _ITEM_NAMES else int for a in args)
            if signatures.setdefault(predicate, sig) != sig:
                raise TypeError(f"predicate {predicate!r} has two signatures")
    return signatures


PREDICATE_SIGNATURES = _signatures(EFFECTS)
SHARED_PREDICATES = frozenset(PREDICATE_SIGNATURES) - PRIVATE_PREDICATES


@record
class Grounding:
    """One event grounded: its (pre, add, del) sets and its link view.

    `shared_pre` holds (canonical text, proposition) for each shared
    precondition; `shared_del` and `shared_add` hold the canonical texts of
    the shared deletes and adds. Each is sorted by text.
    """

    pre: frozenset
    add: frozenset
    delete: frozenset
    shared_pre: tuple
    shared_del: tuple
    shared_add: tuple


def _texts(props: frozenset) -> tuple:
    return tuple(sorted(p.canonical() for p in props if p.shared))


@functools.cache
def _effects(
    subtask: str, agent: int, cell: tuple, pot: Optional[int], n: int, k: int, fills: bool
) -> Grounding:
    """One event grounded from its key: its sets and link view.

    The key is everything EFFECTS reads: the acting cook, the faced cell,
    the faced pot and its onion count, the soups delivered and whether the
    placement fills the pot. An argument that names no role is a literal
    item name; the literal count 0 sits with the roles to stay an int.
    """
    sets = EFFECTS.get(subtask)
    if sets is None:
        raise ValueError(f"unknown subtask {subtask!r}")
    roles = {"i": agent, "x": cell[0], "y": cell[1], "p": pot, "0": 0}
    roles.update({"n": n, "n+1": n + 1, "k": k, "k+1": k + 1})
    pre, add, delete = (
        frozenset(
            Proposition(predicate, tuple(roles.get(a, a) for a in args))
            for conditional, predicate, args in _terms(text)
            if fills or not conditional
        )
        for text in sets
    )
    shared_pre = sorted((p.canonical(), p) for p in pre if p.shared)
    return Grounding(pre, add, delete, tuple(shared_pre), _texts(delete), _texts(add))


def ground_event(event: EnvEvent) -> Grounding:
    """The cached `Grounding` of one event: the grounding rule.

    The key is the event's own, as `step` filled it in. The entry is
    shared with every earlier event of the same key.
    """
    return _effects(
        event.name, event.agent, event.cell, event.pot, event.n, event.k, event.fills
    )


# Predicate-level projection of EFFECTS, conditional adds included. It
# drives the static derivation of which fluents can link two cooks' actions,
# and the schema dump.
SUBTASK_TEMPLATES: dict[str, dict[str, frozenset]] = {
    name: {
        key: frozenset(predicate for _, predicate, _ in _terms(text))
        for key, text in zip(("pre", "add", "del"), sets)
    }
    for name, sets in EFFECTS.items()
}


def vocabulary_dump() -> dict:
    """JSON-ready description of the predicate vocabulary and templates."""
    return {
        "predicates": {
            "shared": sorted(SHARED_PREDICATES),
            "private": sorted(PRIVATE_PREDICATES),
            "signatures": {
                name: [t.__name__ for t in sig]
                for name, sig in sorted(PREDICATE_SIGNATURES.items())
            },
        },
        "subtasks": {
            name: {
                "pre": sorted(tmpl["pre"]),
                "add": sorted(tmpl["add"]),
                "del": sorted(tmpl["del"]),
            }
            for name, tmpl in sorted(SUBTASK_TEMPLATES.items())
        },
    }
