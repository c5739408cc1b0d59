"""`record` classes behave as the plain frozen dataclasses they replace."""

import ast
import copy
import dataclasses
import inspect
import pathlib
import pickle

import pytest

from conftest import PASSER, RECEIVER, policy_trace
from interdep import analyze_trace, initial_state, step
from interdep.gridworld import (
    EnvEvent,
    PlayerState,
    PotState,
    WorldState,
    record,
)
from interdep.grounding import Grounding, ground_event
from interdep.interdependence import ActionClassification, InterdependentPair

RECORDS = (
    PlayerState,
    PotState,
    EnvEvent,
    WorldState,
    ActionClassification,
    InterdependentPair,
    Grounding,
)


def plain_copy(cls):
    """The same fields under `dataclass(frozen=True)` alone."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (
                f.name,
                f.type,
                dataclasses.field(
                    default=f.default, repr=f.repr, hash=f.hash, compare=f.compare
                ),
            )
            for f in dataclasses.fields(cls)
        ],
        frozen=True,
    )


@pytest.fixture(scope="module")
def samples(layout, config):
    """Instances of every record class, taken from one passing episode."""
    trace = policy_trace(layout, config, PASSER, RECEIVER, seed=1)
    found = {cls: [] for cls in RECORDS}
    state = initial_state(layout, config)
    for t, action in enumerate(trace.steps):
        state, _, events = step(state, (1 + t % 2, action))
        found[Grounding].extend(ground_event(event) for event in events)
        found[EnvEvent].extend(events)
        found[WorldState].append(state)
        found[PlayerState].extend(state.players)
        found[PotState].extend(state.pots)
    ledger = analyze_trace(trace)
    found[ActionClassification] = list(ledger.classifications)
    found[InterdependentPair] = list(ledger.pairs + ledger.self_accepts)
    assert all(found.values())
    # A spread of 30 per class keeps the pairwise checks quick.
    return {cls: values[:: max(1, len(values) // 30)] for cls, values in found.items()}


def _kwargs(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_a_plain_frozen_dataclass(cls, samples):
    plain = plain_copy(cls)
    assert [
        (f.name, f.type, f.default, f.repr, f.hash, f.compare, f.init)
        for f in dataclasses.fields(cls)
    ] == [
        (f.name, f.type, f.default, f.repr, f.hash, f.compare, f.init)
        for f in dataclasses.fields(plain)
    ]
    ours, theirs = inspect.signature(cls), inspect.signature(plain)
    assert [(p.name, p.kind, p.default) for p in ours.parameters.values()] == [
        (p.name, p.kind, p.default) for p in theirs.parameters.values()
    ]

    objs = samples[cls]
    copies = [plain(**_kwargs(obj)) for obj in objs]
    for obj, copy in zip(objs, copies):
        rebuilt = cls(**_kwargs(obj))
        assert _kwargs(rebuilt) == _kwargs(obj) == _kwargs(copy)
        assert rebuilt == obj
        assert repr(obj) == repr(copy)
        assert hash(obj) == hash(copy)
        assert not hasattr(obj, "__dict__")
        for name in _kwargs(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
        again = pickle.loads(pickle.dumps(obj))
        assert type(again) is cls and again == obj and _kwargs(again) == _kwargs(obj)
    for i, (a, copy_a) in enumerate(zip(objs, copies)):
        for b, copy_b in zip(objs[i + 1 :], copies[i + 1 :]):
            assert (a == b) == (copy_a == copy_b)
            for name, value in _kwargs(b).items():
                assert _kwargs(dataclasses.replace(a, **{name: value})) == _kwargs(
                    dataclasses.replace(copy_a, **{name: value})
                )


@pytest.mark.parametrize(
    "namespace, message",
    [
        ({"__post_init__": lambda self: None}, "__post_init__"),
        ({"x": dataclasses.field(default_factory=int)}, "plain init argument"),
        ({"x": dataclasses.field(default=0, init=False)}, "plain init argument"),
        ({"x": dataclasses.field(default=0, kw_only=True)}, "plain init argument"),
    ],
    ids=["post-init", "default-factory", "init-false", "kw-only"],
)
def test_record_refuses_a_class_that_needs_more_than_assignment(namespace, message):
    # What such a class needs from its constructor would be skipped.
    cls = type("Bad", (), {"__annotations__": {"x": int}, **namespace})
    with pytest.raises(TypeError, match=message):
        record(cls)


def test_every_record_class_is_checked():
    # Every class `@record` builds, found in the source, is in RECORDS.
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "interdep"
    declared = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list
            ):
                declared.add(f"interdep.{path.stem}.{node.name}")
    assert declared == {f"{cls.__module__}.{cls.__qualname__}" for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_copies_of_a_record_are_records_of_its_class(cls, samples):
    for obj in samples[cls]:
        copies = [copy.copy(obj), copy.deepcopy(obj), dataclasses.replace(obj)]
        copies += [
            pickle.loads(pickle.dumps(obj, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for again in copies:
            assert type(again) is cls
            assert again == obj and _kwargs(again) == _kwargs(obj)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_refuses_every_assignment_and_deletion(cls, samples):
    obj = samples[cls][0]
    before = _kwargs(obj)
    for name in (dataclasses.fields(cls)[0].name, "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert _kwargs(obj) == before and not hasattr(obj, "not_a_field")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_cannot_be_subclassed(cls):
    # Its constructor builds the record's own class, so a subclass would
    # build instances of its base; it is refused when it is created.
    with pytest.raises(TypeError, match=f"record {cls.__name__} cannot be subclassed"):
        type("Sub", (cls,), {})
