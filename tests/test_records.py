"""`record` classes behave as the plain frozen dataclasses they replace."""

import dataclasses
import inspect
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
from interdep.interdependence import ActionClassification

RECORDS = (
    PlayerState,
    PotState,
    EnvEvent,
    WorldState,
    ActionClassification,
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
        found[EnvEvent].extend(events)
        found[WorldState].append(state)
        found[PlayerState].extend(state.players)
        found[PotState].extend(state.pots)
    found[ActionClassification] = list(analyze_trace(trace).classifications)
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
