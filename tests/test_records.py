"""`record` classes behave as the plain dataclasses they replace."""

import ast
import copy
import dataclasses
import inspect
import pathlib
import pickle

import pytest

from conftest import MINI_LAYOUT, NAV_TRACES, PASSER, RECEIVER, policy_trace, stochastic
from interdep import (
    EpisodeConfig,
    FrozenInstanceError,
    aggregate,
    analyze_trace,
    build_interaction_schema,
    build_report,
    initial_state,
    load_layout,
    parse_policy_spec,
    replace,
    step,
)
from interdep.gridworld import EnvEvent, Layout, PlayerState, PotState, WorldState
from interdep.grounding import Grounding, Proposition, ground_event
from interdep.interdependence import (
    ActionClassification,
    InteractionSchema,
    InterdependencyLedger,
    InterdependentPair,
)
from interdep.metrics import AgentReport, AggregateSummary, FieldSummary, TeamReport
from interdep.policies import PolicySpec
from interdep.records import MISSING, Field, record
from interdep.trace_io import ReplayableTrace

FROZEN = (
    PlayerState,
    PotState,
    EnvEvent,
    WorldState,
    ActionClassification,
    InterdependentPair,
    Grounding,
    Layout,
    EpisodeConfig,
    Proposition,
    InteractionSchema,
    PolicySpec,
    ReplayableTrace,
    AgentReport,
    TeamReport,
    FieldSummary,
    AggregateSummary,
)
RECORDS = FROZEN + (InterdependencyLedger,)


def plain_copy(cls):
    """The same fields, options and construction check under `dataclass` alone."""
    namespace = {"__record_fields__": cls.__record_fields__}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (
                f.name,
                f.type,
                dataclasses.field(
                    default=dataclasses.MISSING if f.default is MISSING else f.default,
                    default_factory=f.factory or dataclasses.MISSING,
                    init=f.init,
                    repr=f.repr,
                    hash=f.hash,
                    compare=f.compare,
                ),
            )
            for f in cls.__record_fields__.values()
        ],
        namespace=namespace,
        frozen=cls.__hash__ is not None,
    )


@pytest.fixture(scope="module")
def samples(layout, config):
    """Instances of every record class, taken from passing episodes."""
    trace = policy_trace(layout, config, PASSER, RECEIVER, seed=1)
    other = policy_trace(layout, config, stochastic(0.5), RECEIVER, seed=2)
    found = {cls: [] for cls in RECORDS}
    state = initial_state(layout, config)
    for t, action in enumerate(trace.steps):
        state, _, events = step(state, (1 + t % 2, action))
        found[Grounding].extend(ground_event(event) for event in events)
        found[EnvEvent].extend(events)
        found[WorldState].append(state)
        found[PlayerState].extend(state.players)
        found[PotState].extend(state.pots)
    for g in found[Grounding]:
        found[Proposition].extend(sorted(g.pre | g.add | g.delete, key=repr))
    ledgers = [analyze_trace(trace), analyze_trace(other)]
    reports = [build_report(ledger, label=f"r{i}") for i, ledger in enumerate(ledgers)]
    summaries = [aggregate(reports[:1]), aggregate(reports)]
    found[ActionClassification] = list(ledgers[0].classifications)
    found[InterdependentPair] = list(ledgers[0].pairs + ledgers[0].self_accepts)
    found[Layout] = [layout] + [load_layout(t) for t in NAV_TRACES["layouts"].values()]
    found[Layout].append(load_layout(MINI_LAYOUT))
    found[EpisodeConfig] = [config, EpisodeConfig(), EpisodeConfig(cook_time=3)]
    found[InteractionSchema] = [
        build_interaction_schema(include_counter_empty=flag) for flag in (True, False)
    ]
    found[PolicySpec] = [
        parse_policy_spec(s) for s in (PASSER, RECEIVER, stochastic(0.5), "solo")
    ]
    found[ReplayableTrace] = [trace, other, replace(trace)]
    found[InterdependencyLedger] = ledgers
    found[TeamReport] = reports
    found[AgentReport] = [a for r in reports for a in r.agents]
    found[AggregateSummary] = summaries
    found[FieldSummary] = [f for s in summaries for f in s.fields.values()]
    assert all(found.values())
    # A spread of 30 per class keeps the pairwise checks quick.
    return {cls: values[:: max(1, len(values) // 30)] for cls, values in found.items()}


def _kwargs(obj, cls):
    """`obj`'s constructor arguments, by the field table of record `cls`."""
    return {n: getattr(obj, n) for n, f in cls.__record_fields__.items() if f.init}


def _outcome(build, cls):
    """The constructor arguments of what `build()` makes, or the error it raises."""
    try:
        return _kwargs(build(), cls)
    except (TypeError, ValueError) as e:
        return type(e)


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as e:
        return type(e)


def _parameters(cls, factories) -> list:
    """`cls`'s constructor parameters, a per-instance default read as "factory"."""
    return [
        (p.name, p.kind, "factory" if p.name in factories else p.default)
        for p in inspect.signature(cls).parameters.values()
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_a_plain_frozen_dataclass(cls, samples):
    # The mutable ledger is matched against a plain mutable dataclass.
    plain = plain_copy(cls)
    assert list(cls.__record_fields__) == list(cls.__annotations__)
    factories = {n for n, f in cls.__record_fields__.items() if f.factory}
    assert _parameters(cls, factories) == _parameters(plain, factories)

    objs = samples[cls]
    copies = [plain(**_kwargs(obj, cls)) for obj in objs]
    for obj, copy in zip(objs, copies):
        rebuilt = cls(**_kwargs(obj, cls))
        assert _kwargs(rebuilt, cls) == _kwargs(obj, cls) == _kwargs(copy, cls)
        assert rebuilt == obj
        assert repr(obj) == repr(copy)
        assert _hash(obj) == _hash(copy)
        assert not hasattr(obj, "__dict__")
        if cls in FROZEN:
            for name in cls.__record_fields__:
                with pytest.raises(FrozenInstanceError):
                    setattr(obj, name, None)
        again = pickle.loads(pickle.dumps(obj))
        assert type(again) is cls and again == obj
        assert _kwargs(again, cls) == _kwargs(obj, cls)
    for i, (a, copy_a) in enumerate(zip(objs, copies)):
        for b, copy_b in zip(objs[i + 1 :], copies[i + 1 :]):
            assert (a == b) == (copy_a == copy_b)
            for name, value in _kwargs(b, cls).items():
                change = {name: value}
                assert _outcome(lambda: replace(a, **change), cls) == _outcome(
                    lambda: dataclasses.replace(copy_a, **change), cls
                )


@pytest.mark.parametrize(
    "namespace, message",
    [
        ({"__init__": lambda self, x: None}, "cannot define __init__"),
        ({"__new__": lambda cls, x: None}, "cannot define __new__"),
        ({"__repr__": lambda self: "x"}, "cannot define __repr__"),
        ({"__eq__": lambda self, other: True}, "cannot define __eq__"),
        ({"__hash__": lambda self: 0}, "cannot define __hash__"),
    ],
    ids=["own-init", "own-new", "own-repr", "own-eq", "own-hash"],
)
def test_record_refuses_a_class_that_needs_more_than_assignment(namespace, message):
    # What such a class does in its own methods would be skipped or replaced.
    cls = type("Bad", (), {"__annotations__": {"x": int}, **namespace})
    with pytest.raises(TypeError, match=message):
        record(cls)


def _checked(self):
    if self.x < 0:
        raise ValueError("x < 0")
    object.__setattr__(self, "double", 2 * self.x)


@pytest.mark.parametrize(
    "namespace, fields",
    [
        (
            {"__post_init__": _checked, "double": Field(init=False, compare=False)},
            {"double": dataclasses.field(init=False, compare=False)},
        ),
        ({"memo": Field(factory=dict)}, {"memo": dataclasses.field(default_factory=dict)}),
        (
            {"memo": Field(factory=list, init=False, repr=False)},
            {"memo": dataclasses.field(default_factory=list, init=False, repr=False)},
        ),
        (
            {"tag": Field(default="t", init=False)},
            {"tag": dataclasses.field(default="t", init=False)},
        ),
    ],
    ids=["post-init", "default-factory", "init-false-factory", "init-false"],
)
def test_record_runs_what_a_class_needs_from_its_constructor(namespace, fields):
    annotations = {"x": "int", **{name: "object" for name in fields}}
    ours = record(type("Rec", (), {"__annotations__": annotations, **namespace}))
    plain = dataclasses.make_dataclass(
        "Rec",
        [("x", "int"), *((name, "object", f) for name, f in fields.items())],
        namespace={k: v for k, v in namespace.items() if k == "__post_init__"},
        frozen=True,
    )
    a, b = ours(1), plain(1)
    assert repr(a) == repr(b) and _hash(a) == _hash(b)
    for name in annotations:
        assert getattr(a, name) == getattr(b, name)
    again = ours(1)
    assert again == a
    for name in fields:
        value = getattr(a, name)
        if isinstance(value, (dict, list)):
            assert getattr(again, name) is not value  # one per instance
    if "__post_init__" in namespace:
        with pytest.raises(ValueError, match="x < 0"):
            ours(-1)
        with pytest.raises(ValueError, match="x < 0"):
            replace(a, x=-1)
        assert replace(a, x=4).double == 8


def test_every_record_class_is_checked():
    # Every class `@record` builds, found in the source, is in RECORDS.
    def decorator(node) -> str:
        target = node.func if isinstance(node, ast.Call) else node
        return target.id if isinstance(target, ast.Name) else ""

    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "interdep"
    declared = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                decorator(d) == "record" for d in node.decorator_list
            ):
                declared.add(f"interdep.{path.stem}.{node.name}")
    assert declared == {f"{cls.__module__}.{cls.__qualname__}" for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_copies_of_a_record_are_records_of_its_class(cls, samples):
    for obj in samples[cls]:
        copies = [copy.copy(obj), copy.deepcopy(obj), replace(obj)]
        copies += [
            pickle.loads(pickle.dumps(obj, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for again in copies:
            assert type(again) is cls
            assert again == obj and _kwargs(again, cls) == _kwargs(obj, cls)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_a_record_refuses_every_assignment_and_deletion(cls, samples):
    obj = samples[cls][0]
    before = _kwargs(obj, cls)
    for name in (next(iter(cls.__record_fields__)), "not_a_field"):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)
    assert _kwargs(obj, cls) == before and not hasattr(obj, "not_a_field")


def test_frozen_instance_error_is_an_attribute_error():
    assert issubclass(FrozenInstanceError, AttributeError)


def test_the_mutable_ledger_takes_assignments_and_has_no_hash(samples):
    ledger = copy.copy(samples[InterdependencyLedger][0])
    ledger.episode_time += 1
    assert ledger != samples[InterdependencyLedger][0]
    with pytest.raises(TypeError, match="unhashable"):
        hash(ledger)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_cannot_be_subclassed(cls):
    # Its constructor builds the record's own class, so a subclass would
    # build instances of its base; it is refused when it is created.
    with pytest.raises(TypeError, match=f"record {cls.__name__} cannot be subclassed"):
        type("Sub", (cls,), {})


def test_replace_starts_the_layout_memos_empty(layout_text):
    layout = load_layout(layout_text)
    layout.routes["key"] = "route"
    layout.records["key"] = "record"
    fresh = replace(layout)
    assert fresh == layout and fresh.routes == {} and fresh.records == {}
    with pytest.raises(ValueError, match="init=False"):
        replace(layout, routes={})


def test_replace_drops_the_record_of_play(passer_receiver_trace):
    assert passer_receiver_trace.played is not None
    fresh = replace(passer_receiver_trace)
    assert fresh == passer_receiver_trace and fresh.played is None
    with pytest.raises(ValueError, match="init=False"):
        replace(passer_receiver_trace, played=())


def test_replace_checks_the_new_record_again():
    with pytest.raises(ValueError, match="horizon"):
        replace(EpisodeConfig(), horizon=0)
    with pytest.raises(ValueError, match="outside"):
        replace(parse_policy_spec(stochastic(0.5)), p=2.0)
    with pytest.raises(TypeError):
        replace(EpisodeConfig(), no_such_field=1)
    schema = replace(build_interaction_schema(), include_counter_empty=False)
    assert schema.linkable == build_interaction_schema(include_counter_empty=False).linkable
