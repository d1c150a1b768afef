"""Hot-path classes must reject stray attributes (``__slots__`` guard).

The speed campaign put ``__slots__`` on every per-event / per-message
allocation.  A stray attribute assignment silently re-growing a
``__dict__`` would undo that, so these tests pin the property.
"""

import pytest

from repro.cluster.messages import (
    ReadRequest,
    ReadResponse,
    WriteAck,
    WriteRequest,
)
from repro.common.records import Cell, Row
from repro.sim.kernel import Environment, Event, Process, Timeout


def _reject(instance):
    # Plain __slots__ classes raise AttributeError; frozen+slots
    # dataclasses on some Python versions (3.11) raise TypeError from
    # the generated __setattr__ instead.  Either way the assignment must
    # not succeed.
    with pytest.raises((AttributeError, TypeError)):
        instance.stray_attribute = 1
    assert not hasattr(instance, "stray_attribute")


def test_event_classes_have_no_dict():
    env = Environment()
    _reject(Event(env))
    _reject(Timeout(env, 1.0))

    def body():
        yield env.timeout(1.0)

    _reject(Process(env, body()))


def test_event_classes_define_slots():
    for cls in (Event, Timeout, Process, Environment):
        assert hasattr(cls, "__slots__"), cls.__name__


def test_cell_rejects_stray_attributes():
    _reject(Cell.make("v", 1))
    _reject(Row())


def test_cell_null_is_a_singleton():
    assert Cell.null() is Cell.null()


def test_messages_reject_stray_attributes():
    _reject(WriteRequest("T", 1, {"c": Cell.make("v", 1)}))
    _reject(WriteAck(0))
    _reject(ReadRequest("T", 1, ("c",)))
    _reject(ReadResponse(0, {"c": None}))
