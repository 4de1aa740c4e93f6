"""The hand-written ``__init__`` of the frozen serving records matches
their dataclass fields.

``ServeRequest``, ``ServeResponse`` and ``EngineJob`` write their
instance dict directly instead of using the generated frozen
``__init__``, so each lists its fields twice.  A field added to the
class but not to ``__init__`` would leave instances without it; these
tests catch that drift.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.dpu.specs import Algo, Direction
from repro.sched.pipeline import EngineJob
from repro.serve.request import ServeRequest, ServeResponse

RECORDS = {
    ServeRequest: (Direction.COMPRESS, b"abc"),
    ServeResponse: (7, Direction.COMPRESS, b"abc", "bf2-0", "cengine",
                    0.5, 1.5, 3, 4),
    EngineJob: (Algo.DEFLATE, Direction.COMPRESS, 128.0),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_init_signature_matches_the_fields(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    fields = dataclasses.fields(cls)
    assert [p.name for p in params] == [f.name for f in fields]
    for param, field in zip(params, fields):
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        expected = (inspect.Parameter.empty if field.default is dataclasses.MISSING
                    else field.default)
        assert param.default == expected, field.name
        assert field.default_factory is dataclasses.MISSING, field.name


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_init_stores_every_field_and_stays_frozen(cls):
    args = RECORDS[cls]
    record = cls(*args)
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(vars(record)) == names
    for name, value in zip(names, args):
        assert getattr(record, name) == value
    assert record == dataclasses.replace(record)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, names[0], None)
