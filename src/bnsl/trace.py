"""Event log shared by the constraint-based and score-based learners."""

from __future__ import annotations

import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class TraceEvent:
    kind: str  # test, backtrack, vstructure, ambiguous, prior-orient, move, restart
    x: str | None = None
    y: str | None = None
    z: tuple[str, ...] = ()
    p_value: float | None = None
    note: str = ""


class LearnTrace:
    """Ordered learning events; test_counter equals the number of test events."""

    def __init__(self, debug: bool = False, stream=None):
        self.events: list[TraceEvent] = []
        self.debug = debug
        self.stream = stream if stream is not None else sys.stderr
        self._tests = 0

    @property
    def test_counter(self) -> int:
        return self._tests

    def add(self, kind: str, x=None, y=None, z=(), p_value=None, note="") -> TraceEvent:
        event = TraceEvent(kind, x, y, tuple(z), p_value, note)
        self.events.append(event)
        if kind == "test":
            self._tests += 1
        return event

    def add_tests(self, events: list[TraceEvent]) -> None:
        """Append test events built elsewhere; hill-climbing shares one per move."""
        self.events.extend(events)
        self._tests += len(events)

    def test(self, x: str, y: str, z, p_value: float, note: str = "") -> None:
        self.events.append(TraceEvent("test", x, y, tuple(z), p_value, note))
        self._tests += 1

    def say(self, line: str) -> None:
        """Debug commentary, written to the trace stream when enabled.

        The learners build a line only when debug is set, so a run with
        debug off formats no text.
        """
        if self.debug:
            print(line, file=self.stream)

    def lines(self) -> list[str]:
        """Structured one-line export: kind, variables, conditioning set, p-value."""
        out = []
        for e in self.events:
            z = " ".join(e.z)
            p = "" if e.p_value is None else f"{e.p_value:.6g}"
            out.append("\t".join([e.kind, e.x or "", e.y or "", z, p, e.note]))
        return out
