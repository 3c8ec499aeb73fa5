"""Spans around the public functions of `slab_harmonics`, installed from outside.

Each wrapped call records (span id, parent id, command id, name, start, end)
in memory.  A command is one call of `cli.main`; its span id is the command
id of every span under it.  Self time is a span's duration minus the
durations of its direct children, accumulated as the children close, so the
self times of all spans sum to the durations of the root spans.

Wrappers are set on the defining module or class and on every other
`slab_harmonics` module attribute bound to the same function object, which
covers names bound by `from ... import` in cli, slab, diffeq and
complex_oracle.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (module, attribute); "MultiPoly.x" names a method of poly.MultiPoly.
TARGETS = [
    ("cli", "main"),
    *(
        ("poly", f"MultiPoly.{m}")
        for m in (
            "__init__", "__add__", "__sub__", "scale", "derivative", "laplacian",
            "laplacian_y", "trace", "__mul__", "to_json_dict", "from_json_dict", "shift_t",
        )
    ),
    ("laplace", "even_ck_extension"),
    ("laplace", "odd_ck_extension"),
    ("laplace", "trace_operator"),
    ("laplace", "invert_trace_operator"),
    ("laplace", "poisson_solve"),
    ("slab", "solve_slab"),
    ("slab", "verify_boundary"),
    ("diffeq", "solve"),
    ("diffeq", "solve_even"),
    ("diffeq", "harmonic_t_antiderivative"),
    ("diffeq", "verify_difference"),
    ("diffeq", "compare_solutions"),
    ("complex_oracle", "oracle_solve"),
    ("complex_oracle", "bernoulli_polynomial"),
    ("complex_oracle", "harmonic_part"),
]


NAMES = [f"{module}.{attr.rsplit('.', 1)[-1]}" for module, attr in TARGETS]


class Tracer:
    def __init__(self):
        self.ids = array("q")
        self.parents = array("q")
        self.commands = array("q")
        self.names = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.child = array("d")  # summed duration of direct children
        self.terms_in = 0
        self._stack: list[list] = []  # [span id, command id, child seconds]
        self._next = 1
        self._undo: list[tuple] = []

    def _wrap(self, index: int, func, count_terms: bool):
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            if count_terms:
                terms = args[2] if len(args) > 2 else kwargs.get("terms")
                self.terms_in += len(terms) if terms else 0
            parent = stack[-1] if stack else None
            frame = [sid, parent[1] if parent else sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent:
                    parent[2] += end - start
                self.ids.append(sid)
                self.parents.append(parent[0] if parent else 0)
                self.commands.append(frame[1])
                self.names.append(index)
                self.starts.append(start)
                self.ends.append(end)
                self.child.append(frame[2])

        return wrapper

    def install(self) -> None:
        pkg = [m for n, m in sys.modules.items() if n.startswith("slab_harmonics")]
        for index, (module, attr) in enumerate(TARGETS):
            mod = sys.modules[f"slab_harmonics.{module}"]
            if attr.startswith("MultiPoly."):
                cls, name = mod.MultiPoly, attr.split(".", 1)[1]
                orig = cls.__dict__[name]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrap(index, orig.__func__, False))
                else:
                    new = self._wrap(index, orig, name == "__init__")
                setattr(cls, name, new)
                self._undo.append((cls, name, orig))
                continue
            orig = getattr(mod, attr)
            new = self._wrap(index, orig, False)
            for m in pkg:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, new)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in NAMES}
        for index, start, end, child in zip(self.names, self.starts, self.ends, self.child):
            row = out[NAMES[index]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tcommand\tname\tstart\tend\n")
            for row in zip(self.ids, self.parents, self.commands, self.names, self.starts, self.ends):
                fh.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{NAMES[row[3]]}\t{row[4]:.9f}\t{row[5]:.9f}\n")
