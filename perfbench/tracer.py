"""Spans and I/O counts around calls into fluctlab's modules, recorded from
outside the package.

The tracer replaces module-level names with timing wrappers while it is
installed: every module of the package that holds a traced function under
some name gets the wrapper under that name, so a call is caught whichever
module the caller looks the name up in.  Methods are wrapped on their class.
`fluctlab.runfile` also gets a module-level `open` that shadows the builtin
and hands out files counting their read and write calls and bytes.

Spans stay in memory as (name, start_ns, end_ns, parent, pass, tag) tuples;
the run writes them out when it ends.  Everything is restored on uninstall.
"""

from __future__ import annotations

import builtins
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

MODULES = ("shapes", "net", "train", "runfile", "analysis", "figures", "cli")

# (defining module, attribute path) per traced callable.  The span is named
# "<module>.<attribute path>".  rng has no entry of its own: its draws happen
# inside shapes.generate and net.init.
TRACED = (
    ("shapes", "generate"),
    ("net", "init"),
    ("net", "forward"),
    ("net", "backward"),
    ("net", "mse"),
    ("train", "train"),
    ("train", "adam_step"),
    ("runfile", "read_run"),
    ("runfile", "RunWriter.__init__"),
    ("runfile", "RunWriter.append"),
    ("runfile", "RunWriter.finalize"),
    ("runfile", "RunAccessor.__init__"),
    ("runfile", "RunAccessor.snapshot"),
    ("runfile", "RunAccessor.losses"),
    ("runfile", "RunAccessor.channel_series"),
    ("runfile", "RunAccessor.neuron_series"),
    ("analysis", "analyze_run"),
    ("analysis", "calibrate_epsilon"),
    ("figures", "reconstruct"),
    ("figures", "scatter_svg"),
    ("figures", "hist_svg"),
    ("figures", "fluctuation_table"),
    ("figures", "stack_svgs"),
    ("cli", "main"),
)

# CLI commands whose run-file opens per run give runfile.opens_per_run.
ARTIFACT_COMMANDS = ("report", "all")

# Figure functions whose returned bytes are counted in figures.bytes.
FIGURE_OUTPUTS = {"figures.scatter_svg", "figures.hist_svg", "figures.stack_svgs", "figures.fluctuation_table"}


@dataclass
class IoCounts:
    read_opens: int = 0
    write_opens: int = 0
    read_calls: int = 0
    bytes_read: int = 0
    write_calls: int = 0
    bytes_written: int = 0
    # (path, time_ns) of every open for reading, to attribute opens to commands
    read_open_log: list = field(default_factory=list)


class CountingFile:
    """File object proxy that counts read and write calls and their bytes."""

    def __init__(self, raw, counts: IoCounts):
        self._raw = raw
        self._counts = counts

    def read(self, size=-1):
        blob = self._raw.read(size)
        self._counts.read_calls += 1
        self._counts.bytes_read += len(blob)
        return blob

    def readinto(self, buffer):
        n = self._raw.readinto(buffer)
        self._counts.read_calls += 1
        self._counts.bytes_read += n or 0
        return n

    def write(self, blob):
        n = self._raw.write(blob)
        self._counts.write_calls += 1
        self._counts.bytes_written += n
        return n

    def __getattr__(self, name):
        return getattr(self._raw, name)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._raw.close()


def _sizeof_output(result) -> int:
    if isinstance(result, (bytes, bytearray)):
        return len(result)
    if isinstance(result, tuple):
        return sum(_sizeof_output(r) for r in result)
    return 0


class Tracer:
    """Collects spans and I/O counts for the passes it is installed around."""

    def __init__(self):
        self.spans: list = []
        self.io = IoCounts()
        self.figure_bytes = 0
        self.pass_no = 0
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, fn, name: str):
        spans, stack, tracer = self.spans, self._stack, self
        clock = time.perf_counter_ns
        count_output = name in FIGURE_OUTPUTS
        tag_argv = name == "cli.main"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tag = None
                if tag_argv:
                    argv = args[0] if args else kwargs.get("argv")
                    tag = argv[0] if argv else None
                spans[idx] = (name, start, end, parent, tracer.pass_no, tag)
            if count_output:
                tracer.figure_bytes += _sizeof_output(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting_open(self, file, mode="r", *args, **kwargs):
        raw = builtins.open(file, mode, *args, **kwargs)
        if "r" in mode and "+" not in mode:
            self.io.read_opens += 1
            self.io.read_open_log.append((str(file), time.perf_counter_ns()))
        else:
            self.io.write_opens += 1
        return CountingFile(raw, self.io)

    def _set(self, owner, attr: str, value) -> None:
        missing = object()
        self._patches.append((owner, attr, owner.__dict__.get(attr, missing), missing))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"fluctlab.{name}")
            except ModuleNotFoundError:
                continue  # a module a later version folded away: its spans read 0
        package_modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "fluctlab" or key.startswith("fluctlab."))
        ]
        for module_name, path in TRACED:
            owner = modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue  # the name is gone from the program: its spans read 0
            wrapped = self._wrap(fn, f"{module_name}.{path}")
            if outer:
                self._set(owner, attr, wrapped)
                continue
            for mod in package_modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapped)
        if "runfile" in modules:
            self._set(modules["runfile"], "open", self._counting_open)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, missing = self._patches.pop()
            if original is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Reductions over recorded spans


def self_times(spans: list) -> list[int]:
    """Per span, its duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [(s[2] - s[1]) - child_ns[i] for i, s in enumerate(spans)]


def span_table(spans: list, passes: int) -> dict:
    """Per span name: calls, total and self seconds per pass, and mean microseconds."""
    selfs = self_times(spans)
    rows: dict = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for span, self_ns in zip(spans, selfs):
        row = rows[span[0]]
        row["calls"] += 1
        row["total_ns"] += span[2] - span[1]
        row["self_ns"] += self_ns
    table = {}
    for name in sorted(rows):
        row = rows[name]
        table[name] = {
            "calls_per_pass": row["calls"] / passes,
            "total_s_per_pass": row["total_ns"] / 1e9 / passes,
            "self_s_per_pass": row["self_ns"] / 1e9 / passes,
            "mean_us": row["total_ns"] / 1e3 / row["calls"],
        }
    return table


def module_self_times(table: dict) -> dict:
    """Self seconds per pass for each module, summed over its span names."""
    out = {m: 0.0 for m in MODULES}
    for name, row in table.items():
        out[name.split(".", 1)[0]] += row["self_s_per_pass"]
    return out


def children_of(spans: list, parent_name: str, child_name: str) -> list:
    """Spans named child_name whose direct parent is named parent_name."""
    return [s for s in spans if s[0] == child_name and s[3] >= 0 and spans[s[3]][0] == parent_name]


def opens_per_run(spans: list, io: IoCounts) -> tuple[int, int]:
    """(read opens, distinct run files read) inside the CLI commands that emit
    per-run artifacts, counted per command so that a file read by two
    commands counts twice."""
    opens = runs = 0
    for name, start, end, _, _, tag in spans:
        if name != "cli.main" or tag not in ARTIFACT_COMMANDS:
            continue
        inside = [path for path, t in io.read_open_log if start <= t <= end]
        opens += len(inside)
        runs += len(set(inside))
    return opens, runs
