"""Outside-in span tracing of mobyz's public functions.

The tracer replaces each traced function at the name its caller resolves
(a module global or a class attribute) with a wrapper that records a span:
name, start, end, parent span and item id. Spans stay in memory; `totals`
aggregates them and `write` dumps them once the run is over. Nothing in
`src/` is changed: the wrappers live only in this process, which exits
after the traced pass.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import time

# Strategy hooks the engine calls; each is wrapped on every class that
# defines it, so inherited hooks are wrapped once, at their definition.
STRATEGY_HOOKS = ("controlled", "forge", "rewrite", "corrupt_value")


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, item id, child time]
        self.spans: list = []
        self.stack: list = []
        self.item = "setup"
        self.counters = {
            "sim.rounds": 0,
            "comms.decode_fallbacks": 0,
            "comms.copies_collected": 0,
            "comms.copies_untainted": 0,
            "core.trace_bytes": 0,
            "adversary.counterfactual_runs": 0,
        }
        self.missing: list = []  # traced names this version of mobyz lacks

    # --- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item, 0.0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    def _inside(self, prefix: str) -> bool:
        index = self.stack[-1] if self.stack else -1
        while index >= 0:
            if self.spans[index][0].startswith(prefix):
                return True
            index = self.spans[index][3]
        return False

    def _wrap(self, fn, name: str, on_enter=None, on_exit=None):
        tracer = self

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_exit is not None:
                on_exit(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owners, attr: str, name: str, **hooks) -> None:
        """Install a wrapper at every name through which callers reach the
        function, wrapping each distinct function once. A name the code no
        longer has is listed in `missing`; its metrics then read 0 calls."""
        wrappers: dict = {}
        for owner in owners:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original, name, **hooks)
            setattr(owner, attr, wrappers[id(original)])

    # --- installation ----------------------------------------------------------

    def install(self, mb) -> None:
        """Wrap the public functions of a freshly imported mobyz (see
        `workloads.load_mobyz`)."""
        sim, core, comms, graphs, adversary, cli = (
            mb.sim, mb.core, mb.comms, mb.graphs, mb.adversary, mb.cli
        )
        counters = self.counters

        def run_entered():
            if self._inside("adversary."):
                counters["adversary.counterfactual_runs"] += 1

        def run_exited(_args, trace):
            counters["sim.rounds"] += len(trace.rounds)
            counters["comms.decode_fallbacks"] += trace.decode_fallbacks

        def decode_exited(args, _result):
            collected = args[0].collected
            counters["comms.copies_collected"] += len(collected)
            counters["comms.copies_untainted"] += sum(1 for c in collected if not c[3])

        def to_text_exited(_args, text):
            counters["core.trace_bytes"] += len(text.encode())

        # sim imports round_update and view_of by name; adversary imports run.
        self._patch([sim], "round_update", "protocol.round_update")
        self._patch([sim, adversary], "run", "sim.run",
                    on_enter=run_entered, on_exit=run_exited)
        for attr in ("check_agreement", "check_support_claim", "check_indistinguishable"):
            self._patch([sim], attr, f"sim.{attr}")
        self._patch([sim.StepContext], "random_value", "sim.StepContext.random_value")
        self._patch([sim, core], "view_of", "core.view_of")
        self._patch([core.Trace], "to_text", "core.Trace.to_text", on_exit=to_text_exited)

        self._patch([comms.TransferRun], "step", "comms.TransferRun.step")
        self._patch([comms.TransferRun], "decode", "comms.TransferRun.decode",
                    on_exit=decode_exited)
        self._patch([comms.TransferRun], "receiver_controlled",
                    "comms.TransferRun.receiver_controlled")
        self._patch([comms.CommScheme], "plan", "comms.CommScheme.plan")

        for cls in vars(adversary).values():
            if isinstance(cls, type) and issubclass(cls, adversary.Strategy):
                for hook in STRATEGY_HOOKS:
                    if hook in vars(cls):
                        self._patch([cls], hook, f"adversary.{hook}")
        self._patch([adversary], "five_set_pair", "adversary.five_set_pair")
        self._patch([adversary], "cut_set_pair", "adversary.cut_set_pair")

        # vertex_connectivity and local_connectivity_avoiding_source reach
        # local_connectivity through the graphs module global; comms imports
        # disjoint_paths by name.
        for attr in ("vertex_connectivity", "local_connectivity",
                     "local_connectivity_avoiding_source", "min_separator_certificate"):
            self._patch([graphs], attr, f"graphs.{attr}")
        self._patch([graphs, comms], "disjoint_paths", "graphs.disjoint_paths")

        self._patch([cli], "cmd_analyze", "cli.cmd_analyze")
        self._patch([cli], "parse_scenario_text", "cli.parse_scenario_text")

    # --- results -----------------------------------------------------------------

    def totals(self) -> dict:
        """name -> {"calls", "self_s", "total_s"} over every recorded span."""
        out: dict = {}
        for name, start, end, _parent, _item, child in self.spans:
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child
            entry["total_s"] += end - start
        return out

    def write(self, path) -> None:
        """Dump every span as one JSON line: name, start, end, parent, item."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, (name, start, end, parent, item, _child) in enumerate(self.spans):
                fh.write(json.dumps([index, name, start, end, parent, item]) + "\n")
