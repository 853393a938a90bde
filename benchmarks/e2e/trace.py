"""Per-layer spans recorded from outside the program.

The tracer replaces the layers' public methods *at class (or module)
level* for the duration of a traced run and restores them afterwards —
nothing under ``src/`` is edited.  A span is one call of a wrapped
method; a layer's **self time** is its spans' duration minus the part
covered by child spans (spans of any wrapped method called from inside
it), so the self times of all layers plus the untraced remainder add up
to the traced wall time exactly.

Only per-layer aggregates are kept (``calls`` and ``self_s``); the
first :data:`RAW_SPANS` raw spans can be kept for ``--spans FILE``.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

#: Raw spans kept for ``--spans`` (in completion order: a child precedes
#: its parent); roughly the first 200 operations of any workload.
RAW_SPANS = 20_000

#: layer -> (module, owner, attribute names).  ``owner`` is a class name
#: in that module, or ``None`` for module-level functions (those are
#: only traceable where callers look them up through the module: that
#: is how ``kernel.py`` calls ``ringmod.decode_sqe``, and the prover
#: scheduler reads its module global ``discharge_family`` per call).
#: Generator functions are detected and timed per resume.
LAYERS: dict[str, tuple[tuple[str, str | None, tuple[str, ...]], ...]] = {
    "cluster.client": (
        ("repro.cluster.client", "ClientGateway", ("issue", "on_tick")),
    ),
    "cluster.node": (
        ("repro.cluster.node", "ClusterNode", ("on_tick",)),
    ),
    "cluster.wal": (
        ("repro.cluster.wal", "NodeWal", ("append", "compact")),
    ),
    "nr.core": (
        ("repro.nr.core", "NodeReplicated",
         ("execute", "execute_ro", "sync_all",
          "execute_steps", "read_steps", "sync_steps")),
    ),
    "nros.net": (
        ("repro.nros.net.stack", "NetStack", ("udp_send", "poll")),
    ),
    "nros.net.link": (
        ("repro.nros.net.link", "Link", ("pump",)),
    ),
    "hw.devices.nic": (
        ("repro.hw.devices.nic", "Nic", ("transmit", "deliver", "receive")),
    ),
    "nros.fs": (
        ("repro.nros.fs.fd", "FdTable", ("open", "read", "write", "close")),
        ("repro.nros.fs.fs", "FileSystem",
         ("read_at", "write_at", "truncate", "create", "unlink", "rename",
          "lookup", "exists", "readdir", "stat_inum")),
    ),
    "nros.drivers.block": (
        ("repro.nros.drivers.block", "BlockDriver",
         ("read", "write", "submit")),
    ),
    "hw.devices.disk": (
        ("repro.hw.devices.disk", "Disk", ("read_sector", "write_sector")),
    ),
    "nros.kernel": (
        ("repro.nros.kernel", "Kernel", ("run",)),
    ),
    "nros.sched": (
        ("repro.nros.sched.scheduler", "Scheduler",
         ("next_thread", "ready", "block", "wake")),
    ),
    "nros.syscall.ring": (
        ("repro.nros.syscall.ring", None,
         ("encode_sqe", "decode_sqe", "encode_cqe", "decode_cqe")),
        ("repro.ulib.ring", "Ring", ("prepare", "submit")),
    ),
    "nros.vspace": (
        ("repro.nros.vspace", "VSpace",
         ("map", "unmap", "map_batch", "unmap_batch", "resolve")),
    ),
    "core.pt": (
        ("repro.core.pt.impl", "PageTable",
         ("map_frame", "unmap", "map_batch", "unmap_batch", "resolve")),
    ),
    "hw.tlb": (
        ("repro.hw.tlb", "Tlb",
         ("lookup", "insert", "invalidate_page", "invalidate_pages")),
    ),
    "sim": (
        ("repro.sim.kernel", "Simulator", ("run",)),
    ),
    "prover": (
        ("repro.prover.scheduler", "ProverScheduler", ("run",)),
    ),
    "verif": (
        ("repro.verif.vc", "VC", ("discharge",)),
        ("repro.prover.scheduler", None, ("discharge_family",)),
    ),
    "smt": (
        ("repro.smt.solver", "Solver", ("check",)),
        ("repro.smt.solver", "FamilySolver", ("__init__", "prove_member")),
    ),
}

_GENERATOR_FLAG = 0x20  # inspect.CO_GENERATOR


def targets():
    """(layer, owner, attr) of every method and function in LAYERS."""
    for layer, entries in LAYERS.items():
        for module_name, owner_name, attrs in entries:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None \
                else getattr(module, owner_name)
            for attr in attrs:
                yield layer, owner, attr


class Tracer:
    """Installs the wrappers, aggregates self time per layer."""

    def __init__(self, keep_raw: bool = False) -> None:
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        #: Per-method self time, for the counters a layer total hides
        #: (``cluster.wal.compact_self_s``); keyed ``layer:attr``.
        self.method_self_s: dict[str, float] = {}
        self._stack: list[list] = []   # [layer, child seconds]
        self._saved: list[tuple[object, str, object]] = []
        self._raw: list[dict] | None = [] if keep_raw else None

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, owner, attr in targets():
            original = owner.__dict__[attr]
            code = getattr(original, "__code__", None)
            is_gen = bool(code and code.co_flags & _GENERATOR_FLAG)
            make = self._wrap_generator if is_gen else self._wrap
            self._saved.append((owner, attr, original))
            self.method_self_s[f"{layer}:{attr}"] = 0.0
            setattr(owner, attr, make(layer, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- the wrappers -------------------------------------------------------

    def _enter(self, layer: str) -> float:
        self._stack.append([layer, 0.0])
        return perf_counter()

    def _exit(self, layer: str, key: str, started: float) -> None:
        elapsed = perf_counter() - started
        stack = self._stack
        own = elapsed - stack.pop()[1]
        self.self_s[layer] += own
        self.method_self_s[key] += own
        if stack:
            stack[-1][1] += elapsed
        raw = self._raw
        if raw is not None and len(raw) < RAW_SPANS:
            raw.append({"span": key, "depth": len(stack), "start_s": started,
                        "seconds": elapsed, "self_s": own})

    def _wrap(self, layer: str, attr: str, fn):
        key = f"{layer}:{attr}"
        calls = self.calls
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            calls[layer] += 1
            started = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(layer, key, started)

        traced.e2e_layer = layer
        return traced

    def _wrap_generator(self, layer: str, attr: str, fn):
        """Time a step generator per resume: the interval between a
        ``next()`` and the following ``yield`` is one span, the time the
        generator sits suspended belongs to whoever drives it."""
        key = f"{layer}:{attr}"
        calls = self.calls
        stack = self._stack
        enter, leave = self._enter, self._exit

        def stepped(gen):
            resume, arg = gen.send, None
            while True:
                started = enter(layer)
                try:
                    item = resume(arg)
                except StopIteration as stop:
                    return stop.value
                finally:
                    leave(layer, key, started)
                try:
                    arg = yield item
                    resume = gen.send
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:
                    resume, arg = gen.throw, exc

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if stack and stack[-1][0] == layer:
                # driven to completion by a wrapped method of the same
                # layer (``execute`` draining ``execute_steps``): that
                # span already covers it
                return gen
            calls[layer] += 1
            return stepped(gen)

        traced.e2e_layer = layer
        return traced

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copies of the aggregates of the round just traced."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "method_self_s": dict(self.method_self_s)}

    def reset(self) -> None:
        for layer in LAYERS:
            self.calls[layer] = 0
            self.self_s[layer] = 0.0
        for key in self.method_self_s:
            self.method_self_s[key] = 0.0

    def dump_raw(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self._raw or []:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
