"""Greedy delta-debugging over :class:`~repro.fuzz.gen.DesignSpec`.

The shrinker never edits netlists -- it edits the pure-data spec and
rebuilds, which keeps every candidate well-formed by construction.  Four
reduction families, applied greedily until a fixpoint (or deadline):

* **op removal** (ddmin-style chunks, halving granularity): dropped op
  slots are remapped to their first operand so downstream refs stay
  valid.  This is the only reduction that renumbers slots.
* **tying**: freeze an input/register/memory to a constant.  Slots keep
  their indices, so no remapping is needed.
* **dropping**: remove probes (keeping at least one) and word outputs.
* **width reduction**: halve the design width; immediates and alphabets
  are masked by the builder/evaluator so any width stays valid.

Reductions only ever remove cells, so the shrunk design's cell count is
<= the original's -- asserted by the caller's tests, relied on by the
corpus.  The failure predicate re-runs (a focused subset of) the oracle,
so shrinking does not need to preserve semantics, only the failure.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, TypeVar

from .. import obs
from .gen import DesignSpec, OpSpec, build_design

__all__ = ["shrink_spec", "shrink_sequence", "ddmin_chunks"]

_T = TypeVar("_T")


def ddmin_chunks(
    length: int,
    try_remove: Callable[[int, int], Optional[int]],
    out_of_budget: Callable[[], bool],
) -> bool:
    """The greedy ddmin chunk loop shared by every shrinker here.

    Sweeps chunk sizes from ``length // 2`` down to 1; at each size,
    ``try_remove(start, size)`` either commits the removal (returning the
    new item count) or returns ``None`` to advance past the chunk.
    Returns whether any removal succeeded.
    """
    improved = False
    size = max(1, length // 2)
    while size >= 1 and not out_of_budget():
        start = 0
        while start < length:
            new_length = try_remove(start, size)
            if new_length is not None:
                length = new_length
                improved = True
            else:
                start += size
        size //= 2
    return improved


def shrink_sequence(
    items: Sequence[_T],
    predicate: Callable[[List[_T]], bool],
    *,
    deadline_seconds: Optional[float] = None,
    max_evals: int = 200,
) -> List[_T]:
    """Delta-debug a flat item list (e.g. an instruction program).

    Greedy first-improvement ddmin with halving chunk granularity --
    the same reduction loop :func:`shrink_spec` uses for op slots, reused
    by the perf oracle to minimize mismatching instruction sequences.
    Deterministic for a deterministic predicate; bounded by ``max_evals``
    predicate runs and an optional wall-clock deadline.
    """
    started = time.monotonic()
    evals = [0]
    current = list(items)

    def _out_of_budget() -> bool:
        if evals[0] >= max_evals:
            return True
        return (deadline_seconds is not None
                and time.monotonic() - started > deadline_seconds)

    def _try_remove(start: int, size: int) -> Optional[int]:
        if _out_of_budget():
            return None
        candidate = current[:start] + current[start + size:]
        if len(candidate) == len(current):
            return None
        evals[0] += 1
        try:
            still_fails = predicate(candidate)
        except Exception:
            still_fails = False
        if not still_fails:
            return None
        current[:] = candidate
        return len(current)

    with obs.span("fuzz.shrink", kind="sequence", items=len(current)) as sp:
        improved = True
        while improved and not _out_of_budget():
            improved = ddmin_chunks(len(current), _try_remove, _out_of_budget)
        sp.set("evals", evals[0])
        sp.set("items_after", len(current))
    return current


def _remap_ops(spec: DesignSpec, start: int, count: int) -> Optional[DesignSpec]:
    """Drop ``ops[start:start+count]``, remapping refs through the gap."""
    n = len(spec.ops)
    if count <= 0 or start >= n:
        return None
    removed = set(range(start, min(start + count, n)))
    if len(removed) >= n and not spec.base_slots:
        return None
    base = spec.base_slots

    # where does each old slot land (or forward to) after removal?
    forward = {}

    def _resolve(ref: int) -> int:
        seen = set()
        while ref >= base and (ref - base) in removed:
            if ref in seen:  # defensive; operand refs always point backwards
                return 0
            seen.add(ref)
            op = spec.ops[ref - base]
            nxt = op.a if op.a is not None else (
                op.b if op.b is not None else op.c)
            if nxt is None:
                return 0
            ref = nxt
        return ref

    new_index = {}
    kept: List[OpSpec] = []
    for k, op in enumerate(spec.ops):
        if k in removed:
            continue
        new_index[base + k] = base + len(kept)
        kept.append(op)

    def _map(ref: Optional[int]) -> Optional[int]:
        if ref is None:
            return None
        ref = _resolve(ref)
        if ref < base:
            return ref
        return new_index[ref]

    new_ops = tuple(
        replace(op, a=_map(op.a), b=_map(op.b), c=_map(op.c)) for op in kept
    )
    return replace(
        spec,
        ops=new_ops,
        registers=tuple(
            replace(r, next_ref=_map(r.next_ref), en_ref=_map(r.en_ref),
                    sreset_ref=_map(r.sreset_ref))
            for r in spec.registers
        ),
        memories=tuple(
            replace(m, wen_ref=_map(m.wen_ref), waddr_ref=_map(m.waddr_ref),
                    wdata_ref=_map(m.wdata_ref))
            for m in spec.memories
        ),
        probes=tuple(replace(p, ref=_map(p.ref)) for p in spec.probes),
        outputs=tuple((name, _map(ref)) for name, ref in spec.outputs),
    )


def _unary_candidates(spec: DesignSpec):
    """Slot-stable single reductions, cheapest-win order."""
    for i, inp in enumerate(spec.inputs):
        if inp.tied is None:
            tied = replace(inp, tied=inp.alphabet[0])
            yield replace(spec, inputs=spec.inputs[:i] + (tied,)
                          + spec.inputs[i + 1:])
    for i, reg in enumerate(spec.registers):
        if not reg.tied:
            yield replace(spec, registers=spec.registers[:i]
                          + (replace(reg, tied=True),)
                          + spec.registers[i + 1:])
    for i, reg in enumerate(spec.registers):
        if not reg.tied and (reg.en_ref is not None
                             or reg.sreset_ref is not None):
            yield replace(spec, registers=spec.registers[:i]
                          + (replace(reg, en_ref=None, sreset_ref=None),)
                          + spec.registers[i + 1:])
    for i, mem in enumerate(spec.memories):
        if not mem.tied:
            yield replace(spec, memories=spec.memories[:i]
                          + (replace(mem, tied=True),)
                          + spec.memories[i + 1:])
    if len(spec.probes) > 1:
        for i in range(len(spec.probes)):
            yield replace(spec, probes=spec.probes[:i] + spec.probes[i + 1:])
    for i in range(len(spec.outputs)):
        yield replace(spec, outputs=spec.outputs[:i] + spec.outputs[i + 1:])
    if spec.width > 1:
        narrow = max(1, spec.width // 2)
        yield replace(spec, width=narrow, inputs=tuple(
            replace(inp, width=min(inp.width, narrow),
                    alphabet=tuple(sorted({
                        v & ((1 << min(inp.width, narrow)) - 1)
                        for v in inp.alphabet})))
            for inp in spec.inputs
        ))


def _still_fails(spec: DesignSpec,
                 predicate: Callable[[DesignSpec], bool]) -> bool:
    try:
        spec.validate()
        build_design(spec)
    except Exception:
        return False
    return predicate(spec)


def shrink_spec(
    spec: DesignSpec,
    predicate: Callable[[DesignSpec], bool],
    deadline_seconds: Optional[float] = None,
    max_evals: int = 400,
) -> DesignSpec:
    """Minimize ``spec`` while ``predicate`` (e.g. "oracle still fails")
    stays true.  Greedy first-improvement; bounded by ``max_evals``
    predicate runs and an optional wall-clock deadline."""
    started = time.monotonic()
    evals = [0]

    def _out_of_budget() -> bool:
        if evals[0] >= max_evals:
            return True
        return (deadline_seconds is not None
                and time.monotonic() - started > deadline_seconds)

    def _try(candidate: Optional[DesignSpec]) -> bool:
        if candidate is None or _out_of_budget():
            return False
        evals[0] += 1
        return _still_fails(candidate, predicate)

    with obs.span("fuzz.shrink", design=spec.name) as sp:
        current = spec

        def _try_remove_ops(start: int, size: int):
            nonlocal current
            candidate = _remap_ops(current, start, size)
            if _try(candidate):
                current = candidate
                return len(current.ops)
            return None

        improved = True
        while improved and not _out_of_budget():
            # ddmin over op chunks, halving granularity
            improved = ddmin_chunks(
                len(current.ops), _try_remove_ops, _out_of_budget
            )
            # slot-stable reductions
            progress = True
            while progress and not _out_of_budget():
                progress = False
                for candidate in _unary_candidates(current):
                    if _try(candidate):
                        current = candidate
                        progress = True
                        improved = True
                        break
        sp.set("evals", evals[0])
        sp.set("ops_before", len(spec.ops))
        sp.set("ops_after", len(current.ops))
    return current
