"""Seeded design generators paired with reference Python evaluators.

Two layers live here:

* :func:`build_random_expr` -- the original combinational-expression
  generator (promoted from ``tests/circuit_gen.py``), kept source- and
  seed-compatible so the simulator/bit-blaster equivalence tests keep
  their exact historical coverage.

* :class:`DesignSpec` / :func:`sample_spec` / :func:`build_design` -- a
  two-stage sequential-design generator.  ``sample_spec`` draws a pure
  data recipe (JSON-serializable, so the shrinker can edit it and the
  crash corpus can version it) describing inputs with small value
  alphabets, registers with optional enables and synchronous resets, a
  small memory, a DAG of word ops, and named 1-bit probes.
  ``build_design`` deterministically turns a spec into an elaborated
  :class:`~repro.rtl.netlist.Netlist` *and* an independent interpretive
  :class:`RefModel` that never touches the RTL layer, so the two can be
  diffed cycle-by-cycle by the differential oracle.

Every random draw goes through an explicit ``random.Random(seed)`` --
nothing in this module reads global RNG state, so campaigns replay
bit-for-bit.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..rtl import Module, elaborate, mux, redand, redor, zext
from ..rtl.netlist import Netlist

__all__ = [
    "WIDTH",
    "MASK",
    "build_random_expr",
    "WORD_OPS",
    "PROBE_KINDS",
    "InputSpec",
    "RegSpec",
    "MemSpec",
    "OpSpec",
    "ProbeSpec",
    "DesignSpec",
    "GenProfile",
    "GeneratedDesign",
    "RefModel",
    "sample_spec",
    "build_design",
    "spec_to_dict",
    "spec_from_dict",
    "spec_to_json",
    "spec_from_json",
]

WIDTH = 6
MASK = (1 << WIDTH) - 1


def build_random_expr(seed, depth=4):
    """Returns (module, node, ref) with ref(a, b) -> int."""
    rng = random.Random(seed)
    m = Module("rand%d" % seed)
    a = m.input("a", WIDTH)
    b = m.input("b", WIDTH)

    def gen(d):
        if d == 0:
            choice = rng.randrange(3)
            if choice == 0:
                return a, lambda av, bv: av
            if choice == 1:
                return b, lambda av, bv: bv
            k = rng.randrange(1 << WIDTH)
            return m.const(k, WIDTH), lambda av, bv: k
        op = rng.choice(
            ["and", "or", "xor", "add", "sub", "mul", "not", "shl", "shr",
             "muxw", "eqw", "ultw", "slice"]
        )
        x, fx = gen(d - 1)
        if op == "not":
            return ~x, lambda av, bv: ~fx(av, bv) & MASK
        if op in ("shl", "shr"):
            amount = rng.randrange(WIDTH)
            if op == "shl":
                return x << amount, lambda av, bv: (fx(av, bv) << amount) & MASK
            return x >> amount, lambda av, bv: fx(av, bv) >> amount
        if op == "slice":
            lo = rng.randrange(WIDTH - 1)
            node = zext(x[lo:WIDTH], WIDTH)
            return node, lambda av, bv: fx(av, bv) >> lo
        y, fy = gen(d - 1)
        if op == "and":
            return x & y, lambda av, bv: fx(av, bv) & fy(av, bv)
        if op == "or":
            return x | y, lambda av, bv: fx(av, bv) | fy(av, bv)
        if op == "xor":
            return x ^ y, lambda av, bv: fx(av, bv) ^ fy(av, bv)
        if op == "add":
            return x + y, lambda av, bv: (fx(av, bv) + fy(av, bv)) & MASK
        if op == "sub":
            return x - y, lambda av, bv: (fx(av, bv) - fy(av, bv)) & MASK
        if op == "mul":
            return x * y, lambda av, bv: (fx(av, bv) * fy(av, bv)) & MASK
        if op == "eqw":
            node = zext(x.eq(y), WIDTH)
            return node, lambda av, bv: int(fx(av, bv) == fy(av, bv))
        if op == "ultw":
            node = zext(x.ult(y), WIDTH)
            return node, lambda av, bv: int(fx(av, bv) < fy(av, bv))
        if op == "muxw":
            node = mux(x[0], y, x)
            return node, lambda av, bv: (
                fy(av, bv) if fx(av, bv) & 1 else fx(av, bv)
            )
        raise AssertionError(op)

    node, ref = gen(depth)
    sel = a[0]
    alt, falt = gen(depth - 1)
    node = mux(sel, node, alt)
    final_ref = lambda av, bv: (ref(av, bv) if av & 1 else falt(av, bv))
    m.name_signal("out", node)
    m.name_signal("red_or", redor(node))
    m.name_signal("red_and", redand(node))
    return m, node, final_ref


# --------------------------------------------------------------------------
# Sequential-design specs
# --------------------------------------------------------------------------

WORD_OPS = (
    "const", "and", "or", "xor", "add", "sub", "mul", "not",
    "shl", "shr", "slice", "eq", "ult", "mux",
)
PROBE_KINDS = ("bit", "eq", "redor", "redand", "ult")


@dataclass(frozen=True)
class InputSpec:
    """A primary input with an explicit value alphabet.

    The alphabet is the set of values the enumerative engine drives and
    the BMC symbolic environment is constrained to, so both explore the
    same input space.  ``tied`` freezes the input to a constant (the
    shrinker's way of removing an input without renumbering slots).
    """

    name: str
    width: int
    alphabet: Tuple[int, ...]
    tied: Optional[int] = None


@dataclass(frozen=True)
class RegSpec:
    """A register (always design-width) with optional enable/sync-reset."""

    name: str
    reset: int
    next_ref: int
    en_ref: Optional[int] = None
    sreset_ref: Optional[int] = None
    tied: bool = False


@dataclass(frozen=True)
class MemSpec:
    """A small word memory; the read port is its own value slot.

    ``raddr_ref`` must point at an input or register slot (reads are
    combinational, so routing them through the op DAG could close a
    loop); write-side refs may point anywhere since writes only feed
    next-state.
    """

    name: str
    depth: int
    wen_ref: int
    waddr_ref: int
    wdata_ref: int
    raddr_ref: int
    tied: bool = False


@dataclass(frozen=True)
class OpSpec:
    """One word op; operand refs must point at earlier slots."""

    op: str
    a: Optional[int] = None
    b: Optional[int] = None
    c: Optional[int] = None
    imm: Optional[int] = None


@dataclass(frozen=True)
class ProbeSpec:
    """A named 1-bit observation the property queries talk about."""

    name: str
    kind: str
    ref: int
    imm: int = 0


@dataclass(frozen=True)
class DesignSpec:
    """Pure-data recipe for one generated sequential design.

    Value slots are numbered ``inputs ++ registers ++ memory read ports
    ++ ops``; every ``*_ref`` field is a slot index.  The layout is
    stable under the shrinker's tie/drop reductions (only op removal
    renumbers, and the shrinker remaps refs when it does).
    """

    name: str
    width: int
    inputs: Tuple[InputSpec, ...]
    registers: Tuple[RegSpec, ...]
    memories: Tuple[MemSpec, ...]
    ops: Tuple[OpSpec, ...]
    probes: Tuple[ProbeSpec, ...]
    outputs: Tuple[Tuple[str, int], ...]
    seed: int = 0
    note: str = ""

    @property
    def base_slots(self) -> int:
        return len(self.inputs) + len(self.registers) + len(self.memories)

    @property
    def num_slots(self) -> int:
        return self.base_slots + len(self.ops)

    def validate(self) -> None:
        w = self.width
        if w < 1:
            raise ValueError("width must be positive")
        n_in, n_reg = len(self.inputs), len(self.registers)
        base = self.base_slots

        def _slot(ref, limit, what):
            if not isinstance(ref, int) or not (0 <= ref < limit):
                raise ValueError("%s ref %r out of range [0, %d)" % (what, ref, limit))

        for inp in self.inputs:
            if not (1 <= inp.width):
                raise ValueError("input %s width must be positive" % inp.name)
            if not inp.alphabet:
                raise ValueError("input %s has an empty alphabet" % inp.name)
        for rs in self.registers:
            _slot(rs.next_ref, self.num_slots, "register next")
            if rs.en_ref is not None:
                _slot(rs.en_ref, self.num_slots, "register enable")
            if rs.sreset_ref is not None:
                _slot(rs.sreset_ref, self.num_slots, "register sreset")
        for ms in self.memories:
            if ms.depth < 1:
                raise ValueError("memory %s depth must be positive" % ms.name)
            _slot(ms.raddr_ref, n_in + n_reg, "memory read addr")
            for ref, what in ((ms.wen_ref, "memory wen"),
                              (ms.waddr_ref, "memory waddr"),
                              (ms.wdata_ref, "memory wdata")):
                _slot(ref, self.num_slots, what)
        for k, op in enumerate(self.ops):
            if op.op not in WORD_OPS:
                raise ValueError("unknown op %r" % op.op)
            limit = base + k
            for ref in (op.a, op.b, op.c):
                if ref is not None:
                    _slot(ref, limit, "op %d operand" % k)
        if not self.probes:
            raise ValueError("spec needs at least one probe")
        for p in self.probes:
            if p.kind not in PROBE_KINDS:
                raise ValueError("unknown probe kind %r" % p.kind)
            _slot(p.ref, self.num_slots, "probe")
        for _name, ref in self.outputs:
            _slot(ref, self.num_slots, "output")


# ----------------------------------------------------------- serialization

def spec_to_dict(spec: DesignSpec) -> dict:
    return asdict(spec)


def spec_from_dict(data: dict) -> DesignSpec:
    return DesignSpec(
        name=data["name"],
        width=data["width"],
        inputs=tuple(
            InputSpec(d["name"], d["width"], tuple(d["alphabet"]), d.get("tied"))
            for d in data["inputs"]
        ),
        registers=tuple(
            RegSpec(d["name"], d["reset"], d["next_ref"], d.get("en_ref"),
                    d.get("sreset_ref"), d.get("tied", False))
            for d in data["registers"]
        ),
        memories=tuple(
            MemSpec(d["name"], d["depth"], d["wen_ref"], d["waddr_ref"],
                    d["wdata_ref"], d["raddr_ref"], d.get("tied", False))
            for d in data["memories"]
        ),
        ops=tuple(
            OpSpec(d["op"], d.get("a"), d.get("b"), d.get("c"), d.get("imm"))
            for d in data["ops"]
        ),
        probes=tuple(
            ProbeSpec(d["name"], d["kind"], d["ref"], d.get("imm", 0))
            for d in data["probes"]
        ),
        outputs=tuple((n, r) for n, r in data["outputs"]),
        seed=data.get("seed", 0),
        note=data.get("note", ""),
    )


def spec_to_json(spec: DesignSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True)


def spec_from_json(text: str) -> DesignSpec:
    return spec_from_dict(json.loads(text))


# --------------------------------------------------------------- ref model

class RefModel:
    """Interpretive evaluator for a :class:`DesignSpec`.

    Deliberately independent of the RTL layer: state is plain ints, ops
    are Python arithmetic, and the observation timing mirrors the
    compiled simulator (observables reflect start-of-cycle state plus
    this cycle's inputs; registers and memories update afterwards).
    """

    def __init__(self, spec: DesignSpec):
        self.spec = spec
        self.mask = (1 << spec.width) - 1
        self.reset()

    def reset(self) -> None:
        self.regs = [rs.reset & self.mask for rs in self.spec.registers]
        self.mems = [[0] * ms.depth for ms in self.spec.memories]

    # one value per slot, all masked to the design width
    def _slot_values(self, inputs: Dict[str, int]) -> List[int]:
        spec, mask = self.spec, self.mask
        vals: List[int] = []
        for inp in spec.inputs:
            raw = inp.tied if inp.tied is not None else inputs.get(inp.name, 0)
            vals.append(raw & ((1 << inp.width) - 1) & mask)
        for i, rs in enumerate(spec.registers):
            vals.append(rs.reset & mask if rs.tied else self.regs[i])
        for j, ms in enumerate(spec.memories):
            if ms.tied:
                vals.append(0)
                continue
            aw = max(1, (ms.depth - 1).bit_length())
            addr = vals[ms.raddr_ref] & ((1 << aw) - 1)
            # Memory.read falls back to word 0 when no address compares equal
            vals.append(self.mems[j][addr] if addr < ms.depth else self.mems[j][0])
        for op in spec.ops:
            a = vals[op.a] if op.a is not None else 0
            b = vals[op.b] if op.b is not None else 0
            c = vals[op.c] if op.c is not None else 0
            vals.append(_eval_op(op, a, b, c, spec.width, mask))
        return vals

    def _observe(self, vals: List[int]) -> Dict[str, int]:
        spec, mask = self.spec, self.mask
        obs: Dict[str, int] = {}
        for p in spec.probes:
            v = vals[p.ref]
            if p.kind == "bit":
                obs[p.name] = (v >> (p.imm % spec.width)) & 1
            elif p.kind == "eq":
                obs[p.name] = int(v == (p.imm & mask))
            elif p.kind == "redor":
                obs[p.name] = int(v != 0)
            elif p.kind == "redand":
                obs[p.name] = int(v == mask)
            elif p.kind == "ult":
                obs[p.name] = int(v < (p.imm & mask))
            else:  # pragma: no cover - validate() rejects these
                raise AssertionError(p.kind)
        for name, ref in spec.outputs:
            obs[name] = vals[ref]
        return obs

    def step(self, inputs: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        spec, mask = self.spec, self.mask
        vals = self._slot_values(inputs or {})
        obs = self._observe(vals)
        new_regs = list(self.regs)
        for i, rs in enumerate(spec.registers):
            if rs.tied:
                continue
            nxt = vals[rs.next_ref]
            if rs.sreset_ref is not None and vals[rs.sreset_ref]:
                nxt = rs.reset & mask
            if rs.en_ref is not None and not vals[rs.en_ref]:
                nxt = self.regs[i]
            new_regs[i] = nxt & mask
        for j, ms in enumerate(spec.memories):
            if ms.tied:
                continue
            if vals[ms.wen_ref]:
                aw = max(1, (ms.depth - 1).bit_length())
                addr = vals[ms.waddr_ref] & ((1 << aw) - 1)
                if addr < ms.depth:
                    self.mems[j][addr] = vals[ms.wdata_ref]
        self.regs = new_regs
        return obs

    def run(self, sequence: Sequence[Dict[str, int]]) -> List[Dict[str, int]]:
        self.reset()
        return [self.step(cycle) for cycle in sequence]


def _eval_op(op: OpSpec, a: int, b: int, c: int, width: int, mask: int) -> int:
    kind = op.op
    if kind == "const":
        return (op.imm or 0) & mask
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    if kind == "xor":
        return a ^ b
    if kind == "add":
        return (a + b) & mask
    if kind == "sub":
        return (a - b) & mask
    if kind == "mul":
        return (a * b) & mask
    if kind == "not":
        return ~a & mask
    if kind == "shl":
        return (a << ((op.imm or 0) % width)) & mask
    if kind == "shr":
        return a >> ((op.imm or 0) % width)
    if kind == "slice":
        return a >> ((op.imm or 0) % width)
    if kind == "eq":
        return int(a == b)
    if kind == "ult":
        return int(a < b)
    if kind == "mux":
        return b if a else c
    raise AssertionError(kind)  # pragma: no cover - validate() rejects


# --------------------------------------------------------------- RTL build

@dataclass
class GeneratedDesign:
    """A built spec: RTL netlist plus the matching reference evaluator."""

    spec: DesignSpec
    module: Module
    netlist: Netlist

    def ref(self) -> RefModel:
        return RefModel(self.spec)

    @property
    def probe_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.spec.probes)

    @property
    def live_inputs(self) -> Tuple[InputSpec, ...]:
        return tuple(i for i in self.spec.inputs if i.tied is None)

    @property
    def num_cells(self) -> int:
        return self.netlist.num_cells


def build_design(spec: DesignSpec) -> GeneratedDesign:
    """Deterministically elaborate ``spec`` into RTL."""
    spec.validate()
    m = Module(spec.name)
    W = spec.width
    slots = []
    for inp in spec.inputs:
        in_mask = (1 << inp.width) - 1
        if inp.tied is not None:
            slots.append(m.const(inp.tied & in_mask, W))
        else:
            node = m.input(inp.name, inp.width)
            if inp.width < W:
                node = zext(node, W)
            elif inp.width > W:
                node = node[0:W]
            slots.append(node)
    regs = []
    for rs in spec.registers:
        if rs.tied:
            regs.append(None)
            slots.append(m.const(rs.reset, W))
        else:
            r = m.reg(rs.name, W, reset=rs.reset)
            regs.append(r)
            slots.append(r.q)
    mems = []
    for ms in spec.memories:
        if ms.tied:
            mems.append(None)
            slots.append(m.const(0, W))
        else:
            mem = m.memory(ms.name, W, ms.depth)
            mems.append(mem)
            slots.append(mem.read(slots[ms.raddr_ref]))
    for os_ in spec.ops:
        a = slots[os_.a] if os_.a is not None else None
        b = slots[os_.b] if os_.b is not None else None
        c = slots[os_.c] if os_.c is not None else None
        slots.append(_build_op(m, os_, a, b, c, W))
    for rs, r in zip(spec.registers, regs):
        if r is None:
            continue
        nxt = slots[rs.next_ref]
        if rs.sreset_ref is not None:
            nxt = mux(slots[rs.sreset_ref].bool(), m.const(rs.reset, W), nxt)
        if rs.en_ref is not None:
            nxt = mux(slots[rs.en_ref].bool(), nxt, r.q)
        r.next = nxt
    for ms, mem in zip(spec.memories, mems):
        if mem is None:
            continue
        mem.write(slots[ms.wen_ref].bool(), slots[ms.waddr_ref],
                  slots[ms.wdata_ref])
    for p in spec.probes:
        v = slots[p.ref]
        if p.kind == "bit":
            node = v[p.imm % W]
        elif p.kind == "eq":
            node = v.eq(p.imm & ((1 << W) - 1))
        elif p.kind == "redor":
            node = redor(v)
        elif p.kind == "redand":
            node = redand(v)
        else:  # ult
            node = v.ult(p.imm & ((1 << W) - 1))
        m.name_signal(p.name, node)
    for name, ref in spec.outputs:
        m.name_signal(name, slots[ref])
    return GeneratedDesign(spec=spec, module=m, netlist=elaborate(m))


def _build_op(m: Module, op: OpSpec, a, b, c, width: int):
    kind = op.op
    if kind == "const":
        return m.const((op.imm or 0), width)
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    if kind == "xor":
        return a ^ b
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "not":
        return ~a
    if kind == "shl":
        return a << ((op.imm or 0) % width)
    if kind == "shr":
        return a >> ((op.imm or 0) % width)
    if kind == "slice":
        lo = (op.imm or 0) % width
        return zext(a[lo:width], width) if lo else a
    if kind == "eq":
        return zext(a.eq(b), width)
    if kind == "ult":
        return zext(a.ult(b), width)
    if kind == "mux":
        return mux(a.bool(), b, c)
    raise AssertionError(kind)  # pragma: no cover - validate() rejects


# ----------------------------------------------------------------- sampler

@dataclass(frozen=True)
class GenProfile:
    """Knobs for :func:`sample_spec`; defaults keep the enumerative
    oracle exhaustive (per-cycle alphabet product capped) and designs in
    the tens-of-cells range where every engine is fast."""

    min_width: int = 3
    max_width: int = 6
    max_inputs: int = 3
    max_regs: int = 3
    min_ops: int = 6
    max_ops: int = 18
    mem_prob: float = 0.35
    fsm_prob: float = 0.5
    enable_prob: float = 0.4
    sreset_prob: float = 0.3
    max_probes: int = 4
    alphabet_product_cap: int = 8


def _sample_alphabet(rng: random.Random, width: int) -> Tuple[int, ...]:
    top = (1 << width) - 1
    if width == 1:
        return (0, 1)
    size = rng.choice((2, 4)) if width > 1 else 2
    pool = {0, 1, top, top - 1, rng.randrange(top + 1), rng.randrange(top + 1)}
    values = sorted(pool)
    while len(values) > size:
        values.pop(rng.randrange(len(values)))
    return tuple(values)


def sample_spec(seed: int, profile: Optional[GenProfile] = None) -> DesignSpec:
    """Draw a random (but fully seed-determined) :class:`DesignSpec`."""
    prof = profile or GenProfile()
    rng = random.Random(seed)
    W = rng.randint(prof.min_width, prof.max_width)
    top = (1 << W) - 1

    inputs = []
    for i in range(rng.randint(1, prof.max_inputs)):
        width = 1 if rng.random() < 0.5 else rng.randint(2, W)
        inputs.append(InputSpec("in%d" % i, width, _sample_alphabet(rng, width)))
    # keep the exhaustive enumeration tractable: shrink the widest
    # alphabets until the per-cycle product fits the cap
    def _product():
        out = 1
        for inp in inputs:
            out *= len(inp.alphabet)
        return out
    while _product() > prof.alphabet_product_cap:
        idx = max(range(len(inputs)), key=lambda i: len(inputs[i].alphabet))
        alpha = inputs[idx].alphabet
        inputs[idx] = replace(inputs[idx], alphabet=(alpha[0], alpha[-1]))

    n_reg = rng.randint(1, prof.max_regs)
    n_mem = 1 if rng.random() < prof.mem_prob else 0
    n_ops = rng.randint(prof.min_ops, prof.max_ops)
    n_in = len(inputs)
    base = n_in + n_reg + n_mem

    def _ref(limit: int) -> int:
        # bias operand picks toward recent slots so the DAG gets deep
        if limit > 6 and rng.random() < 0.5:
            return rng.randrange(limit - 6, limit)
        return rng.randrange(limit)

    ops: List[OpSpec] = []
    for k in range(n_ops):
        limit = base + k
        kind = rng.choice(WORD_OPS)
        if kind == "const":
            imm = rng.choice((0, 1, top, rng.randrange(top + 1)))
            ops.append(OpSpec("const", imm=imm))
        elif kind == "not":
            ops.append(OpSpec("not", a=_ref(limit)))
        elif kind in ("shl", "shr", "slice"):
            ops.append(OpSpec(kind, a=_ref(limit), imm=rng.randrange(W)))
        elif kind == "mux":
            ops.append(OpSpec("mux", a=_ref(limit), b=_ref(limit), c=_ref(limit)))
        else:
            ops.append(OpSpec(kind, a=_ref(limit), b=_ref(limit)))

    registers: List[RegSpec] = []
    for i in range(n_reg):
        total = base + len(ops)
        # point register inputs into the op DAG when possible so state
        # actually depends on computation
        next_ref = (base + rng.randrange(len(ops))) if ops else rng.randrange(total)
        en_ref = _ref(total) if rng.random() < prof.enable_prob else None
        sr_ref = _ref(total) if rng.random() < prof.sreset_prob else None
        registers.append(RegSpec("r%d" % i, rng.randrange(top + 1),
                                 next_ref, en_ref, sr_ref))

    if rng.random() < prof.fsm_prob:
        # a counter-style FSM: s' = (s == K) ? RESET_TO : s + STEP; the
        # three helper ops land at the end of the DAG
        s_slot = n_in + rng.randrange(n_reg)
        total = base + len(ops)
        k_const = OpSpec("const", imm=rng.randrange(top + 1))
        ops.append(k_const)
        ops.append(OpSpec("eq", a=s_slot, b=total))
        ops.append(OpSpec("add", a=s_slot, b=total))
        ops.append(OpSpec("mux", a=total + 1,
                          b=total, c=total + 2))
        idx = rng.randrange(n_reg)
        registers[idx] = replace(registers[idx],
                                 next_ref=base + len(ops) - 1,
                                 sreset_ref=None)

    memories: List[MemSpec] = []
    if n_mem:
        total = base + len(ops)
        memories.append(MemSpec(
            name="mem0",
            depth=2,
            wen_ref=rng.randrange(total),
            waddr_ref=rng.randrange(total),
            wdata_ref=rng.randrange(total),
            raddr_ref=rng.randrange(n_in + n_reg),
        ))

    total = base + len(ops)
    kinds = list(PROBE_KINDS)
    rng.shuffle(kinds)
    probes: List[ProbeSpec] = []
    for i in range(rng.randint(2, prof.max_probes)):
        kind = kinds[i % len(kinds)]
        probes.append(ProbeSpec("p%d" % i, kind, _ref(total),
                                imm=rng.randrange(top + 1)))
    outputs = (("w0", _ref(total)), ("w1", _ref(total)))
    return DesignSpec(
        name="fuzz%d" % seed,
        width=W,
        inputs=tuple(inputs),
        registers=tuple(registers),
        memories=tuple(memories),
        ops=tuple(ops),
        probes=tuple(probes),
        outputs=outputs,
        seed=seed,
    )
