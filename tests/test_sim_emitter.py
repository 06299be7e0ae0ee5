"""Differential test of the step-function emitter.

``compile_netlist`` emits constants as literals, inlines single-use
cells into their consumers and memoizes small-support cones on their
key atoms.  ``reference_compile`` below is the plain emitter it
replaced -- one local per node, in topological order -- kept as the
reference: both must give identical ``(next_state, obs)`` on every
design and every (state, input) pair drawn here.  Each pair list runs
twice through one compile, so the second pass reads warm memos.

SynthLC simulates a slice of the IFT netlist that observes only what
its covers read (``SynthLC.observed``).  The full IFT netlist is that
slice's reference: every taint context's rows on the slice must be its
full rows projected onto the slice's names, cycle for cycle.
"""

import glob
import os
import random
import sys
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro.mc.enumerative as enumerative
import repro.rtl.coi as coi_mod
import repro.sim.simulator as simulator_mod
from repro.core.synthlc import ASSUMPTIONS, OPERANDS, SynthLC, instrument_design
from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core, isa
from repro.designs.cache import CacheContextProvider, build_cache
from repro.designs.core import CoreConfig
from repro.designs.variants import build_cva6_mul, build_cva6_op
from repro.fuzz import CampaignConfig, build_design, sample_spec
from repro.fuzz.campaign import load_reproducer
from repro.mc.enumerative import simulate_context
from repro.rtl import Module, elaborate, mux
from repro.rtl.coi import observed_netlist
from repro.sim import Simulator
from repro.sim.simulator import compile_netlist

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "fuzz_corpus", "*.json")))
# the e2e fuzz-oracle workload's corpus: the first 28 designs of the
# seed-7 campaign.  The reproducers above elaborate to no cell at all.
E2E_FUZZ_SEEDS = [7 * 1000003 + i for i in range(28)]
# the e2e benchmark's smoke-scale upath family
SMOKE_FAMILY = ContextFamilyConfig(
    horizon=32, neighbors=("DIV",), iuv_values=(0, 15), neighbor_values=(0,),
)
# and its smoke-scale leakage taint family (LW's taint, DIV the transponder)
SMOKE_TAINT_FAMILY = ContextFamilyConfig(
    horizon=32, neighbors=("DIV",), iuv_values=(0,), neighbor_values=(0,),
    instrumented=True,
)
# the e2e benchmark's full-scale families (benchmarks/e2e/worker.py): the
# upath family (also the leakage workload's synthesis family) and the
# leakage taint family
FULL_FAMILY = ContextFamilyConfig(
    horizon=32, neighbors=("DIV",), iuv_values=(0, 1, 15), neighbor_values=(0, 15),
)
FULL_TAINT_FAMILY = ContextFamilyConfig(
    horizon=32, neighbors=("DIV",), iuv_values=(0, 15), neighbor_values=(0, 15),
    instrumented=True,
)


def reference_compile(netlist):
    """One local per node, constants included: ``compile_netlist``'s reference."""

    def mask(width):
        return (1 << width) - 1

    lines = ["def _step(state, inputs):"]
    reg_index = {reg.q.uid: i for i, (reg, _) in enumerate(netlist.registers)}
    input_index = {node.uid: i for i, node in enumerate(netlist.inputs)}
    for node in netlist.order:
        var = "v%d" % node.uid
        op = node.op
        args = tuple("v%d" % arg.uid for arg in node.args)
        if op == "const":
            expr = "%d" % node.value
        elif op == "input":
            expr = "inputs[%d]" % input_index[node.uid]
        elif op == "reg":
            expr = "state[%d]" % reg_index[node.uid]
        elif op in ("and", "or", "xor"):
            expr = "%s %s %s" % (args[0], {"and": "&", "or": "|", "xor": "^"}[op], args[1])
        elif op in ("add", "sub", "mul"):
            sign = {"add": "+", "sub": "-", "mul": "*"}[op]
            expr = "(%s %s %s) & %d" % (args[0], sign, args[1], mask(node.width))
        elif op == "eq":
            expr = "1 if %s == %s else 0" % args
        elif op == "ult":
            expr = "1 if %s < %s else 0" % args
        elif op == "not":
            expr = "%s ^ %d" % (args[0], mask(node.width))
        elif op == "shl":
            expr = "(%s << %d) & %d" % (args[0], node.value, mask(node.width))
        elif op == "shr":
            expr = "%s >> %d" % (args[0], node.value)
        elif op == "mux":
            expr = "%s if %s else %s" % (args[1], args[0], args[2])
        elif op == "concat":
            parts = []
            shift = 0
            for arg in reversed(node.args):
                parts.append("(v%d << %d)" % (arg.uid, shift) if shift else "v%d" % arg.uid)
                shift += arg.width
            expr = " | ".join(parts)
        elif op == "slice":
            expr = "(%s >> %d) & %d" % (args[0], node.value, mask(node.width))
        elif op == "redor":
            expr = "1 if %s else 0" % args
        elif op == "redand":
            expr = "1 if %s == %d else 0" % (args[0], mask(node.args[0].width))
        else:
            raise NotImplementedError(op)
        lines.append("    %s = %s" % (var, expr))
    observable_names = list(netlist.named) + [
        name for name in netlist.outputs if name not in netlist.named
    ]
    obs_nodes = [
        netlist.named[name] if name in netlist.named else netlist.outputs[name]
        for name in observable_names
    ]
    next_vars = "".join("v%d, " % nxt.uid for _, nxt in netlist.registers)
    obs_vars = "".join("v%d, " % node.uid for node in obs_nodes)
    lines.append("    return (%s), (%s)" % (next_vars, obs_vars))
    namespace = {}
    exec(compile("\n".join(lines), "<reference:%s>" % netlist.name, "exec"), namespace)
    return namespace["_step"], observable_names


def random_pairs(netlist, count, seed=0):
    """Random (state, inputs) tuples, plus all-zero and all-ones ones.

    Every other random pair draws each register from {0, 1, all-ones},
    so memo keys repeat while the bits outside them differ.
    """
    rng = random.Random(seed)
    reg_widths = [reg.width for reg, _ in netlist.registers]
    input_widths = [node.width for node in netlist.inputs]
    pairs = [
        (tuple(0 for _ in reg_widths), tuple(0 for _ in input_widths)),
        (tuple((1 << w) - 1 for w in reg_widths), tuple((1 << w) - 1 for w in input_widths)),
    ]
    for i in range(count):
        if i % 2:
            state = tuple(rng.choice((0, 1, (1 << w) - 1)) for w in reg_widths)
        else:
            state = tuple(rng.getrandbits(w) for w in reg_widths)
        pairs.append((state, tuple(rng.getrandbits(w) for w in input_widths)))
    return pairs


def reached_pairs(netlist, contexts):
    """Every (state, inputs) ``simulate_context`` steps while driving
    ``contexts``."""
    pairs = {}
    real = enumerative.drive

    def drive(step, *args, **kwargs):
        def recording(state, inputs):
            pairs[state, inputs] = None
            return step(state, inputs)

        return real(recording, *args, **kwargs)

    sim = Simulator(netlist)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumerative, "drive", drive)
        for context in dict.fromkeys(contexts):
            simulate_context(sim, context)
    assert pairs
    return list(pairs)


def first_disagreement(netlist, pairs):
    """The first pair on which ``compile_netlist`` and the reference differ.

    The pairs run twice through one compile: the second pass is served
    from the memos the first one filled.
    """
    step, names = compile_netlist(netlist)
    ref, ref_names = reference_compile(netlist)
    assert names == ref_names
    for state, inputs in list(pairs) * 2:
        got, want = step(state, inputs), ref(state, inputs)
        if got != want or not all_ints(got):
            return state, inputs, got, want
    return None


def all_ints(result):
    """Whether every next-state and observable value is an exact ``int``:
    a ``bool`` equals 1 or 0, but witness JSON and cache entries would
    write it as ``true`` or ``false``."""
    next_state, obs = result
    return all(type(value) is int for value in next_state + obs)


def memos(step):
    """The memo of every block in ``step``'s compile, by block index."""
    names = step.__globals__
    count = sum(1 for name in names if name.startswith("_c"))
    return [names["_m%d" % i] for i in range(count)]


def key_atoms(step, netlist):
    """The key atoms of every block in ``step``'s compile, by block index."""
    names = step.__globals__
    by_uid = {node.uid: node for node in netlist.order}
    keys = []
    for index in range(len(memos(step))):
        code = names["_c%d" % index].__code__
        keys.append([by_uid[int(arg[1:])] for arg in code.co_varnames[:code.co_argcount]])
    return keys


@pytest.fixture(scope="module")
def smoke_taint():
    """A SynthLC tool on the xlen=4 core, and every context of the smoke
    taint family's runs with DIV the transponder: LW and DIV the
    transmitters, under each assumption, each operand they read."""
    provider = CoreContextProvider(xlen=4, config=SMOKE_TAINT_FAMILY)
    contexts = [
        context
        for transmitter in ("LW", "DIV")
        for assumption in ASSUMPTIONS
        for operand in OPERANDS
        if getattr(isa.BY_NAME[transmitter], "reads_" + operand)
        for group in provider.taint_groups("DIV", transmitter, assumption, operand)
        for context in group.contexts
    ]
    return SynthLC(build_core(CoreConfig(xlen=4)), provider), contexts


@pytest.fixture(scope="module")
def netlists(smoke_taint):
    designs = {
        "core": build_core(CoreConfig(xlen=4)),
        "cache": build_cache(),
        "cva6-mul": build_cva6_mul(),
        "cva6-op": build_cva6_op(),
    }
    out = {name: design.netlist for name, design in designs.items()}
    for name, design in designs.items():
        out[name + "-ift"] = instrument_design(design).netlist
    tool, contexts = smoke_taint
    out["core-ift-observed"] = tool.observed()
    return out


@pytest.mark.parametrize("name", [
    "core", "cache", "cva6-mul", "cva6-op",
    "core-ift", "cache-ift", "cva6-mul-ift", "cva6-op-ift",
])
def test_design_matches_reference(netlists, name):
    netlist = netlists[name]
    pairs = random_pairs(netlist, 60 if name.endswith("-ift") else 300)
    assert first_disagreement(netlist, pairs) is None


def corpus_netlist(item):
    """A reproducer's netlist, or the campaign design of a seed."""
    if isinstance(item, int):
        return build_design(sample_spec(item, CampaignConfig().profile)).netlist
    return build_design(load_reproducer(item)).netlist


def corpus_id(item):
    return "seed-%d" % item if isinstance(item, int) else os.path.basename(item)[:-5]


@pytest.mark.parametrize("item", CORPUS + E2E_FUZZ_SEEDS, ids=corpus_id)
def test_fuzz_corpus_design_matches_reference(item):
    netlist = corpus_netlist(item)
    assert first_disagreement(netlist, random_pairs(netlist, 200)) is None


def test_fuzz_corpus_matches_reference_at_block_floor_two(monkeypatch):
    monkeypatch.setattr(simulator_mod, "_MIN_BLOCK_CELLS", 2)
    for item in CORPUS + E2E_FUZZ_SEEDS:
        netlist = corpus_netlist(item)
        assert first_disagreement(netlist, random_pairs(netlist, 200)) is None, item


def test_corpus_is_complete():
    assert len(CORPUS) == 16
    # the reproducers hold no cell; the campaign designs do
    assert sum(corpus_netlist(path).num_cells for path in CORPUS) == 0
    cells = [corpus_netlist(seed).num_cells for seed in E2E_FUZZ_SEEDS]
    assert sum(1 for count in cells if count) == 27
    assert sum(cells) == 498


def test_only_the_low_floor_blocks_generated_designs(monkeypatch):
    designs = [build_design(sample_spec(seed)).netlist for seed in range(28)]
    assert not any(memos(compile_netlist(netlist)[0]) for netlist in designs)
    monkeypatch.setattr(simulator_mod, "_MIN_BLOCK_CELLS", 2)
    blocked = [netlist for netlist in designs if memos(compile_netlist(netlist)[0])]
    assert len(blocked) >= len(designs) // 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), pair_seed=st.integers(0, 1000))
def test_random_generated_design_matches_reference(seed, pair_seed):
    netlist = build_design(sample_spec(seed)).netlist
    assert first_disagreement(netlist, random_pairs(netlist, 40, pair_seed)) is None


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), pair_seed=st.integers(0, 1000))
def test_random_generated_design_matches_reference_at_block_floor_two(seed, pair_seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator_mod, "_MIN_BLOCK_CELLS", 2)
        netlist = build_design(sample_spec(seed)).netlist
        assert first_disagreement(netlist, random_pairs(netlist, 40, pair_seed)) is None


def test_full_scale_upath_family_pairs_match_reference(netlists):
    core = CoreContextProvider(xlen=4, config=FULL_FAMILY)
    core_contexts = [
        c for name in ("ADD", "DIV", "LW", "SW", "BEQ")
        for g in core.mupath_groups(name) for c in g.contexts
    ]
    cache = CacheContextProvider(horizon=40)
    cache_contexts = [
        c for name in ("LD", "ST") for g in cache.mupath_groups(name) for c in g.contexts
    ]
    for name, contexts, count in (("core", core_contexts, 5584), ("cache", cache_contexts, 2412)):
        pairs = reached_pairs(netlists[name], contexts)
        assert len(pairs) == count
        assert first_disagreement(netlists[name], pairs) is None


def deep_chain():
    # 400 chained single-use cells: inlined whole, the expression would
    # nest far past CPython's 200-parenthesis limit
    m = Module("chain")
    a = m.input("a", 8)
    r = m.reg("r", 8)
    node = a
    for i in range(400):
        node = (node + r.q) if i % 2 else (node ^ m.const(i & 0xFF, 8))
    r.next = node
    m.name_signal("out", node)
    return elaborate(m)


def deep_bit_chain():
    # 400 chained single-use 1-bit cells, each a test its reader reads:
    # and, or with an eq, not, a mux selected by an eq, and xor
    m = Module("bits")
    a = m.input("a", 64)
    b = m.input("b", 1)
    r = m.reg("r", 1)
    node = b
    for i in range(400):
        lo = (7 * i) % 62
        hit = a[lo:lo + 2].eq(m.const(i % 4, 2))
        kind = i % 5
        if kind == 0:
            node = node & r.q
        elif kind == 1:
            node = node | hit
        elif kind == 2:
            node = ~node
        elif kind == 3:
            node = mux(hit, node, b)
        else:
            node = node ^ a[i % 64]
    r.next = node
    m.name_signal("out", node)
    return elaborate(m)


def test_deep_single_use_chain_compiles_and_matches():
    netlist = deep_chain()
    assert first_disagreement(netlist, random_pairs(netlist, 50)) is None


def test_deep_bit_chain_compiles_and_matches():
    netlist = deep_bit_chain()
    assert netlist.num_cells > 400
    assert first_disagreement(netlist, random_pairs(netlist, 200)) is None


def test_deep_single_use_chain_matches_at_block_floor_two(monkeypatch):
    # at either floor the chain, which reads the 16 bits of a and r, is
    # one cone, spilled inside as the step would spill it
    monkeypatch.setattr(simulator_mod, "_MIN_BLOCK_CELLS", 2)
    netlist = deep_chain()
    step, _ = compile_netlist(netlist)
    assert len(memos(step)) == 1
    assert first_disagreement(netlist, random_pairs(netlist, 50)) is None


def test_full_scale_leakage_family_pairs_match_reference():
    # the leakage workload's taint family on the slice SynthLC steps: LW
    # the transponder, DIV the transmitter, every assumption and operand
    provider = CoreContextProvider(xlen=4, config=FULL_TAINT_FAMILY)
    contexts = [
        context
        for assumption in ASSUMPTIONS
        for operand in OPERANDS
        for group in provider.taint_groups("LW", "DIV", assumption, operand)
        for context in group.contexts
    ]
    observed = SynthLC(build_core(CoreConfig(xlen=4)), provider).observed()
    pairs = reached_pairs(observed, contexts)
    assert len(pairs) == 2276
    assert first_disagreement(observed, pairs) is None


@pytest.mark.parametrize("name", [
    "core", "cache", "cva6-mul", "cva6-op",
    "core-ift", "cache-ift", "cva6-mul-ift", "cva6-op-ift", "core-ift-observed",
])
def test_memo_keys_fit_sixteen_bits(netlists, name):
    netlist = netlists[name]
    step, _ = compile_netlist(netlist)
    for state, inputs in random_pairs(netlist, 60):
        step(state, inputs)
    filled = memos(step)
    if name in ("core", "core-ift", "core-ift-observed"):
        assert filled
    assert all(memo and max(memo) < 1 << 16 for memo in filled)
    # a key holding a register or input holds none of its slices: the
    # cone computes them from it
    for atoms in key_atoms(step, netlist):
        wholes = {atom.uid for atom in atoms if atom.op != "slice"}
        assert not [atom for atom in atoms if atom.op == "slice" and atom.args[0].uid in wholes]


def projection_mismatch(full, observed, contexts):
    """The first ``(context, cycle)`` whose row on ``observed`` is not its
    row on ``full`` projected onto ``observed``'s names, or None.

    Also returns the cycles each netlist elided, per context.
    """
    full_sim, sim = Simulator(full), Simulator(observed)
    columns = [full_sim.observable_index(name) for name in sim.observable_names]
    elided = []
    for context in dict.fromkeys(contexts):
        full_rows = simulate_context(full_sim, context)
        rows = simulate_context(sim, context)
        assert len(rows) == len(full_rows)
        for cycle, (row, full_row) in enumerate(zip(rows, full_rows)):
            if row != tuple(full_row[i] for i in columns):
                return (context, cycle), elided
        elided.append((repeats(full_rows), repeats(rows)))
    return None, elided


def repeats(rows):
    """The cycles whose row is the previous cycle's row object: elided."""
    return {t for t in range(1, len(rows)) if rows[t] is rows[t - 1]}


def test_observed_taint_rows_match_full_projection(smoke_taint):
    tool, contexts = smoke_taint
    full, observed = tool.ift.netlist, tool.observed()
    assert (observed.num_cells, len(observed.registers), len(observed.named)) == (5513, 224, 93)
    assert (full.num_cells, len(full.registers)) == (6717, 248)
    assert [node.name for node in observed.inputs] == [node.name for node in full.inputs]
    mismatch, elided = projection_mismatch(full, observed, contexts)
    assert mismatch is None
    # elided cycles are compared too: the slice elides wherever the full
    # netlist does, and the family holds some
    assert all(full_cycles <= cycles for full_cycles, cycles in elided)
    assert any(cycles for _, cycles in elided)


def test_planted_frozen_taint_register_is_caught(smoke_taint, monkeypatch):
    # a slice that keeps the operand's taint register but freezes it:
    # its next-state is its own q, so taint is never introduced
    real = coi_mod._cone_registers

    def freeze_operand_taint(netlist, cone):
        return [
            (reg, reg.q if reg.name == "iss_rs1v__t" else next_node)
            for reg, next_node in real(netlist, cone)
        ]

    monkeypatch.setattr(coi_mod, "_cone_registers", freeze_operand_taint)
    tool, contexts = smoke_taint
    planted = observed_netlist(tool.ift.netlist, tool.observed().named)
    assert "iss_rs1v__t" in {reg.name for reg, _ in planted.registers}
    mismatch, _ = projection_mismatch(tool.ift.netlist, planted, contexts)
    assert mismatch is not None


def test_interrupted_cone_stores_no_entry(netlists):
    # a job deadline (SIGALRM) or a Ctrl-C can raise at any line of a
    # cone.  Raised at the cone's last statement but one, the
    # interrupt must leave no entry, and the next step with that key
    # must compute it afresh.
    netlist = netlists["core-ift"]
    step, _ = compile_netlist(netlist)
    ref, _ = reference_compile(netlist)
    names = step.__globals__
    cone = names["_c0"].__code__
    store_line = max(line for _, _, line in cone.co_lines() if line) - 1

    def interrupt_at_store(frame, event, arg):
        if frame.f_code is not cone:
            return None

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == store_line:
                raise KeyboardInterrupt
            return local

        return local

    state, inputs = random_pairs(netlist, 1)[-1]
    previous = sys.gettrace()
    sys.settrace(interrupt_at_store)
    try:
        with pytest.raises(KeyboardInterrupt):
            step(state, inputs)
    finally:
        sys.settrace(previous)
    assert names["_m0"] == {}
    assert step(state, inputs) == ref(state, inputs)
    assert len(names["_m0"]) == 1
    assert step(state, inputs) == ref(state, inputs)


@pytest.mark.parametrize("name", ["core", "core-ift"])
def test_planted_key_missing_an_atom_is_caught(netlists, monkeypatch, name):
    real = simulator_mod._key_expr

    def all_but_the_last_atom(atoms, text):
        return real(atoms[:-1], text) or "0"

    monkeypatch.setattr(simulator_mod, "_key_expr", all_but_the_last_atom)
    netlist = netlists[name]
    pairs = random_pairs(netlist, 60 if name.endswith("-ift") else 1000)
    assert first_disagreement(netlist, pairs) is not None


def test_planted_mux_arm_swap_on_inlined_cells_is_caught(netlists, monkeypatch):
    real = simulator_mod._cell_expr

    def swap_inlined_arms(node, a, t):
        # inlined arguments are the parenthesized ones
        if node.op == "mux" and any(arm.startswith("(") for arm in a[1:]):
            return real(node, (a[0], a[2], a[1]), (t[0], t[2], t[1]))
        return real(node, a, t)

    monkeypatch.setattr(simulator_mod, "_cell_expr", swap_inlined_arms)
    netlist = netlists["core"]
    assert first_disagreement(netlist, random_pairs(netlist, 300)) is not None


# Plants in the 1-bit rules of _cell_expr.  The core holds no replicated
# bit (only CellIFT's select-taint broadcast does), so the short mask is
# planted on core-ift alone.
def swap_and_or(real, node, a, t):
    if node.op in ("and", "or") and node.width == 1:
        node = SimpleNamespace(op={"and": "or", "or": "and"}[node.op], width=1, args=node.args)
    return real(node, a, t)


def drop_not(real, node, a, t):
    value, test = real(node, a, t)
    if node.op == "not" and node.width == 1:
        assert test.startswith("not ")
        test = test[len("not "):]
    return value, test


def short_mask(real, node, a, t):
    value, test = real(node, a, t)
    if simulator_mod._replicated(node):
        mask = "%d" % ((1 << node.width) - 1)
        assert value.startswith(mask + " if ")
        value = "%d%s" % ((1 << node.width - 1) - 1, value[len(mask):])
    return value, test


def bare_test(real, node, a, t):
    value, test = real(node, a, t)
    if node.op in ("and", "or") and node.width == 1 and test is not None:
        value = test
    return value, test


@pytest.mark.parametrize("name, plant", [
    ("core", swap_and_or), ("core-ift", swap_and_or),
    ("core", drop_not), ("core-ift", drop_not),
    ("core-ift", short_mask),
])
def test_planted_bit_rule_is_caught(netlists, monkeypatch, name, plant):
    monkeypatch.setattr(simulator_mod, "_cell_expr", partial(plant, simulator_mod._cell_expr))
    netlist = netlists[name]
    # a short mask shows only where a select taint is set and the arms'
    # top bits differ, which 60 random core-ift pairs need not reach
    count = 60 if name.endswith("-ift") and plant is not short_mask else 300
    pairs = random_pairs(netlist, count)
    assert first_disagreement(netlist, pairs) is not None


@pytest.mark.parametrize("name", ["core", "core-ift"])
def test_planted_bool_value_is_caught_by_the_type_check_alone(netlists, monkeypatch, name):
    # a rule-4 value emitted as its bare test is a bool wherever the test
    # ends in a comparison: equal to the int under ==, not an int
    monkeypatch.setattr(simulator_mod, "_cell_expr", partial(bare_test, simulator_mod._cell_expr))
    netlist = netlists[name]
    pairs = random_pairs(netlist, 60 if name.endswith("-ift") else 300)
    step, _ = compile_netlist(netlist)
    ref, _ = reference_compile(netlist)
    assert all(step(state, inputs) == ref(state, inputs) for state, inputs in pairs)
    assert first_disagreement(netlist, pairs) is not None
