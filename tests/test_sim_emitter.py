"""Differential test of the step-function emitter.

``compile_netlist`` emits constants as literals and inlines single-use
cells into their consumers.  ``reference_compile`` below is the plain
emitter it replaced -- one local per node, in topological order -- kept
as the reference: both must give identical ``(next_state, obs)`` on
every design and every (state, input) pair drawn here.
"""

import glob
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.simulator as simulator_mod
from repro.core.synthlc import instrument_design
from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
from repro.designs.cache import CacheContextProvider, build_cache
from repro.designs.core import CoreConfig
from repro.designs.variants import build_cva6_mul, build_cva6_op
from repro.fuzz import build_design, sample_spec
from repro.fuzz.campaign import load_reproducer
from repro.mc.enumerative import simulate_context
from repro.rtl import Module, elaborate
from repro.sim import Simulator
from repro.sim.simulator import compile_netlist

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "fuzz_corpus", "*.json")))
# the e2e benchmark's smoke-scale upath family
SMOKE_FAMILY = ContextFamilyConfig(
    horizon=32, neighbors=("DIV",), iuv_values=(0, 15), neighbor_values=(0,),
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
    """Random (state, inputs) tuples, plus all-zero and all-ones ones."""
    rng = random.Random(seed)
    reg_widths = [reg.width for reg, _ in netlist.registers]
    input_widths = [node.width for node in netlist.inputs]
    pairs = [
        (tuple(0 for _ in reg_widths), tuple(0 for _ in input_widths)),
        (tuple((1 << w) - 1 for w in reg_widths), tuple((1 << w) - 1 for w in input_widths)),
    ]
    for _ in range(count):
        pairs.append((
            tuple(rng.getrandbits(w) for w in reg_widths),
            tuple(rng.getrandbits(w) for w in input_widths),
        ))
    return pairs


def reached_pairs(netlist, contexts):
    """Every (state, inputs) a Simulator steps while driving ``contexts``."""
    pairs = {}
    sim = Simulator(netlist)
    step = sim._step_fn

    def recording(state, inputs):
        pairs[state, inputs] = None
        return step(state, inputs)

    sim._step_fn = recording
    for context in dict.fromkeys(contexts):
        simulate_context(sim, context)
    return list(pairs)


def first_disagreement(netlist, pairs):
    """The first pair on which ``compile_netlist`` and the reference differ."""
    step, names = compile_netlist(netlist)
    ref, ref_names = reference_compile(netlist)
    assert names == ref_names
    for state, inputs in pairs:
        got, want = step(state, inputs), ref(state, inputs)
        if got != want:
            return state, inputs, got, want
    return None


@pytest.fixture(scope="module")
def netlists():
    designs = {
        "core": build_core(CoreConfig(xlen=4)),
        "cache": build_cache(),
        "cva6-mul": build_cva6_mul(),
        "cva6-op": build_cva6_op(),
    }
    out = {name: design.netlist for name, design in designs.items()}
    for name, design in designs.items():
        out[name + "-ift"] = instrument_design(design).netlist
    return out


@pytest.mark.parametrize("name", [
    "core", "cache", "cva6-mul", "cva6-op",
    "core-ift", "cache-ift", "cva6-mul-ift", "cva6-op-ift",
])
def test_design_matches_reference(netlists, name):
    netlist = netlists[name]
    pairs = random_pairs(netlist, 60 if name.endswith("-ift") else 300)
    assert first_disagreement(netlist, pairs) is None


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: os.path.basename(p)[:-5])
def test_fuzz_corpus_design_matches_reference(path):
    netlist = build_design(load_reproducer(path)).netlist
    assert first_disagreement(netlist, random_pairs(netlist, 200)) is None


def test_corpus_is_complete():
    assert len(CORPUS) == 16


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), pair_seed=st.integers(0, 1000))
def test_random_generated_design_matches_reference(seed, pair_seed):
    netlist = build_design(sample_spec(seed)).netlist
    assert first_disagreement(netlist, random_pairs(netlist, 40, pair_seed)) is None


def test_smoke_upath_family_pairs_match_reference(netlists):
    core = CoreContextProvider(xlen=4, config=SMOKE_FAMILY)
    core_contexts = [c for g in core.mupath_groups("ADD") for c in g.contexts]
    cache_contexts = [
        c for g in CacheContextProvider(horizon=40).mupath_groups("LD") for c in g.contexts
    ]
    for name, contexts in (("core", core_contexts), ("cache", cache_contexts)):
        pairs = reached_pairs(netlists[name], contexts)
        assert len(pairs) > 100
        assert first_disagreement(netlists[name], pairs) is None


def test_deep_single_use_chain_compiles_and_matches():
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
    netlist = elaborate(m)
    assert first_disagreement(netlist, random_pairs(netlist, 50)) is None


def test_planted_mux_arm_swap_on_inlined_cells_is_caught(netlists, monkeypatch):
    real = simulator_mod._cell_expr

    def swap_inlined_arms(node, args):
        # inlined arguments are the parenthesized ones
        if node.op == "mux" and any(arm.startswith("(") for arm in args[1:]):
            sel, hi, lo = args
            return real(node, (sel, lo, hi))
        return real(node, args)

    monkeypatch.setattr(simulator_mod, "_cell_expr", swap_inlined_arms)
    netlist = netlists["core"]
    assert first_disagreement(netlist, random_pairs(netlist, 300)) is not None
