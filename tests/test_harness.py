"""Context-provider and program-script tests."""

import pytest

from repro.designs import (
    ContextFamilyConfig,
    CoreContextProvider,
    isa,
    program_context,
    slot_pc,
)
from repro.designs.harness import TaintSpec, default_value_set, small_value_set
from repro.mc import Context, simulate_context
from repro.rtl import Module, elaborate
from repro.sim import Simulator

PORT = ("in_valid", "in_instr", "taint_pc", "taint_rs1", "taint_rs2",
        "taint_intro", "taint_flush")


def port_netlist(ready_from=0):
    """A core's stimulus port that observes its own inputs: ``fetch_ready``
    rises at cycle ``ready_from`` and ``pipe_quiesce`` is always high."""
    m = Module("port")
    for name in PORT:
        m.name_signal(name, m.input(name, 16))
    count = m.reg("count", 4, reset=0)
    count.next = count.q + 1
    m.name_signal("fetch_ready", m.const(ready_from, 4).ult(count.q + 1))
    m.name_signal("pipe_quiesce", m.const(1, 1))
    return elaborate(m)


def columns(context, ready_from=0):
    """Each of the port's inputs, per cycle, as ``context`` drives it."""
    sim = Simulator(port_netlist(ready_from))
    rows = simulate_context(sim, context)
    return {name: [row[sim.observable_index(name)] for row in rows] for name in PORT}


class TestDriver:
    def test_replays_until_accepted(self):
        first, second = isa.encode("ADD", rd=3, rs1=1, rs2=2), isa.encode("SUB")
        context = program_context([("feed", (first, second))], horizon=6)
        # fetch_ready is low for cycles 0 and 1: the first word is driven
        # until cycle 2 accepts it, and the second word on cycle 3
        got = columns(context, ready_from=2)
        assert got["in_instr"] == [first, first, first, second, 0, 0]
        assert got["in_valid"] == [1, 1, 1, 1, 0, 0]

    def test_idle_phase(self):
        word = isa.encode("ADD")
        context = program_context([("idle", 2), ("feed", (word,))], horizon=4)
        assert columns(context)["in_valid"] == [0, 0, 1, 0]

    def test_quiesce_requires_waited_cycle(self):
        # pipe_quiesce is high from reset, yet the wait takes one cycle:
        # its release is read from a row of its own
        word = isa.encode("ADD")
        context = program_context([("wait_quiesce",), ("feed", (word,))], horizon=3)
        assert columns(context)["in_valid"] == [0, 1, 0]

    def test_flush_pulse(self):
        context = program_context([("flush",), ("idle", 1)], horizon=3, instrumented=True)
        assert columns(context)["taint_flush"] == [1, 0, 0]
        plain = program_context([("flush",), ("idle", 1)], horizon=3)
        assert columns(plain)["taint_flush"] == [0, 0, 0]

    def test_taint_inputs(self):
        spec = TaintSpec(pc=12, rs1=True)
        word = isa.encode("ADD")
        context = program_context(
            [("idle", 1), ("feed", (word,))], horizon=3, taint=spec, instrumented=True
        )
        got = columns(context)
        # the taint constants hold on every cycle, fed words included
        assert got["taint_pc"] == [12] * 3
        assert got["taint_rs1"] == [1] * 3 and got["taint_rs2"] == [0] * 3
        assert got["taint_intro"] == [1] * 3
        assert got["in_valid"] == [0, 1, 0]

    def test_uninstrumented_omits_controls(self):
        context = program_context([("idle", 1)], horizon=2)
        assert context.idle == ()
        assert columns(context)["taint_intro"] == [0, 0]

    def test_unknown_item_rejected(self):
        with pytest.raises(ValueError, match="unknown script item"):
            program_context([("feed", (1,)), ("bogus",)], horizon=4)
        with pytest.raises(ValueError, match="unknown release"):
            Context.scripted({}, [({}, "commit_fire")], horizon=4)


class TestValueSets:
    def test_default_covers_every_msb_position(self):
        values = default_value_set(8)
        assert 0 in values and 255 in values
        for i in range(8):
            assert any(v.bit_length() == i + 1 for v in values)

    def test_small_set_has_offset_variety(self):
        values = small_value_set(8)
        offsets = {v & 3 for v in values}
        assert len(offsets) >= 3


class TestFamilies:
    @pytest.fixture(scope="class")
    def provider(self):
        return CoreContextProvider(
            xlen=8,
            config=ContextFamilyConfig(
                horizon=40, neighbors=("DIV", "SW"),
                iuv_values=(0, 1, 255), neighbor_values=(0, 1),
            ),
        )

    def test_group_labels(self, provider):
        groups = provider.mupath_groups("ADD")
        labels = {g.label for g in groups}
        assert labels == {"solo", "preceded", "followed", "deep2", "scbfull"}

    def test_iuv_placement(self, provider):
        groups = {g.label: g for g in provider.mupath_groups("ADD")}
        assert groups["solo"].iuv_pc == slot_pc(0)
        assert groups["preceded"].iuv_pc == slot_pc(1)
        assert groups["scbfull"].iuv_pc == slot_pc(3)

    def test_all_groups_complete_without_cap(self, provider):
        assert all(g.complete for g in provider.mupath_groups("LW"))

    def test_cap_marks_incomplete(self):
        provider = CoreContextProvider(
            xlen=8,
            config=ContextFamilyConfig(
                horizon=40, neighbors=("DIV",), max_contexts=2,
                iuv_values=(0, 1, 2), neighbor_values=(0, 1),
            ),
        )
        groups = provider.mupath_groups("ADD")
        assert any(not g.complete for g in groups)
        assert all(len(g.contexts) <= 2 for g in groups)

    def test_taint_groups_intrinsic_requires_same_instruction(self, provider):
        assert provider.taint_groups("ADD", "DIV", "intrinsic", "rs1") == []
        groups = provider.taint_groups("DIV", "DIV", "intrinsic", "rs1")
        assert groups and groups[0].taint_pc == groups[0].iuv_pc

    def test_taint_groups_dynamic_placements(self, provider):
        older = provider.taint_groups("ADD", "DIV", "dynamic_older", "rs1")
        assert all(g.taint_pc < g.iuv_pc for g in older)
        younger = provider.taint_groups("SW", "LW", "dynamic_younger", "rs1")
        assert all(g.taint_pc > g.iuv_pc for g in younger)

    def test_taint_labels_machine_parsable(self, provider):
        groups = provider.taint_groups("ADD", "DIV", "dynamic_older", "rs2")
        label = groups[0].contexts[0].label
        parts = label.split("|")
        assert len(parts) == 3
        v1, v2 = parts[1].split(",")
        int(v1), int(v2)

    def test_static_script_includes_flush(self, provider):
        groups = provider.taint_groups("ADD", "DIV", "static", "rs1")
        assert groups and groups[0].label.startswith("static")

    def test_bad_assumption_rejected(self, provider):
        with pytest.raises(ValueError):
            provider.taint_groups("ADD", "DIV", "sideways", "rs1")
