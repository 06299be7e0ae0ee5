"""Unit tests: module builder, registers, memories, elaboration."""

import pytest

from repro.rtl import (
    Module,
    WidthError,
    comb_connected,
    comb_fanin_inputs,
    comb_fanin_registers,
    connectivity_matrix,
    elaborate,
    registers_feeding_next_state,
)
from repro.sim import Simulator


class TestRegisters:
    def test_default_next_holds(self):
        m = Module("t")
        r = m.reg("r", 4, reset=9)
        n = elaborate(m)
        sim = Simulator(n)
        assert sim.state_dict()["r"] == 9
        sim.step({})
        assert sim.state_dict()["r"] == 9

    def test_next_width_checked(self):
        m = Module("t")
        r = m.reg("r", 4)
        with pytest.raises(WidthError):
            r.next = m.input("a", 5)

    def test_next_coerces_int(self):
        m = Module("t")
        r = m.reg("r", 4)
        r.next = 7
        sim = Simulator(elaborate(m))
        sim.step({})
        assert sim.state_dict()["r"] == 7

    def test_reset_masked(self):
        m = Module("t")
        r = m.reg("r", 4, reset=0x1F)
        assert r.reset == 0xF


class TestMemory:
    def test_read_after_write(self):
        m = Module("t")
        mem = m.memory("mem", 8, 4)
        we = m.input("we", 1)
        addr = m.input("addr", 2)
        data = m.input("data", 8)
        mem.write(we, addr, data)
        m.name_signal("rd", mem.read(addr))
        sim = Simulator(elaborate(m))
        obs = sim.step({"we": 1, "addr": 2, "data": 0xAB})
        assert obs["rd"] == 0  # write is synchronous
        obs = sim.step({"we": 0, "addr": 2, "data": 0})
        assert obs["rd"] == 0xAB

    def test_write_priority_last_wins(self):
        m = Module("t")
        mem = m.memory("mem", 8, 2)
        one = m.const(1, 1)
        mem.write(one, m.const(0, 1), m.const(5, 8))
        mem.write(one, m.const(0, 1), m.const(9, 8))
        sim = Simulator(elaborate(m))
        sim.step({})
        assert sim.state_dict()["mem_w0"] == 9

    def test_depth_validation(self):
        m = Module("t")
        with pytest.raises(WidthError):
            m.memory("mem", 8, 0)

    def test_reset_words(self):
        m = Module("t")
        m.memory("mem", 8, 2, reset_words=[3, 7])
        sim = Simulator(elaborate(m))
        state = sim.state_dict()
        assert state["mem_w0"] == 3 and state["mem_w1"] == 7


class TestNamedSignals:
    def test_duplicate_rejected(self):
        m = Module("t")
        a = m.input("a", 1)
        m.name_signal("x", a)
        with pytest.raises(ValueError):
            m.name_signal("x", a)

    def test_lookup(self):
        m = Module("t")
        a = m.input("a", 1)
        m.name_signal("x", a)
        assert m.signal("x") is a

    def test_duplicate_output_rejected(self):
        m = Module("t")
        a = m.input("a", 1)
        m.output("o", a)
        with pytest.raises(ValueError):
            m.output("o", a)


class TestElaboration:
    def test_stats(self):
        m = Module("t")
        a = m.input("a", 4)
        r = m.reg("r", 4)
        r.next = a + r.q
        n = elaborate(m)
        assert n.num_input_bits == 4
        assert n.num_state_bits == 4
        assert n.num_cells >= 1

    def test_dead_code_eliminated(self):
        m = Module("t")
        a = m.input("a", 4)
        _dead = (a + 1) * 3  # never referenced by a root
        r = m.reg("r", 4)
        r.next = a
        n = elaborate(m)
        ops = [node.op for node in n.order]
        assert "mul" not in ops

    def test_topological_order(self):
        m = Module("t")
        a = m.input("a", 4)
        b = (a + 1) ^ (a + 2)
        m.name_signal("b", b)
        n = elaborate(m)
        position = {node.uid: i for i, node in enumerate(n.order)}
        for node in n.order:
            for arg in node.args:
                assert position[arg.uid] < position[node.uid]

    def test_diamond_reconvergence(self):
        m = Module("t")
        a = m.input("a", 4)
        shared = a + 1
        m.name_signal("x", (shared & 3) | (shared ^ 5))
        n = elaborate(m)  # must not raise
        assert n.signal("x").width == 4

    def test_reset_state(self):
        m = Module("t")
        m.reg("r1", 4, reset=3)
        m.reg("r2", 2, reset=1)
        n = elaborate(m)
        assert n.reset_state() == {"r1": 3, "r2": 1}


class TestAnalysis:
    def _pipeline(self):
        m = Module("p")
        a = m.input("a", 4)
        r1 = m.reg("r1", 4)
        r2 = m.reg("r2", 4)
        r3 = m.reg("r3", 4)
        r1.next = a
        r2.next = r1.q + 1
        r3.next = r2.q + 1
        m.name_signal("s1", r1.q.eq(0))
        m.name_signal("s2", r2.q.eq(0))
        m.name_signal("s3", r3.q.eq(0))
        return elaborate(m)

    def test_fanin_registers(self):
        n = self._pipeline()
        assert comb_fanin_registers(n.signal("s2")) == {"r2"}

    def test_fanin_inputs(self):
        n = self._pipeline()
        assert comb_fanin_inputs(n.signal("s1")) == frozenset()

    def test_registers_feeding_next_state(self):
        n = self._pipeline()
        assert registers_feeding_next_state(n, "r2") == {"r1"}
        with pytest.raises(KeyError):
            registers_feeding_next_state(n, "nope")

    def test_comb_connected_one_step(self):
        n = self._pipeline()
        assert comb_connected(n, "s1", "s2")  # r1 feeds r2's next state
        assert not comb_connected(n, "s1", "s3")  # two registers away

    def test_connectivity_matrix(self):
        n = self._pipeline()
        matrix = connectivity_matrix(n, ["s1", "s2", "s3"])
        assert "s2" in matrix["s1"]
        assert "s3" not in matrix["s1"]
        assert "s3" in matrix["s2"]
        # self-influence through the shared register support
        assert "s1" in matrix["s1"]
