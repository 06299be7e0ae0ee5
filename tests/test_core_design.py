"""Core design tests: every channel and bug the paper reports on CVA6."""

import pytest

from repro.designs import CoreConfig, build_core, isa, program_context, slot_pc
from repro.designs.variants import build_cva6_mul, build_fixed_core
from repro.mc import simulate_context
from repro.sim import Simulator


@pytest.fixture(scope="module")
def sim(core_design):
    return Simulator(core_design.netlist)


def run(design, sim, script, overrides, horizon=44):
    rows = simulate_context(sim, program_context(script, overrides, horizon=horizon))
    return [dict(zip(sim.observable_names, row)) for row in rows]


def visits(design, trace, pc):
    """[(cycle, {pls})] for instruction ``pc``."""
    rows = []
    for t, obs in enumerate(trace):
        seen = set()
        for name, pl in design.metadata.pls.items():
            for slot in pl.slots:
                if obs[slot.occ_signal] and obs[slot.pc_signal] == pc:
                    seen.add(name)
        if seen:
            rows.append((t, seen))
    return rows


def pl_cycles(rows, pl):
    return [t for t, seen in rows if pl in seen]


class TestBasicPipeline:
    def test_add_canonical_path(self, core_design, sim):
        word = isa.encode("ADD", rd=3, rs1=1, rs2=2)
        trace = run(core_design, sim, [("feed", (word,))], {"arf_w1": 5, "arf_w2": 7})
        rows = visits(core_design, trace, slot_pc(0))
        stages = [sorted(s) for _, s in rows]
        assert stages == [
            ["IF"],
            ["ID"],
            ["issue", "scbIss"],
            ["aluU", "scbIss"],
            ["scbFin"],
            ["scbCmt"],
        ]

    def test_add_result_committed_to_arf(self, core_design, sim):
        word = isa.encode("ADD", rd=3, rs1=1, rs2=2)
        run(core_design, sim, [("feed", (word,))], {"arf_w1": 5, "arf_w2": 7}, horizon=10)
        assert sim.state_dict()["arf_w3"] == 12

    def test_sub_and_logic_results(self, core_design, sim):
        for name, expected in (("SUB", (9 - 3) & 0xFF), ("XOR", 9 ^ 3), ("AND", 9 & 3), ("OR", 9 | 3)):
            word = isa.encode(name, rd=3, rs1=1, rs2=2)
            run(core_design, sim, [("feed", (word,))], {"arf_w1": 9, "arf_w2": 3}, horizon=10)
            assert sim.state_dict()["arf_w3"] == expected, name

    def test_x0_never_written(self, core_design, sim):
        word = isa.encode("ADD", rd=0, rs1=1, rs2=2)
        run(core_design, sim, [("feed", (word,))], {"arf_w1": 5, "arf_w2": 7}, horizon=10)
        assert sim.state_dict()["arf_w0"] == 0

    def test_commit_pc_strobe(self, core_design, sim):
        word = isa.encode("ADD", rd=3, rs1=1, rs2=2)
        trace = run(core_design, sim, [("feed", (word,))], {}, horizon=10)
        commits = [(t, obs["commit_pc"]) for t, obs in enumerate(trace) if obs["commit_fire"]]
        assert commits == [(6, slot_pc(0))]

    def test_back_to_back_alu_pipelines(self, core_design, sim):
        words = tuple(isa.encode("ADD", rd=0, rs1=1, rs2=2) for _ in range(3))
        trace = run(core_design, sim, [("feed", words)], {}, horizon=16)
        commits = [t for t, obs in enumerate(trace) if obs["commit_fire"]]
        assert commits == [6, 7, 8]  # one commit per cycle, no bubbles

    def test_raw_hazard_stalls(self, core_design, sim):
        first = isa.encode("ADD", rd=4, rs1=1, rs2=2)
        second = isa.encode("ADD", rd=5, rs1=4, rs2=2)  # reads rd of first
        trace = run(core_design, sim, [("feed", (first, second))], {}, horizon=20)
        rows = visits(core_design, trace, slot_pc(1))
        assert len(pl_cycles(rows, "ID")) > 1  # stalled in ID until commit


class TestDividerLatency:
    @pytest.mark.parametrize(
        "dividend,expected",
        [(0, 1), (1, 2), (2, 3), (4, 4), (8, 5), (16, 6), (64, 8), (128, 9)],
    )
    def test_unsigned_latency_formula(self, core_design, sim, dividend, expected):
        word = isa.encode("DIVU", rd=3, rs1=1, rs2=2)
        trace = run(core_design, sim, [("feed", (word,))], {"arf_w1": dividend, "arf_w2": 3})
        rows = visits(core_design, trace, slot_pc(0))
        assert len(pl_cycles(rows, "divU")) == expected

    def test_signed_negative_divisor_fixup(self, core_design, sim):
        base = isa.encode("DIVU", rd=3, rs1=1, rs2=2)
        signed = isa.encode("DIV", rd=3, rs1=1, rs2=2)
        overrides = {"arf_w1": 8, "arf_w2": 0x80}  # negative divisor
        t_unsigned = run(core_design, sim, [("feed", (base,))], overrides)
        t_signed = run(core_design, sim, [("feed", (signed,))], overrides)
        u = len(pl_cycles(visits(core_design, t_unsigned, slot_pc(0)), "divU"))
        s = len(pl_cycles(visits(core_design, t_signed, slot_pc(0)), "divU"))
        assert s == u + 1

    def test_latency_range_is_xlen_plus_2(self, core_design, sim):
        # 1..66 cycles at the paper's 64-bit scale; 1..10 at xlen=8 (SS VII-A1)
        latencies = set()
        for dividend in [0] + [1 << i for i in range(8)]:
            for divisor in (3, 0x80):  # positive and negative (fixup arm)
                word = isa.encode("DIV", rd=3, rs1=1, rs2=2)
                trace = run(
                    core_design, sim, [("feed", (word,))],
                    {"arf_w1": dividend, "arf_w2": divisor}, horizon=20,
                )
                rows = visits(core_design, trace, slot_pc(0))
                latencies.add(len(pl_cycles(rows, "divU")))
        assert latencies == set(range(1, 11))

    def test_quotient_value(self, core_design, sim):
        word = isa.encode("DIVU", rd=3, rs1=1, rs2=2)
        run(core_design, sim, [("feed", (word,))], {"arf_w1": 29, "arf_w2": 4}, horizon=20)
        assert sim.state_dict()["arf_w3"] == 29 // 4

    def test_remainder_value(self, core_design, sim):
        word = isa.encode("REMU", rd=3, rs1=1, rs2=2)
        run(core_design, sim, [("feed", (word,))], {"arf_w1": 29, "arf_w2": 4}, horizon=20)
        assert sim.state_dict()["arf_w3"] == 29 % 4

    def test_divide_by_zero_riscv_semantics(self, core_design, sim):
        word = isa.encode("DIVU", rd=3, rs1=1, rs2=2)
        run(core_design, sim, [("feed", (word,))], {"arf_w1": 9, "arf_w2": 0}, horizon=20)
        assert sim.state_dict()["arf_w3"] == 0xFF


class TestMultiplier:
    def test_baseline_fixed_latency(self, core_design, sim):
        for rs1 in (0, 7):
            word = isa.encode("MUL", rd=3, rs1=1, rs2=2)
            trace = run(core_design, sim, [("feed", (word,))], {"arf_w1": rs1, "arf_w2": 3})
            rows = visits(core_design, trace, slot_pc(0))
            assert len(pl_cycles(rows, "mulU")) == 2  # operand-independent

    def test_zero_skip_variant(self):
        design = build_cva6_mul()
        sim = Simulator(design.netlist)
        word = isa.encode("MUL", rd=3, rs1=1, rs2=2)
        fast = run(design, sim, [("feed", (word,))], {"arf_w1": 0, "arf_w2": 3})
        slow = run(design, sim, [("feed", (word,))], {"arf_w1": 5, "arf_w2": 3})
        assert len(pl_cycles(visits(design, fast, slot_pc(0)), "mulU")) == 1
        assert len(pl_cycles(visits(design, slow, slot_pc(0)), "mulU")) == 4

    def test_product_value(self, core_design, sim):
        word = isa.encode("MUL", rd=3, rs1=1, rs2=2)
        run(core_design, sim, [("feed", (word,))], {"arf_w1": 7, "arf_w2": 6}, horizon=12)
        assert sim.state_dict()["arf_w3"] == 42


class TestStoreLoadChannels:
    SW = isa.encode("SW", rs1=4, rs2=5)  # addr = r4 + 5
    LW = isa.encode("LW", rd=3, rs1=1, rs2=1)  # addr = r1 + 1

    def test_store_to_load_stall_on_offset_match(self, core_design, sim):
        trace = run(core_design, sim, [("feed", (self.SW, self.LW))], {"arf_w4": 0, "arf_w1": 0})
        rows = visits(core_design, trace, slot_pc(1))
        assert pl_cycles(rows, "LSQ") and pl_cycles(rows, "ldStall")

    def test_no_stall_on_offset_mismatch(self, core_design, sim):
        trace = run(core_design, sim, [("feed", (self.SW, self.LW))], {"arf_w4": 0, "arf_w1": 1})
        rows = visits(core_design, trace, slot_pc(1))
        assert not pl_cycles(rows, "LSQ")
        assert len(pl_cycles(rows, "ldFin")) == 1

    def test_store_path_shape(self, core_design, sim):
        trace = run(core_design, sim, [("feed", (self.SW,))], {"arf_w4": 0})
        rows = visits(core_design, trace, slot_pc(0))
        order = [pl_cycles(rows, pl)[0] for pl in ("specSTB", "comSTB", "memRq")]
        assert order == sorted(order)

    def test_store_drain_stalls_behind_younger_load(self, core_design, sim):
        # the novel ST_comSTB channel: a younger load with a different
        # page offset takes the single memory port and delays the drain
        lw2 = isa.encode("LW", rd=7, rs1=2, rs2=1)
        script = [("feed", (self.SW, self.LW, lw2))]
        contend = run(core_design, sim, script, {"arf_w4": 0, "arf_w1": 1, "arf_w2": 1})
        matched = run(core_design, sim, script, {"arf_w4": 0, "arf_w1": 1, "arf_w2": 4})
        drain_contend = pl_cycles(visits(core_design, contend, slot_pc(0)), "memRq")[0]
        drain_matched = pl_cycles(visits(core_design, matched, slot_pc(0)), "memRq")[0]
        assert drain_contend > drain_matched

    def test_store_data_reaches_memory(self, core_design, sim):
        run(core_design, sim, [("feed", (self.SW,))], {"arf_w4": 0, "arf_w5": 0xAB}, horizon=16)
        # addr = 0 + 5 -> memory word 5 mod 4 = 1
        assert sim.state_dict()["amem_w1"] == 0xAB

    def test_load_reads_drained_value(self, core_design, sim):
        trace = run(
            core_design, sim, [("feed", (self.SW, self.LW))],
            {"arf_w4": 0, "arf_w1": 0, "arf_w5": 0x5C}, horizon=30,
        )
        # matching offsets: the load stalls until the store drains, then
        # reads the freshly written value
        assert sim.state_dict()["arf_w3"] == 0x5C


class TestControlFlow:
    def test_taken_branch_flushes_younger(self, core_design, sim):
        beq = isa.encode("BEQ", rs1=1, rs2=2, rd=0)
        add = isa.encode("ADD", rd=3, rs1=1, rs2=2)
        taken = run(core_design, sim, [("feed", (beq, add))], {"arf_w1": 5, "arf_w2": 5})
        rows = visits(core_design, taken, slot_pc(1))
        assert not pl_cycles(rows, "scbCmt")  # squashed

    def test_not_taken_branch_keeps_younger(self, core_design, sim):
        # target = pc + rs2-field = 8 + 2: misaligned, but the buggy design
        # only raises the exception at the branch's own commit -- on the
        # not-taken path the younger ADD still gets squashed by exc_flush,
        # so use an aligned target (field value 4) here
        beq = isa.encode("BEQ", rs1=1, rs2=4, rd=0)
        add = isa.encode("ADD", rd=3, rs1=1, rs2=2)
        trace = run(core_design, sim, [("feed", (beq, add))], {"arf_w1": 5, "arf_w2": 6, "arf_w4": 6})
        rows = visits(core_design, trace, slot_pc(1))
        assert pl_cycles(rows, "scbCmt")

    def test_jal_always_flushes(self, core_design, sim):
        jal = isa.encode("JAL", rd=3, rs1=0, rs2=4)
        add = isa.encode("ADD", rd=4, rs1=1, rs2=2)
        trace = run(core_design, sim, [("feed", (jal, add))], {})
        rows = visits(core_design, trace, slot_pc(1))
        assert not pl_cycles(rows, "scbCmt")

    def test_jalr_mispredict_depends_on_rs1(self, core_design, sim):
        jalr = isa.encode("JALR", rd=3, rs1=1, rs2=0)
        add = isa.encode("ADD", rd=4, rs1=1, rs2=2)
        # rs1 = pc+4 = 8: predicted fall-through, no flush
        hit = run(core_design, sim, [("feed", (jalr, add))], {"arf_w1": 8})
        miss = run(core_design, sim, [("feed", (jalr, add))], {"arf_w1": 16})
        assert pl_cycles(visits(core_design, hit, slot_pc(1)), "scbCmt")
        assert not pl_cycles(visits(core_design, miss, slot_pc(1)), "scbCmt")

    def test_ecall_raises_exception(self, core_design, sim):
        ecall = isa.encode("ECALL")
        trace = run(core_design, sim, [("feed", (ecall,))], {})
        rows = visits(core_design, trace, slot_pc(0))
        assert pl_cycles(rows, "scbExcp")
        assert not pl_cycles(rows, "scbCmt")


class TestCva6Bugs:
    """SS VII-B2: the four CVA6 bugs, present by default and fixed by config."""

    def _exc_path(self, design, sim, word, overrides):
        trace = run(design, sim, [("feed", (word,))], overrides)
        rows = visits(design, trace, slot_pc(0))
        return bool(pl_cycles(rows, "scbExcp"))

    def test_jalr_never_excepts_on_buggy_core(self, core_design, sim):
        jalr = isa.encode("JALR", rd=3, rs1=1, rs2=0)
        assert not self._exc_path(core_design, sim, jalr, {"arf_w1": 0x12})  # misaligned

    def test_jalr_excepts_on_fixed_core(self):
        design = build_fixed_core()
        sim = Simulator(design.netlist)
        jalr = isa.encode("JALR", rd=3, rs1=1, rs2=0)
        assert self._exc_path(design, sim, jalr, {"arf_w1": 0x12})

    def test_jal_checks_only_2byte_on_buggy_core(self, core_design, sim):
        # target = pc(4) + 2 = 6: 2-byte aligned but not 4-byte aligned
        jal = isa.encode("JAL", rd=3, rs1=0, rs2=2)
        assert not self._exc_path(core_design, sim, jal, {})
        jal_odd = isa.encode("JAL", rd=3, rs1=0, rs2=1)  # odd target
        assert self._exc_path(core_design, sim, jal_odd, {})

    def test_jal_4byte_checked_on_fixed_core(self):
        design = build_fixed_core()
        sim = Simulator(design.netlist)
        jal = isa.encode("JAL", rd=3, rs1=0, rs2=2)
        assert self._exc_path(design, sim, jal, {})

    def test_branch_excepts_regardless_of_outcome_on_buggy_core(self, core_design, sim):
        beq = isa.encode("BEQ", rs1=1, rs2=2, rd=0)  # target pc+2: misaligned
        # not taken (r1 != r2): the buggy core still raises the exception
        assert self._exc_path(core_design, sim, beq, {"arf_w1": 1, "arf_w2": 9})

    def test_branch_exception_only_when_taken_on_fixed_core(self):
        design = build_fixed_core()
        sim = Simulator(design.netlist)
        beq = isa.encode("BEQ", rs1=1, rs2=2, rd=0)
        assert not self._exc_path(design, sim, beq, {"arf_w1": 1, "arf_w2": 9})
        assert self._exc_path(design, sim, beq, {"arf_w1": 1, "arf_w2": 1})

    def test_scb_underutilized_by_one_on_buggy_core(self, core_design, sim):
        # a long DIV at the head plus fills: the buggy core holds at most 3
        # concurrently active entries (SS VII-B2's counter-width bug)
        div = isa.encode("DIV", rd=6, rs1=4, rs2=5)
        fill = isa.encode("ADD", rd=0, rs1=0, rs2=0)
        trace = run(
            core_design, sim, [("feed", (div, fill, fill, fill))],
            {"arf_w4": 128, "arf_w5": 3},
        )
        assert max(obs["scb_used"] for obs in trace) == 3

    def test_scb_fully_used_on_fixed_core(self):
        design = build_fixed_core()
        sim = Simulator(design.netlist)
        div = isa.encode("DIV", rd=6, rs1=4, rs2=5)
        fill = isa.encode("ADD", rd=0, rs1=0, rs2=0)
        trace = run(
            design, sim, [("feed", (div, fill, fill, fill))],
            {"arf_w4": 128, "arf_w5": 3},
        )
        assert max(obs["scb_used"] for obs in trace) == 4


class TestStallChannels:
    def test_id_stall_behind_full_scoreboard(self, core_design, sim):
        div = isa.encode("DIV", rd=6, rs1=4, rs2=5)
        fill = isa.encode("ADD", rd=0, rs1=0, rs2=0)
        add = isa.encode("ADD", rd=3, rs1=1, rs2=2)
        slow = run(
            core_design, sim, [("feed", (div, fill, fill, add))],
            {"arf_w4": 128, "arf_w5": 3},
        )
        fast = run(
            core_design, sim, [("feed", (div, fill, fill, add))],
            {"arf_w4": 0, "arf_w5": 3},
        )
        slow_id = len(pl_cycles(visits(core_design, slow, slot_pc(3)), "ID"))
        fast_id = len(pl_cycles(visits(core_design, fast, slot_pc(3)), "ID"))
        assert slow_id > fast_id  # ID stall is a function of DIV's operand

    def test_commit_stall_behind_div(self, core_design, sim):
        div = isa.encode("DIV", rd=6, rs1=4, rs2=5)
        add = isa.encode("ADD", rd=3, rs1=1, rs2=2)
        slow = run(core_design, sim, [("feed", (div, add))], {"arf_w4": 128, "arf_w5": 3})
        fast = run(core_design, sim, [("feed", (div, add))], {"arf_w4": 0, "arf_w5": 3})
        slow_fin = len(pl_cycles(visits(core_design, slow, slot_pc(1)), "scbFin"))
        fast_fin = len(pl_cycles(visits(core_design, fast, slot_pc(1)), "scbFin"))
        assert slow_fin > fast_fin  # in-order commit holds the ADD at scbFin

    def test_struct_stall_on_div_unit(self, core_design, sim):
        div = isa.encode("DIV", rd=6, rs1=4, rs2=5)
        div2 = isa.encode("DIV", rd=3, rs1=1, rs2=2)
        trace = run(core_design, sim, [("feed", (div, div2))], {"arf_w4": 128, "arf_w5": 3, "arf_w1": 1, "arf_w2": 1})
        rows = visits(core_design, trace, slot_pc(1))
        assert len(pl_cycles(rows, "ID")) > 2


class TestQuiesceSignal:
    def test_quiesce_after_program_drains(self, core_design, sim):
        word = isa.encode("ADD", rd=3, rs1=1, rs2=2)
        trace = run(core_design, sim, [("feed", (word,))], {}, horizon=14)
        assert trace[0]["pipe_quiesce"] == 1  # empty at reset
        assert trace[3]["pipe_quiesce"] == 0  # instruction in flight
        assert trace[-1]["pipe_quiesce"] == 1  # drained

    def test_candidate_pls_never_occupied(self, core_design, sim):
        div = isa.encode("DIV", rd=6, rs1=4, rs2=5)
        sw = isa.encode("SW", rs1=4, rs2=5)
        trace = run(core_design, sim, [("feed", (div, sw))], {"arf_w4": 9})
        for name, pl in core_design.metadata.candidate_pls.items():
            for slot in pl.slots:
                assert not any(obs[slot.occ_signal] for obs in trace), name
