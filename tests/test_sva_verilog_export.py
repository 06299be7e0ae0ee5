"""SVA rendering and Verilog export tests."""

from repro.props import (
    ConsecutiveRevisit,
    ConsecutiveRunLength,
    Eventually,
    NonConsecutiveRevisit,
    Query,
    Sequence,
    VisitedCover,
    all_of,
    eq,
    sig,
)
from repro.props.sva import render_expr, render_property_file, render_query
from repro.rtl import Module, elaborate, mux
from repro.rtl.verilog import netlist_to_verilog


class TestSvaExpr:
    def test_sig(self):
        assert render_expr(sig("pl_IF_occ")) == "pl_IF_occ"

    def test_eq(self):
        assert render_expr(eq("pc", 4)) == "(pc == 4)"

    def test_not_and_or(self):
        expr = ~sig("a") & (sig("b") | sig("c"))
        assert render_expr(expr) == "!a && (b || c)"

    def test_empty_and(self):
        assert render_expr(all_of()) == "1'b1"


class TestSvaProps:
    def test_eventually(self):
        text = render_query(Query("r", Eventually(sig("x"))))
        assert "cover property" in text and "s_eventually" in text

    def test_sequence_uses_hash_hash_one(self):
        text = render_query(Query("e", Sequence(sig("a"), sig("b"))))
        assert "##1" in text

    def test_visited_cover_matches_paper_template(self):
        # pl_0_dom_pl_1: cover (!pl_0_visited & pl_1_visited)
        prop = VisitedCover([sig("pl_1")], [sig("pl_0")])
        text = render_query(Query("pl_0_dom_pl_1", prop))
        assert "visited(pl_1)" in text and "!visited(pl_0)" in text

    def test_assumes_render_first(self):
        query = Query("q", Eventually(sig("x")), assumes=(~sig("y"),))
        text = render_query(query)
        lines = text.splitlines()
        assert "assume property" in lines[0]
        assert "cover property" in lines[1]

    def test_revisit_shapes(self):
        assert "[*1:$]" in render_query(Query("n", NonConsecutiveRevisit(sig("p"))))
        assert "[*3]" in render_query(Query("l", ConsecutiveRunLength(sig("p"), 3)))
        assert "##1" in render_query(Query("c", ConsecutiveRevisit(sig("p"))))

    def test_property_file(self):
        text = render_property_file(
            [Query("a", Eventually(sig("x"))), Query("b", Eventually(sig("y")))]
        )
        assert text.count("cover property") == 2

    def test_identifier_sanitization(self):
        text = render_query(Query("plset_{a,b}", Eventually(sig("x"))))
        assert "{" not in text.splitlines()[-1].split(":")[0]


class TestVerilogExport:
    def _counter(self):
        m = Module("counter")
        en = m.input("en", 1)
        c = m.reg("count", 4, reset=3)
        c.next = mux(en, c.q + 1, c.q)
        m.name_signal("at_max", c.q.eq(15))
        m.output("value", c.q)
        return elaborate(m)

    def test_module_structure(self):
        text = netlist_to_verilog(self._counter())
        assert text.startswith("module counter (")
        assert "input wire en" in text
        assert "output wire [3:0] value" in text
        assert "always @(posedge clk)" in text
        assert text.rstrip().endswith("endmodule")

    def test_reset_values(self):
        text = netlist_to_verilog(self._counter())
        assert "count <= 4'd3;" in text

    def test_named_signal_exported(self):
        text = netlist_to_verilog(self._counter())
        assert "sig_at_max" in text

    def test_every_op_renders(self):
        m = Module("allops")
        a = m.input("a", 4)
        b = m.input("b", 4)
        from repro.rtl import cat, redand, redor

        exprs = [
            a & b, a | b, a ^ b, ~a, a + b, a - b, a * b,
            (a.eq(b)), (a.ult(b)), a << 1, a >> 2, mux(a[0], a, b),
            cat(a, b), a[1:3], redor(a), redand(a),
        ]
        for i, expr in enumerate(exprs):
            m.name_signal("e%d" % i, expr)
        text = netlist_to_verilog(elaborate(m))
        for needle in ("&", "|", "^", "~", "+", "-", "*", "==", "<", "<<",
                       ">>", "?", "{", "["):
            assert needle in text, needle

    def test_core_design_exports(self, core_design):
        text = netlist_to_verilog(core_design.netlist)
        assert "module cva6ish_core" in text
        assert "scb0_state" in text
        # every register appears in the clocked block
        for reg, _ in core_design.netlist.registers:
            assert "%s <=" % reg.name in text
