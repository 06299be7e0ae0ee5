"""The CVA6-Cache case-study DUV: L1 data cache + cache controller.

A width-scaled model of the cache the paper verifies separately from the
core (SS VII-A2): 4-way set-associative, no-write-allocate, with tag
banks, two data banks (ways 0-1 and 2-3), a write buffer, a single MSHR,
and a shared port to the AXI-like backing memory.  The request interface
(one outstanding request, PC-tagged per the paper's 9 added cache PCRs)
is driven by the verification environment.

Channels this design exhibits, matching SS VII-A2:

* ``ST_wBVld`` (Fig. 5): a store in the write buffer accesses one of the
  two data banks on a hit -- decision destinations {wRTag, wr$[way/2]} on
  hit versus {wRTag} on a miss, as a function of the store's own address
  (intrinsic) and of *static* earlier loads that allocated the line (the
  cache is no-write-allocate, so earlier stores never create hits);
* dynamic contention on the AXI port between a draining write buffer and
  a miss fill;
* write-buffer address matching stalls for loads;
* **non-consecutive revisits** (SS VII-A2 (ii)): a missing load visits the
  tag-read PL, leaves for MSHR/AXI/fill, and replays the lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..rtl.module import Module
from ..rtl.netlist import elaborate
from ..rtl.nodes import mux
from ..core.pl import DesignMetadata, MicroFsm, PerformingLocation, PlSlot
from ..mc.enumerative import Context
from .harness import ContextGroup, TaintSpec, slot_pc, taint_inputs

__all__ = [
    "CacheConfig",
    "CacheDesign",
    "build_cache",
    "cache_context",
    "CacheContextProvider",
]


@dataclass(frozen=True)
class CacheConfig:
    xlen: int = 8
    pc_bits: int = 8
    sets: int = 4
    ways: int = 4
    axi_latency: int = 2

    @property
    def set_bits(self):
        return max(1, (self.sets - 1).bit_length())

    @property
    def tag_bits(self):
        return self.xlen - self.set_bits

    @property
    def way_bits(self):
        return max(1, (self.ways - 1).bit_length())


@dataclass
class CacheDesign:
    netlist: object
    metadata: DesignMetadata
    config: CacheConfig


# controller FSM states
C_IDLE, C_LOOKUP, C_RESP, C_MSHR, C_AXI, C_FILL, C_STBUF, C_WTAG = range(8)


def build_cache(config: Optional[CacheConfig] = None) -> CacheDesign:
    cfg = config or CacheConfig()
    X, P = cfg.xlen, cfg.pc_bits
    SB, TB, WB = cfg.set_bits, cfg.tag_bits, cfg.way_bits
    m = Module("cva6_cache")

    req_valid = m.input("req_valid", 1)
    req_is_store = m.input("req_is_store", 1)
    req_addr = m.input("req_addr", X)
    req_data = m.input("req_data", X)
    req_pc_in = m.input("req_pc", P)
    taint_pc = m.input("taint_pc", P)
    taint_rs1 = m.input("taint_rs1", 1)  # rs1 == address operand
    taint_rs2 = m.input("taint_rs2", 1)  # rs2 == data operand

    state = m.reg("cc_state", 3, reset=C_IDLE)
    r_pc = m.reg("cc_pc", P)
    r_addr = m.reg("cc_addr", X)  # address operand register (taint target)
    r_data = m.reg("cc_data", X)  # data operand register
    r_is_store = m.reg("cc_is_store", 1)
    r_way = m.reg("cc_way", WB)
    r_st_hit = m.reg("cc_st_hit", 1)  # store lookup outcome, latched at wBVld
    axi_cnt = m.reg("axi_cnt", 3)

    wbuf_v = m.reg("wbuf_v", 1)
    wbuf_pc = m.reg("wbuf_pc", P)
    wbuf_addr = m.reg("wbuf_addr", X)
    wbuf_data = m.reg("wbuf_data", X)
    wdrain_v = m.reg("wdrain_v", 1)  # write drain occupying the AXI port
    wdrain_pc = m.reg("wdrain_pc", P)
    wdrain_addr = m.reg("wdrain_addr", X)
    wdrain_data = m.reg("wdrain_data", X)
    wdrain_cnt = m.reg("wdrain_cnt", 3)

    rr = m.reg("rr_way", WB)  # round-robin replacement pointer

    tag = [
        [m.reg("tag_s%d_w%d" % (s, w), TB) for w in range(cfg.ways)]
        for s in range(cfg.sets)
    ]
    vld = [
        [m.reg("vld_s%d_w%d" % (s, w), 1) for w in range(cfg.ways)]
        for s in range(cfg.sets)
    ]
    data = [
        [m.reg("data_s%d_w%d" % (s, w), X) for w in range(cfg.ways)]
        for s in range(cfg.sets)
    ]
    backing = m.memory("bmem", X, cfg.sets)  # AXI backing memory (by set idx)

    addr_set = r_addr.q[0:SB]
    addr_tag = r_addr.q[SB:X]

    def way_hit(w):
        hit = m.const(0, 1)
        for s in range(cfg.sets):
            hit = hit | (
                addr_set.eq(s) & vld[s][w].q & tag[s][w].q.eq(addr_tag)
            )
        return hit

    hits = [way_hit(w) for w in range(cfg.ways)]
    any_hit = m.any_of(*hits)
    hit_way = m.const(0, WB)
    for w in range(cfg.ways):
        hit_way = mux(hits[w], m.const(w, WB), hit_way)

    # write-buffer / drain address match stalls lookups (store-to-load
    # consistency inside the cache)
    wbuf_match = (wbuf_v.q & wbuf_addr.q.eq(r_addr.q)) | (
        wdrain_v.q & wdrain_addr.q.eq(r_addr.q)
    )

    axi_free = ~wdrain_v.q & ~state.q.eq(C_AXI)

    accept = req_valid & state.q.eq(C_IDLE)
    st = state.q

    # ---------------- controller transitions
    nxt = st
    nxt = mux(accept & req_is_store, m.const(C_STBUF, 3), nxt)
    nxt = mux(accept & ~req_is_store, m.const(C_LOOKUP, 3), nxt)
    # load lookup: stall on wbuf match; hit -> RESP; miss -> MSHR
    lookup = st.eq(C_LOOKUP)
    nxt = mux(lookup & ~wbuf_match & any_hit, m.const(C_RESP, 3), nxt)
    nxt = mux(lookup & ~wbuf_match & ~any_hit, m.const(C_MSHR, 3), nxt)
    # MSHR waits for the AXI port, then fetches
    mshr = st.eq(C_MSHR)
    nxt = mux(mshr & axi_free, m.const(C_AXI, 3), nxt)
    axi = st.eq(C_AXI)
    axi_done = axi & axi_cnt.q.eq(0)
    nxt = mux(axi_done, m.const(C_FILL, 3), nxt)
    fill = st.eq(C_FILL)
    nxt = mux(fill, m.const(C_LOOKUP, 3), nxt)  # replay the lookup (revisit)
    resp = st.eq(C_RESP)
    nxt = mux(resp, m.const(C_IDLE, 3), nxt)
    # store: write-buffer stage (wBVld) does the tag lookup, then wRTag
    stbuf = st.eq(C_STBUF)
    nxt = mux(stbuf, m.const(C_WTAG, 3), nxt)
    wtag = st.eq(C_WTAG)
    nxt = mux(wtag, m.const(C_IDLE, 3), nxt)
    state.next = nxt

    r_pc.next = mux(accept, req_pc_in, r_pc.q)
    r_addr.next = mux(accept, req_addr, r_addr.q)
    r_data.next = mux(accept, req_data, r_data.q)
    r_is_store.next = mux(accept, req_is_store, r_is_store.q)
    r_way.next = mux(
        (lookup | stbuf) & any_hit, hit_way, mux(fill, rr.q, r_way.q)
    )
    r_st_hit.next = mux(stbuf, any_hit, r_st_hit.q)
    axi_cnt.next = mux(
        mshr & axi_free, m.const(cfg.axi_latency, 3), mux(axi & axi_cnt.q.ne(0), axi_cnt.q - 1, axi_cnt.q)
    )

    # fill: allocate the round-robin way of the addressed set
    rr.next = mux(fill, rr.q + 1, rr.q)
    fill_data = backing.read(addr_set)
    st_hit = wtag & r_st_hit.q
    for s in range(cfg.sets):
        sel_set = addr_set.eq(s)
        for w in range(cfg.ways):
            do_fill = fill & sel_set & rr.q.eq(w)
            tag[s][w].next = mux(do_fill, addr_tag, tag[s][w].q)
            vld[s][w].next = mux(do_fill, m.const(1, 1), vld[s][w].q)
            # store hit updates the data bank in place (no-write-allocate)
            do_sthit = st_hit & sel_set & hits[w]
            data[s][w].next = mux(
                do_fill, fill_data, mux(do_sthit, r_data.q, data[s][w].q)
            )

    # stores always write through: enter the write buffer after wRTag
    wbuf_alloc = wtag
    # the MSHR has priority for the AXI port: a pending miss blocks the drain
    wbuf_pop = wbuf_v.q & ~wdrain_v.q & ~state.q.eq(C_AXI) & ~mshr
    wbuf_v.next = mux(wbuf_alloc, m.const(1, 1), mux(wbuf_pop, m.const(0, 1), wbuf_v.q))
    wbuf_pc.next = mux(wbuf_alloc, r_pc.q, wbuf_pc.q)
    wbuf_addr.next = mux(wbuf_alloc, r_addr.q, wbuf_addr.q)
    wbuf_data.next = mux(wbuf_alloc, r_data.q, wbuf_data.q)
    wdrain_v.next = mux(wbuf_pop, m.const(1, 1), mux(wdrain_v.q & wdrain_cnt.q.eq(0), m.const(0, 1), wdrain_v.q))
    wdrain_pc.next = mux(wbuf_pop, wbuf_pc.q, wdrain_pc.q)
    wdrain_addr.next = mux(wbuf_pop, wbuf_addr.q, wdrain_addr.q)
    wdrain_data.next = mux(wbuf_pop, wbuf_data.q, wdrain_data.q)
    wdrain_cnt.next = mux(
        wbuf_pop, m.const(cfg.axi_latency, 3), mux(wdrain_v.q & wdrain_cnt.q.ne(0), wdrain_cnt.q - 1, wdrain_cnt.q)
    )
    backing.write(wdrain_v.q & wdrain_cnt.q.eq(0), wdrain_addr.q[0:SB], wdrain_data.q)

    # ---------------- named signals / metadata
    m.name_signal("IFR", req_addr)  # request port stands in for the IFR
    m.name_signal("req_ready", state.q.eq(C_IDLE))
    m.name_signal("commit_fire", resp | wtag)
    m.name_signal("commit_pc", r_pc.q)
    m.name_signal(
        "pipe_quiesce", state.q.eq(C_IDLE) & ~wbuf_v.q & ~wdrain_v.q
    )
    m.name_signal("flush_fire", m.const(0, 1))
    m.name_signal("fetch_ready", state.q.eq(C_IDLE))
    m.name_signal(
        "intro_cond_rs1", accept & req_pc_in.eq(taint_pc) & taint_rs1
    )
    m.name_signal(
        "intro_cond_rs2", accept & req_pc_in.eq(taint_pc) & taint_rs2
    )

    pls: Dict[str, PerformingLocation] = {}
    ufsms: List[MicroFsm] = []

    from ..rtl.nodes import cat as _cat

    # the controller uFSM's vars are (cc_state, cc_way): its taint probe
    # carries the hit-way evidence SynthLC's decision-taint cover needs
    cc_probe = m.name_signal("cc_ufsm_vars", _cat(state.q, r_way.q, r_st_hit.q))

    def pl(name, occ_expr, pc_node, ufsm_name, probe=None):
        occ_sig, pc_sig = "pl_%s_occ" % name, "pl_%s_pc" % name
        m.name_signal(occ_sig, occ_expr)
        m.name_signal(pc_sig, pc_node)
        pls[name] = PerformingLocation(
            name=name,
            slots=(PlSlot(occ_sig, pc_sig, probe_signal=probe),),
            ufsms=(ufsm_name,),
        )

    pl("rdTag", lookup, r_pc.q, "ufsm_cc", probe="cc_ufsm_vars")
    pl("rdResp", resp, r_pc.q, "ufsm_cc", probe="cc_ufsm_vars")
    pl("mshr", mshr, r_pc.q, "ufsm_cc", probe="cc_ufsm_vars")
    pl("axiRd", axi, r_pc.q, "ufsm_cc", probe="cc_ufsm_vars")
    pl("fill", fill, r_pc.q, "ufsm_cc", probe="cc_ufsm_vars")
    pl("wBVld", stbuf, r_pc.q, "ufsm_cc", probe="cc_ufsm_vars")
    pl("wRTag", wtag, r_pc.q, "ufsm_cc", probe="cc_ufsm_vars")
    pl("wrBank0", st_hit & ~r_way.q[WB - 1], r_pc.q, "ufsm_cc")
    pl("wrBank1", st_hit & r_way.q[WB - 1], r_pc.q, "ufsm_cc")
    pl("wbDrain", wbuf_v.q, wbuf_pc.q, "ufsm_wbuf")
    pl("axiWr", wdrain_v.q, wdrain_pc.q, "ufsm_wdrain")
    ufsms.append(
        MicroFsm("ufsm_cc", "cc_pc", ("cc_state", "cc_way", "cc_st_hit"), pcr_added=True)
    )
    ufsms.append(MicroFsm("ufsm_wbuf", "wbuf_pc", ("wbuf_v",), pcr_added=True))
    ufsms.append(MicroFsm("ufsm_wdrain", "wdrain_pc", ("wdrain_v", "wdrain_cnt"), pcr_added=True))

    # candidate PL: controller state encoding 7 is used (C_WTAG); the unused
    # encoding here is none -- instead expose an impossible combination
    candidate_pls: Dict[str, PerformingLocation] = {}
    occ_sig, pc_sig = "pl_mshrDuringDrainFill_occ", "pl_mshrDuringDrainFill_pc"
    m.name_signal(occ_sig, fill & wdrain_v.q & mshr)
    m.name_signal(pc_sig, r_pc.q)
    candidate_pls["mshrDuringDrainFill"] = PerformingLocation(
        name="mshrDuringDrainFill", slots=(PlSlot(occ_sig, pc_sig),)
    )

    netlist = elaborate(m)
    persistent = tuple(
        ["tag_s%d_w%d" % (s, w) for s in range(cfg.sets) for w in range(cfg.ways)]
        + ["vld_s%d_w%d" % (s, w) for s in range(cfg.sets) for w in range(cfg.ways)]
        + ["rr_way"]
    )
    metadata = DesignMetadata(
        design_name=netlist.name,
        pls=pls,
        ufsms=tuple(ufsms),
        ifr_signal="IFR",
        commit_signal="commit_fire",
        commit_pc_signal="commit_pc",
        operand_registers=("cc_addr", "cc_data"),
        arf_registers=(),
        amem_registers=tuple(
            ["bmem_w%d" % i for i in range(cfg.sets)]
            + ["data_s%d_w%d" % (s, w) for s in range(cfg.sets) for w in range(cfg.ways)]
        ),
        persistent_registers=persistent,
        intro_cond_rs1="intro_cond_rs1",
        intro_cond_rs2="intro_cond_rs2",
        pc_bits=P,
    )
    metadata.candidate_pls = candidate_pls
    return CacheDesign(netlist=netlist, metadata=metadata, config=cfg)


def cache_context(requests, *, horizon: int, taint: Optional[TaintSpec] = None,
                  instrumented: bool = False, label: str = "") -> Context:
    """The cache context feeding ``requests``, (is_store, addr, data) items.

    Request i is tagged with PC ``slot_pc(i)`` and driven until
    ``fetch_ready`` accepts it.  An item may also be "quiesce" (wait for
    ``pipe_quiesce``) or "flush" (pulse ``taint_flush`` -- Assumption 3),
    with the meaning of :func:`~repro.designs.harness.program_context`.
    """
    steps = []
    issued = 0
    for item in requests:
        if item == "quiesce":
            steps.append(({}, "pipe_quiesce"))
        elif item == "flush":
            steps.append(({"taint_flush": 1} if instrumented else {}, None))
        else:
            is_store, addr, data = item
            steps.append(({
                "req_valid": 1, "req_is_store": int(is_store), "req_addr": addr,
                "req_data": data, "req_pc": slot_pc(issued),
            }, "fetch_ready"))
            issued += 1
    return Context.scripted({}, steps, horizon,
                            idle=taint_inputs(taint, instrumented), label=label)


class CacheContextProvider:
    """Context families for the cache DUV (loads and stores, SS VII-A2)."""

    def __init__(self, config: Optional[CacheConfig] = None, horizon: int = 40,
                 instrumented: bool = False):
        self.cfg = config or CacheConfig()
        self.horizon = horizon
        self.instrumented = instrumented

    def _addr_values(self):
        cfg = self.cfg
        # same-set/same-tag, same-set/other-tag, other-set combinations
        return (0, 1, cfg.sets, cfg.sets + 1, 2 * cfg.sets, (1 << cfg.xlen) - 1)

    def _context(self, requests, label, taint=None):
        return cache_context(requests, horizon=self.horizon, taint=taint,
                             instrumented=self.instrumented, label=label)

    def mupath_groups(self, iuv_name: str) -> List[ContextGroup]:
        """``iuv_name`` in {"LD", "ST"}: request type under verification."""
        is_store = iuv_name == "ST"
        addrs = self._addr_values()
        contexts = []
        # warm-up request (slot 0) then the IUV (slot 1)
        for warm_store in (False, True):
            for a_warm in addrs:
                for a in addrs:
                    contexts.append(
                        self._context(
                            [(warm_store, a_warm, 1), "quiesce", (is_store, a, 2)],
                            "warm(%s,%d)|%d,0|0,0,0" % (warm_store, a_warm, a),
                        )
                    )
        # back-to-back (dynamic contention with the write buffer / AXI)
        for warm_store in (False, True):
            for a_warm in addrs:
                for a in addrs:
                    contexts.append(
                        self._context(
                            [(warm_store, a_warm, 1), (is_store, a, 2)],
                            "b2b(%s,%d)|%d,0|0,0,0" % (warm_store, a_warm, a),
                        )
                    )
        # solo
        for a in addrs:
            contexts.append(
                self._context([(is_store, a, 2)], "solo|%d,0|0,0,0" % a)
            )
        solo_group = ContextGroup(
            iuv_pc=slot_pc(0),
            contexts=[c for c in contexts if c.label.startswith("solo")],
            complete=True,
            label="solo",
        )
        probe_group = ContextGroup(
            iuv_pc=slot_pc(1),
            contexts=[c for c in contexts if not c.label.startswith("solo")],
            complete=True,
            label="probe",
        )
        return [probe_group, solo_group]

    def taint_groups(self, transponder: str, transmitter: str, assumption: str,
                     operand: str) -> List[ContextGroup]:
        t_store = transmitter == "ST"
        p_store = transponder == "ST"
        addrs = self._addr_values()
        taint_rs1 = operand == "rs1"
        taint_rs2 = operand == "rs2"
        groups: List[ContextGroup] = []

        def group(reqs_fn, p_slot, t_slot, label):
            contexts = []
            taint = TaintSpec(pc=slot_pc(t_slot), rs1=taint_rs1, rs2=taint_rs2)
            for a_t in addrs:
                for a_p in addrs:
                    contexts.append(
                        self._context(
                            reqs_fn(a_t, a_p),
                            "%s|%d,0|%d,0,0" % (label, a_p, a_t),
                            taint=taint,
                        )
                    )
            groups.append(
                ContextGroup(
                    iuv_pc=slot_pc(p_slot),
                    contexts=contexts,
                    complete=True,
                    label=label,
                    taint_pc=slot_pc(t_slot),
                )
            )

        if assumption == "intrinsic":
            if transmitter != transponder:
                return []
            # warm the cache (untainted) at the independently swept address
            # a_t, then probe at a_p: the probe's own address decides the
            # hit, so the intrinsic differential sees real variation
            group(
                lambda a_t, a_p: [(False, a_t, 1), "quiesce", (p_store, a_p, 2)],
                1,
                1,
                "intr",
            )
            group(lambda a_t, a_p: [(p_store, a_p, 2)], 0, 0, "intr-cold")
        elif assumption == "dynamic_older":
            group(
                lambda a_t, a_p: [(t_store, a_t, 1), (p_store, a_p, 2)],
                1,
                0,
                "dyn-older",
            )
        elif assumption == "dynamic_younger":
            return []  # single-outstanding-request controller: no younger overlap
        elif assumption == "static":
            group(
                lambda a_t, a_p: [
                    (t_store, a_t, 1),
                    "quiesce",
                    "flush",
                    (p_store, a_p, 2),
                ],
                1,
                0,
                "static",
            )
        return groups
