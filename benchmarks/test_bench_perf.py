"""Perf-predictor bench: cycle prediction vs RTL simulation at scale.

The predictor's reason to exist is speed: replaying a program against
the compiled latency/hazard tables costs a few dict operations per
cycle, while the RTL simulator evaluates the whole netlist.  This bench
measures both on 1000-instruction fuzzed sequences over an xlen=4 core
with a widened program counter (``pc_bits=14``: the commit-port retire
accounting needs unique fetch PCs), asserts exact cycle agreement on
every measured sequence, and records the throughput numbers plus the
speedup ratio to ``PERF_BENCH.json``.  The gate is a >= 10x predictor
speedup -- the margin that makes million-sequence timing campaigns
feasible where direct simulation is not.
"""

import time

import pytest

from repro.designs import build_core, run_program, sample_sequence
from repro.designs.core import CoreConfig
from repro.designs.harness import STRAIGHT_LINE_POOL
from repro.perf import collect_upath_summaries, compile_model, predict_program
from repro.sim import Simulator

from conftest import print_banner, record_bench_json

XLEN = 4
PC_BITS = 14  # 1k-instruction programs need unique per-slot fetch PCs
SEQ_LEN = 1000
SEQUENCES = 4
TRIALS = 3  # score the per-side minimum: noise on a shared core is additive
TARGET_SPEEDUP = 10.0


@pytest.fixture(scope="module")
def bench_setup():
    design = build_core(CoreConfig(xlen=XLEN, pc_bits=PC_BITS))
    summaries = collect_upath_summaries(
        design, ["ADD", "MUL", "DIV", "DIVU", "LW", "SW"]
    )
    model = compile_model(design, summaries, names=STRAIGHT_LINE_POOL)
    sim = Simulator(design.netlist)
    programs = [
        sample_sequence(seed, min_len=SEQ_LEN, max_len=SEQ_LEN, xlen=XLEN)
        for seed in range(SEQUENCES)
    ]
    return design, sim, model, programs


def test_predictor_speedup_over_simulation(bench_setup, benchmark):
    design, sim, model, programs = bench_setup

    sim_trials = []
    pred_trials = []
    total_cycles = 0
    for trial in range(TRIALS):
        sim_this = 0.0
        pred_this = 0.0
        cycles_this = 0
        for program, arf_init in programs:
            started = time.perf_counter()
            run = run_program(sim, program, arf_init, max_cycles=50000)
            sim_this += time.perf_counter() - started

            started = time.perf_counter()
            pred = predict_program(model, program, arf_init)
            pred_this += time.perf_counter() - started

            assert pred.cycles == run.cycles, "predictor diverged on bench input"
            assert pred.arf == run.arf and pred.mem == run.mem
            assert not pred.out_of_model
            cycles_this += run.cycles
        sim_trials.append(sim_this)
        pred_trials.append(pred_this)
        total_cycles = cycles_this

    sim_elapsed = min(sim_trials)
    pred_elapsed = min(pred_trials)
    speedup = sim_elapsed / pred_elapsed
    sim_seq_per_sec = SEQUENCES / sim_elapsed
    pred_seq_per_sec = SEQUENCES / pred_elapsed

    print_banner(
        "perf predictor vs RTL simulation (%d x %d-instruction sequences)"
        % (SEQUENCES, SEQ_LEN)
    )
    print("simulated cycles: %d total" % total_cycles)
    print("simulator: %.3fs (%.2f seq/s)" % (sim_elapsed, sim_seq_per_sec))
    print("predictor: %.3fs (%.2f seq/s)" % (pred_elapsed, pred_seq_per_sec))
    print("speedup: %.1fx (target >= %.0fx)" % (speedup, TARGET_SPEEDUP))

    record_bench_json("PERF_BENCH.json", {
        "xlen": XLEN,
        "pc_bits": PC_BITS,
        "sequence_length": SEQ_LEN,
        "sequences": SEQUENCES,
        "total_cycles": total_cycles,
        "simulator_seconds": round(sim_elapsed, 4),
        "predictor_seconds": round(pred_elapsed, 4),
        "simulator_sequences_per_sec": round(sim_seq_per_sec, 2),
        "predictor_sequences_per_sec": round(pred_seq_per_sec, 2),
        "speedup": round(speedup, 1),
        "exact_cycle_agreement": True,
    })
    assert speedup >= TARGET_SPEEDUP


def test_long_sequence_retire_accounting(bench_setup, benchmark):
    """The commit-port retire map stays per-instruction at 1k length."""
    design, sim, model, programs = bench_setup
    program, arf_init = programs[0]
    run = run_program(sim, program, arf_init, max_cycles=50000)
    assert len(run.retire) == SEQ_LEN  # every slot's pc is unique and committed
    pred = predict_program(model, program, arf_init)
    assert pred.retire == run.retire
