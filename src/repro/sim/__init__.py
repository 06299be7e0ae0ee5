"""Cycle-accurate simulation of elaborated netlists."""

from .simulator import Simulator, compile_netlist
from .vcd import trace_to_vcd

__all__ = ["Simulator", "compile_netlist", "trace_to_vcd"]
