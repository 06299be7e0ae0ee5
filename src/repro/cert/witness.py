"""Witness decoding and replay for REACHABLE certificates.

A SAT answer from the bounded model checker is a symbolic trace: the
model assigns the initial (symbolically reset) register words and every
per-cycle input word.  :func:`decode_model_witness` reads those words
back through the bit-blaster *at SAT time* (models are transient --
the next solve destroys them), producing a plain-JSON payload; a
witness certificate then *replays* the payload on the concrete
simulator (:mod:`repro.sim`) -- a completely SAT-free execution path --
and re-evaluates the property on the replayed trace.
"""

from __future__ import annotations

from typing import Dict, List

from ..props.views import ConcreteTraceView

__all__ = ["decode_model_witness", "replay_view"]


def decode_model_witness(builder, frames) -> Dict:
    """Decode a SAT model into ``(registers, inputs)`` payload pieces.

    ``frames`` are the unrolling's bit-blasted cycles: the first frame's
    ``state_in`` words are the initial register state (symbolic or
    reset-constant -- decoding a constant word just returns the reset
    value), and each frame's ``inputs`` words are that cycle's input
    assignment.  Must be called while the model is live.
    """
    registers: Dict[str, int] = {}
    if frames:
        registers = {
            name: builder.word_value(word)
            for name, word in frames[0].state_in.items()
        }
    inputs: List[Dict[str, int]] = [
        {name: builder.word_value(word) for name, word in frame.inputs.items()}
        for frame in frames
    ]
    return {"registers": registers, "inputs": inputs}


def replay_view(sim, payload: Dict) -> ConcreteTraceView:
    """Re-simulate a witness payload; returns the concrete trace view.

    Raises on malformed payloads (unknown register or input names) --
    the caller treats any replay exception as a failed certificate.
    """
    sim.reset(overrides=dict(payload.get("registers") or {}))
    cycles = [
        sim.step(dict(cycle)) for cycle in payload.get("inputs") or []
    ]
    return ConcreteTraceView(cycles)
