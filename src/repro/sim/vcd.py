"""Minimal VCD (value change dump) export for recorded traces.

The paper's workflow inspects RTL waveforms produced by reachable cover
properties (SS VII-B2 -- that is how the SCB under-utilization bug was
found).  This module gives our traces the same affordance: any per-cycle
observation dicts can be dumped to a standards-compliant VCD file and
opened in GTKWave or similar.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

__all__ = ["trace_to_vcd"]

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index):
    """Short VCD identifier codes: !, ", #, ... then two-char codes."""
    if index < len(_ID_CHARS):
        return _ID_CHARS[index]
    hi, lo = divmod(index - len(_ID_CHARS), len(_ID_CHARS))
    return _ID_CHARS[hi] + _ID_CHARS[lo]


def trace_to_vcd(
    signal_names: Iterable[str],
    cycles: Sequence[Mapping[str, int]],
    widths: Optional[Dict[str, int]] = None,
    design="duv",
):
    """Render ``signal_names`` over ``cycles``, one observation dict per
    cycle, as VCD text; a signal absent from a cycle's dict reads 0, and
    ``widths`` overrides per-signal widths.

    Widths default to the smallest width that fits the largest observed
    value (minimum 1).  Returns the VCD document as a string.
    """
    signal_names = list(signal_names)
    widths = dict(widths or {})
    for name in signal_names:
        if name not in widths:
            peak = max((obs.get(name, 0) for obs in cycles), default=0)
            widths[name] = max(1, peak.bit_length())

    ids = {name: _identifier(i) for i, name in enumerate(signal_names)}
    lines = [
        "$date reproduction run $end",
        "$version repro.sim.vcd $end",
        "$timescale 1ns $end",
        "$scope module %s $end" % design,
    ]
    for name in signal_names:
        lines.append("$var wire %d %s %s $end" % (widths[name], ids[name], name))
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    previous: Dict[str, Optional[int]] = {name: None for name in signal_names}
    for cycle, obs in enumerate(cycles):
        changes = []
        for name in signal_names:
            value = obs.get(name, 0)
            if value != previous[name]:
                previous[name] = value
                if widths[name] == 1:
                    changes.append("%d%s" % (value & 1, ids[name]))
                else:
                    changes.append("b%s %s" % (format(value, "b"), ids[name]))
        if changes:
            lines.append("#%d" % cycle)
            lines.extend(changes)
    lines.append("#%d" % len(cycles))
    return "\n".join(lines) + "\n"
