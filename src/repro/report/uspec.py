"""uSPEC-style export of synthesized uPATHs.

The Check tools consume axiomatic uSPEC models: first-order axioms that
say how to instantiate uHB nodes and edges per instruction (SS I, SS
III-A).  RTL2MuPATH's purpose is to synthesize those models from RTL; this
module renders our :class:`~repro.core.rtl2mupath.MuPathResult` objects in
a uSPEC-like concrete syntax so the output is recognizably the artifact
the Check tools would ingest.

The rendering follows the structure of RTL2uSPEC's generated models --
one ``Axiom "paths_<instr>"`` with an existential disjunction over the
instruction's uPATHs, each a conjunction of node predicates and
happens-before edges -- extended with the paper's multi-path and
cycle-accurate features (per-PL revisit annotations).
"""

from __future__ import annotations

from typing import Dict, List

from ..core.rtl2mupath import MuPathResult

__all__ = ["render_uspec_axiom", "render_uspec_model"]


def _node(pl: str) -> str:
    return 'NodeExists ((i, (0, %s)))' % pl


def _edge(src: str, dst: str) -> str:
    return 'EdgeExists ((i, (0, %s)), (i, (0, %s)), "path")' % (src, dst)


def render_uspec_axiom(result: MuPathResult) -> str:
    """One uSPEC axiom enumerating the instruction's uPATHs."""
    lines = ['Axiom "paths_%s":' % result.iuv, 'forall microop "i",']
    lines.append('HasOpcode i "%s" =>' % result.iuv)
    disjuncts = []
    for upath in result.upaths:
        terms: List[str] = []
        for pl in sorted(upath.pl_set):
            term = _node(pl)
            kind = upath.revisit.get(pl, "none")
            if kind != "none":
                term += '  (* revisit: %s, l in %s *)' % (
                    kind,
                    sorted(upath.run_lengths.get(pl, ())) or "?",
                )
            terms.append(term)
        for src, dst in sorted(upath.hb_edges):
            terms.append(_edge(src, dst))
        disjuncts.append("  (\n    " + " /\\\n    ".join(terms) + "\n  )")
    lines.append("\\/\n".join(disjuncts) + ".")
    return "\n".join(lines)


def render_uspec_model(results: Dict[str, MuPathResult], name="synthesized") -> str:
    """A full model: one axiom per instruction plus a decision summary."""
    parts = ['(* uSPEC model "%s", synthesized by RTL2MuPATH (repro) *)' % name]
    for iuv in sorted(results):
        parts.append(render_uspec_axiom(results[iuv]))
        decisions = results[iuv].decisions
        if decisions.sources:
            parts.append(
                "(* decision sources for %s: %s *)"
                % (iuv, ", ".join(decisions.sources))
            )
    return "\n\n".join(parts) + "\n"
