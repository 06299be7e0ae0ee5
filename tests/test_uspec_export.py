"""uSPEC-export tests (the Check-tools-facing output format)."""

from repro.report import render_uspec_axiom, render_uspec_model


def test_axiom_structure(mupath_add):
    text = render_uspec_axiom(mupath_add)
    assert text.startswith('Axiom "paths_ADD":')
    assert 'HasOpcode i "ADD"' in text
    assert "NodeExists" in text and "EdgeExists" in text
    # one disjunct per uPATH family
    assert text.count("\\/") >= mupath_add.num_upaths - 1


def test_axiom_mentions_all_pl_sets(mupath_add):
    text = render_uspec_axiom(mupath_add)
    for upath in mupath_add.upaths:
        for pl in upath.pl_set:
            assert pl in text


def test_revisit_annotations(mupath_divu):
    text = render_uspec_axiom(mupath_divu)
    assert "revisit: consecutive" in text


def test_model_combines_axioms(mupath_add, mupath_lw):
    text = render_uspec_model({"ADD": mupath_add, "LW": mupath_lw})
    assert 'Axiom "paths_ADD"' in text
    assert 'Axiom "paths_LW"' in text
    assert "decision sources for LW" in text
