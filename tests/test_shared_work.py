"""Derived work shared by the calls on one ring, and so by the commands of
one parsed script: resolutions, Ext and Koszul homology decisions, kept on the
ring and keyed by unit-normalized generators.  Sharing may move step counts,
never an answer."""
import pytest
from fpdlab import (Budget, CoefficientDomain, PolynomialRing, RingPresentation,
                    ResourceBudgetExceeded, complexes, dq_dw_local, grade,
                    groebner, is_gv, koszul, modules)
from fpdlab.cli import CliConfig, render_json, run_command
from fpdlab.script import parse
from golden_diff import differences

# the seven commands of each graded_field benchmark script
GRADED = "grade m; cm; dqdw; koszul m; smodule m 1; ext m 3; gv m;"


def _shared(text, config=None):
    script = parse(text)
    return script, [run_command(script, c, config or CliConfig())
                    for c in script.commands()]


def _cold(text):
    """Each command in a fresh parse of its own."""
    records = []
    for index in range(len(parse(text).commands())):
        script = parse(text)
        records.append(run_command(script, script.commands()[index], CliConfig()))
    return records


def _steps(records):
    return {r["command"]: r["budget"]["steps"] for r in records}


@pytest.mark.parametrize("ring", [
    "ring R = FF7[x,y,z,w]/(x*w - y*z); ideal m = (x, y, z, w);",   # depth 3
    "ring R = FF101[x,y,z]/(x*y, y*z); ideal m = (x, y, z);",       # depth 1
])
def test_graded_commands_share_work_and_keep_their_answers(ring):
    _, shared = _shared(ring + GRADED)
    cold = _cold(ring + GRADED)
    assert differences(render_json(cold), render_json(shared)) == []
    assert all(r["status"] == "ok" for r in shared)
    for command in ("cm", "dqdw", "gv", "koszul"):
        assert _steps(shared)[command] < _steps(cold)[command], command
    assert _steps(shared)["grade"] == _steps(cold)["grade"]


def test_unit_rescaled_generators_share_an_entry_and_other_ideals_do_not():
    text = ("ring R = QQ[x,y]/(x*y); ideal m = (x, y); ideal n = (2*x, -1/3*y); "
            "ideal p = (x, y^2); ext m 1; ext n 1; ext p 1; "
            "ring Z = ZZ[x,y]; ideal a = (2*x, y); ideal b = (-2*x, -y); "
            "ideal c = (x, y); ext a 1; ext b 1; ext c 1;")
    script, records = _shared(text)
    steps = [r["budget"]["steps"] for r in records]
    assert steps[0] > 0 and steps[1] == 0 and steps[2] > 0
    assert steps[3] > 0 and steps[4] == 0 and steps[5] > 0
    assert [len(ring.derived) for ring in script.rings.values()] == [2, 2]
    assert [r["result"] for r in records[:2]] == [{"vanishes_through": [True, False]}] * 2
    # a new parse builds new rings, which start cold
    fresh = parse(text)
    assert all(ring.derived == {} for ring in fresh.rings.values())
    assert run_command(fresh, fresh.commands()[1], CliConfig())["budget"]["steps"] > 0


def test_a_reused_koszul_grade_is_still_cross_checked(monkeypatch):
    # every Koszul homology module "vanishes": the koszul command reports
    # and stores INFINITE, and each grade that reads it must still compare
    monkeypatch.setattr(koszul, "koszul_homology_is_zero", lambda *args: True)
    _, records = _shared("ring R = QQ[x,y]; ideal m = (x, y); "
                         "koszul m; cm; grade m; grade m;")
    assert [r["status"] for r in records] == ["ok", "internal", "internal", "internal"]
    assert records[0]["result"]["koszul_grade"] == "INFINITE"
    assert all("Koszul grade INFINITE disagrees with Ext grade 2" in r["error"]
               for r in records[1:])


@pytest.mark.parametrize("text", [
    "ring R = FF7[x,y,z,w]/(x*w - y*z); ideal m = (x, y, z, w); "
    "ext m 1; koszul m; smodule m 1;",
    # over ZZ no grade cross-checks by Koszul: the koszul command decides
    "ring R = ZZ[x,y]; ideal m = (2, x, y); ext m 2; koszul m; smodule m 2;",
    # x^2 is y modulo J: smodule, like koszul, takes the generators modulo J
    "ring R = QQ[x,y]/(x^2 - y); ideal m = (x^2, x); ext m 1; koszul m; smodule m 0;",
])
def test_smodule_after_ext_and_koszul_reads_both_and_takes_no_steps(text):
    _, records = _shared(text)
    assert records[2]["result"]["exactness_verified"] is True
    assert records[2]["budget"]["steps"] == 0
    assert differences(render_json(_cold(text)), render_json(records)) == []


def test_a_command_cut_short_leaves_a_prefix_the_next_one_extends():
    text = "ring R = QQ[x,y,z]/(x*y - z^2); ideal m = (x, y, z); ext m 3; ext m 3;"
    cold = _cold(text)[0]
    budget = cold["budget"]["steps"] // 2
    script = parse(text)
    first, second = script.commands()
    cut = run_command(script, first, CliConfig(budget_steps=budget))
    assert cut["status"] == "resource"
    (work,) = script.rings["R"].derived.values()
    assert work.resolution is not None and len(work.decided) < 4
    # no budget is stored with the shared work: the next command runs under
    # its own, finishes and answers as a cold run does
    done = run_command(script, second, CliConfig())
    assert done["status"] == "ok"
    assert done["result"] == cold["result"]
    assert 0 < done["budget"]["steps"] < cold["budget"]["steps"]
    assert len(work.decided) == 4


def test_semiregular_and_gv_share_one_annihilator(monkeypatch):
    """The CLI's oracle scripts ask `semiregular I; gv I; criterion I 1;`:
    one annihilator serves the first and the Ext^0 cross-check of the rest."""
    text = ("ring R = ZZ[x]/(4, x^2 + 2*x); ideal I = (2, x); "
            "semiregular I; gv I; criterion I 1;")
    cold = _cold(text)
    calls = []
    colon = groebner._colon  # one elimination per annihilator of I != 0
    monkeypatch.setattr(groebner, "_colon",
                        lambda *args: calls.append(1) or colon(*args))
    _, shared = _shared(text)
    assert differences(render_json(cold), render_json(shared)) == []
    assert len(calls) == 1


def test_a_shared_annihilator_verdict_is_still_cross_checked(monkeypatch):
    # the annihilator claims Ann(I) = 0 for every ideal: semiregular reports
    # it, and the gv that reads the stored verdict must still compare it
    class NotZero:
        def __init__(self, ann):
            self.ann = ann

        def is_zero(self, budget=None):
            return not self.ann.is_zero(budget)

    annihilator = complexes.annihilator
    monkeypatch.setattr(complexes, "annihilator",
                        lambda *args: NotZero(annihilator(*args)))
    _, records = _shared("ring R = QQ[x]/(x^2); ideal I = (x); semiregular I; gv I;")
    assert [r["status"] for r in records] == ["ok", "internal"]
    assert records[0]["result"] == {"semiregular": True}
    assert "disagrees with the annihilator" in records[1]["error"]


def test_library_calls_on_one_ring_share_its_store():
    def ring():
        A = PolynomialRing(CoefficientDomain.FF(7), ("x", "y", "z", "w"))
        return RingPresentation(A, [A.poly("x*w - y*z")])

    def steps(call, arg):
        budget = Budget()
        call(arg, budget=budget)
        return budget.steps

    R = ring()
    first = steps(grade, R.ideal("x", "y", "z", "w"))
    assert first > 0
    # grade decided Ext^0 and Ext^1 on the same generators
    assert steps(is_gv, R.ideal("x", "y", "z", "w")) == 0
    assert steps(dq_dw_local, R) < steps(dq_dw_local, ring())
    # an equal ring built afresh shares nothing
    fresh = ring()
    assert fresh == R and fresh.derived == {}
    assert steps(grade, fresh.ideal("x", "y", "z", "w")) == first


@pytest.mark.parametrize("ring", [
    "ring R = FF7[x,y,z,w]/(x*w - y*z); ideal m = (x, y, z, w);",
    "ring R = FF101[x,y,z]/(x*y, y*z); ideal m = (x, y, z);",
])
def test_cm_and_dqdw_after_grade_take_no_steps(ring):
    # the irrelevant ideal they build shares m's store, unit verdict included,
    # so cm's only steps are its dimension search (one per variable set tested)
    _, records = _shared(ring + "grade m; cm; dqdw;")
    _, dim_after_grade = _shared(ring + "grade m; dim;")
    assert [r["status"] for r in records] == ["ok"] * 3
    dim_steps = dim_after_grade[1]["budget"]["steps"]
    assert [r["budget"]["steps"] for r in records[1:]] == [dim_steps, 0]


def test_koszul_after_grade_reads_the_nonzero_generators_decisions():
    # grade's cross-check and the koszul command both take the generators
    # modulo J with the zero one dropped, so they share one decision set
    text = ("ring R = FF7[x,y,z,w]/(x*w - y*z); ideal m = (x, 0, y, z, w); "
            "grade m; koszul m;")
    _, records = _shared(text)
    assert records[1]["result"] == {"ranks": [1, 5, 10, 10, 5, 1], "koszul_grade": "3"}
    assert records[1]["budget"]["steps"] == 0
    assert differences(render_json(_cold(text)), render_json(records)) == []


@pytest.mark.parametrize("command", ["ext m 3;", "koszul m;", "grade m;"])
def test_only_kernel_completes_image_bases_on_the_twisted_cubic(monkeypatch, command):
    # each Ext degree and each Koszul degree reduces against the image basis
    # that `kernel` left on the map the degree before, and the unit verdict
    # against the presentation's: no map completes its image on its own
    calls = []
    complete = modules.vec_groebner
    monkeypatch.setattr(modules, "vec_groebner",
                        lambda *args, **kwargs: calls.append(1) or complete(*args, **kwargs))
    _, records = _shared("ring T = QQ[x,y,z,w]/(x*z - y^2, x*w - y*z, y*w - z^2); "
                         "ideal m = (x, y, z, w); " + command)
    assert records[0]["status"] == "ok"
    assert calls == []


def test_grade_then_criterion_on_a_proper_ideal_never_lift(monkeypatch):
    # (2, x) has grade 2, so both commands ask whether it is the unit ideal;
    # the cyclic presentation says no, and no cofactors are sought
    calls = []
    decide = complexes.is_unit_ideal
    monkeypatch.setattr(complexes, "is_unit_ideal",
                        lambda *args: calls.append(1) or decide(*args))
    _, records = _shared("ring R = ZZ[x]; ideal u = (2, x); grade u; criterion u 1;")
    assert [r["result"].get("value") for r in records] == ["2", None]
    assert records[1]["result"]["verdict"] == "COUNTEREXAMPLE"
    assert calls == []


@pytest.mark.parametrize("ring, cofactors", [
    ("ring R = QQ[x]; ideal u = (x, x + 1); ideal v = (2*x, -1/3*x - 1/3);",
     [["-1", "1"], ["-1/2", "-3"]]),
    # over ZZ a sign flip moves remainders out of [0, a): v's cofactors are
    # not a rescaling of u's
    ("ring R = ZZ[x]; ideal u = (2, 3); ideal v = (-2, 3);",
     [["-1", "1"], ["-2", "-1"]]),
])
def test_grade_then_criterion_decide_the_unit_ideal_once(monkeypatch, ring, cofactors):
    # v's generators are unit multiples of u's, so v shares u's verdict; a
    # unit v's cofactors are computed for its own generators, as cold
    text = ring + "grade u; criterion u 1; criterion v 1;"
    cold = _cold(text)
    calls = []
    decide = complexes.is_unit_ideal
    monkeypatch.setattr(complexes, "is_unit_ideal",
                        lambda *args: calls.append(1) or decide(*args))
    _, shared = _shared(text)
    assert len(calls) == 2  # u's, for grade and criterion u, then v's
    assert shared[1]["budget"]["steps"] == 0
    assert [r["certificates"]["unit_cofactors"] for r in shared[1:]] == cofactors
    assert differences(render_json(cold), render_json(shared)) == []


REUSE_RINGS = [
    "ring T = QQ[x,y,z,w]/(x*z - y^2, x*w - y*z, y*w - z^2); ideal m = (x, y, z, w);",
    "ring R = FF7[x,y,z,w]/(x*w - y*z); ideal m = (x, y, z, w);",
]


@pytest.mark.parametrize("ring", REUSE_RINGS)
def test_after_grade_the_graded_commands_key_nothing_twice_and_build_one_chain(
        monkeypatch, ring):
    # once `grade m` has keyed its generator tuples and built and checked its
    # Koszul chain, the other six commands look them up; the only tuple they
    # key is the irrelevant ideal's, made once by cm for cm and dqdw
    cold = _cold(ring + GRADED)
    keyed, chains = [], []  # the tuples keyed, kept alive so ids stay unique
    generator_key, koszul_chain = complexes.generator_key, koszul.koszul_chain

    def counted_key(R, gens):
        keyed.append(gens)
        return generator_key(R, gens)

    monkeypatch.setattr(complexes, "generator_key", counted_key)
    monkeypatch.setattr(koszul, "generator_key", counted_key)
    monkeypatch.setattr(koszul, "koszul_chain",
                        lambda *args: chains.append(1) or koszul_chain(*args))
    script = parse(ring + GRADED)
    first, *rest = script.commands()
    shared = [run_command(script, first, CliConfig())]
    # m's generators and the cyclic presentation's columns
    assert len(keyed) == 2 and len(chains) == 1
    shared += [run_command(script, c, CliConfig()) for c in rest]
    assert len({id(gens) for gens in keyed}) == len(keyed)
    (R,) = script.rings.values()
    assert len(keyed) == 3 and keyed[-1] is R.irrelevant_ideal.generators
    assert len(chains) == 1
    assert differences(render_json(cold), render_json(shared)) == []


@pytest.mark.parametrize("ring", REUSE_RINGS)
def test_an_smodule_cut_short_keeps_nothing_half_built(ring):
    text = ring + "smodule m 1;"
    cold = _cold(text)[0]
    script = parse(text)
    (m,) = script.ideals.values()
    with pytest.raises(ResourceBudgetExceeded):
        koszul.dual_koszul_cokernel(m, 1, Budget(1))
    # what the cut call kept, it finished: each chain reaches d_4
    (work,) = m.ring.derived.values()
    assert all(K.length == 4 for K in work.chains.values())
    done = run_command(script, script.commands()[0], CliConfig())
    assert differences(render_json([cold]), render_json([done])) == []
    assert done["status"] == "ok" and done["budget"]["steps"] <= cold["budget"]["steps"]


def test_the_irrelevant_ideal_is_made_once_per_ring():
    text = "ring R = FF7[x,y,z,w]/(x*w - y*z); dqdw;"
    R = parse(text).rings["R"]
    assert R.irrelevant_ideal is R.irrelevant_ideal
    assert [str(g) for g in R.irrelevant_ideal.generators] == ["x", "y", "z", "w"]
    # a fresh parse builds a new ring, with an irrelevant ideal of its own
    fresh = parse(text).rings["R"]
    assert fresh == R and fresh.irrelevant_ideal is not R.irrelevant_ideal
    assert fresh.derived == {}


def test_a_second_parse_repeats_all_the_work_of_the_first(monkeypatch):
    # every cache hangs off a parsed ring or ideal: a memo that outlived its
    # parse (one kept by a module, say) would give equal records with fewer
    # builds in the second run, so the builds are counted, not only compared
    text = ("ring R = QQ[a,b,c,d]/(a*c - b^2, b*d - c^2, a*d - b*c); "
            "ideal m = (a, b, c, d); " + GRADED)
    counts = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(complexes, "ExtComputer")
    count(koszul, "koszul_chain")
    count(groebner, "groebner_basis_of_polys")
    runs = []
    for _ in range(2):
        counts.clear()
        _, records = _shared(text)
        runs.append((dict(counts), render_json(records)))
    (first, first_records), (second, second_records) = runs
    assert sorted(first) == ["ExtComputer", "groebner_basis_of_polys", "koszul_chain"]
    assert first == second
    assert first_records == second_records
