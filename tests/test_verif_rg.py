"""Tests for the rely-guarantee interference models (repro.verif.rgspec)
and their stability VC family (repro.verif.rgproof)."""

from repro.verif import rgproof
from repro.verif import rgspec as rs
from repro.verif.explore import check_inductive, reachable_states
from repro.verif.rgproof import MAX_STATES, rg_vcs
from repro.verif.statemachine import SpecStateMachine


def _explored(builder):
    machine = builder()
    result = reachable_states(machine, max_states=MAX_STATES)
    assert not result.truncated, "model stopped being finite"
    assert result.ok, result.violation
    return machine, result


def test_pmem_model_is_finite_and_invariant():
    _machine, result = _explored(rs.pmem_machine)
    # 8 frames, orders 0..3: the reachable buddy-decomposition space.
    assert len(result.states) == 677


def test_vspace_model_is_finite_and_invariant():
    _machine, result = _explored(rs.vspace_machine)
    assert len(result.states) == 201


def test_every_invariant_is_stable_under_every_action():
    """The tentpole obligation, checked directly: each invariant is
    inductive under a sub-machine containing one interfering action."""
    for model, builder, invariants in rs.MODELS:
        machine, result = _explored(builder)
        for transition in machine.transitions:
            sub = SpecStateMachine(
                name=f"{machine.name}-{transition.name}",
                init_states=machine.init_states,
                transitions=[transition],
                invariants=machine.invariants,
            )
            for invariant in invariants:
                counterexample = check_inductive(sub, result.states,
                                                 invariant)
                assert counterexample is None, (
                    model, invariant, transition.name, counterexample)


def test_memoised_steps_equal_a_fresh_machines():
    for _model, builder, _invariants in rs.MODELS:
        machine, result = _explored(builder)   # fills machine's memo
        fresh = builder()
        for state in result.states:
            steps = machine.enabled_steps(state)
            assert steps == fresh.enabled_steps(state)
            assert machine.enabled_steps(state) is steps


def test_stability_sub_machine_steps_only_its_own_action(monkeypatch):
    """The memo lives on the machine instance: the one-action sub-machine
    a stability VC builds must not see the full machine's successors."""
    cache = rgproof._RgModelCache()
    machine, result = cache.result("pmem")     # full machine's memo is warm
    action = machine.transitions[-1].name
    subs = []

    def spy(sub, states, invariant):
        subs.append(sub)
        return check_inductive(sub, states, invariant)

    monkeypatch.setattr(rgproof, "check_inductive", spy)
    vc = rgproof._stability_vc(cache, "pmem", "pmem_coverage", action)
    assert vc.check() is None
    (sub,) = subs
    assert sub is not machine and len(machine.transitions) > 1
    fired = 0
    for state in result.states:
        own = tuple(step for step in machine.enabled_steps(state)
                    if step[0] == action)
        assert sub.enabled_steps(state) == own
        fired += len(own)
    assert fired, f"{action} never enabled: the check would be vacuous"


def test_pmem_free_coalesces_eagerly():
    state = rs.pmem_init()
    state = rs._pmem_alloc(state, (0,))      # split down to order 0
    assert any(state.free[k] for k in range(rs.PMEM_MAX_ORDER))
    state = rs._pmem_free(state, (0,))       # merges all the way back
    assert state == rs.pmem_init()


def test_vspace_unmap_is_atomic_wrt_tlbs():
    state = rs.vs_init()
    state = rs._vs_map(state, (0, 0, 1))
    state = rs._vs_sync(state, (0,))
    state = rs._vs_fill(state, (0, 0))
    assert state.tlbs[0]
    state = rs._vs_unmap(state, (1, 0))
    assert all(tlb == () for tlb in state.tlbs)
    assert rs.vs_final(state) == ()


def test_vspace_canonicalization_bounds_the_log():
    state = rs.vs_init()
    for index in range(4):                   # map/unmap forever...
        state = rs._vs_map(state, (0, 0, index % 2))
        state = rs._vs_unmap(state, (0, 0))
    assert len(state.log) <= rs.VS_MAX_LAG   # ...log stays bounded
    assert min(state.applied) == 0


def test_rg_vc_family_shape():
    vcs = rg_vcs()
    names = [vc.name for vc in vcs]
    assert len(names) == len(set(names))
    assert all(vc.category == "rg" for vc in vcs)
    # one stability VC per (invariant x action) pair, per model
    for model, builder, invariants in rs.MODELS:
        actions = [t.name for t in builder().transitions]
        for invariant in invariants:
            for action in actions:
                expected = (f"rg-stable-"
                            f"{invariant.replace('_', '-')}"
                            f"-under-{action}")
                assert expected in names
    for required in ("rg-spec-explored-pmem", "rg-spec-explored-vspace",
                     "rg-spec-detects-violations-pmem",
                     "rg-spec-detects-violations-vspace",
                     "rg-impl-pmem-trace", "rg-impl-vspace-shootdown",
                     "rg-static-interference-free",
                     "rg-lockorder-clean"):
        assert required in names


def test_rg_vcs_all_discharge():
    for vc in rg_vcs():
        assert vc.check() is None, (vc.name, vc.check())


def test_vacuity_states_do_violate():
    from repro.verif.rgproof import (_broken_pmem_states,
                                     _broken_vspace_states)

    for name, state in _broken_pmem_states().items():
        assert not rs.PMEM_INVARIANTS[name](state), name
    for name, state in _broken_vspace_states().items():
        assert not rs.VSPACE_INVARIANTS[name](state), name


def test_prove_layer_includes_rg():
    from repro.core.refine.proof import build_proof

    engine = build_proof(include_lemmas=False, include_structural=False,
                         include_nr=False, include_contract=False,
                         include_rg=True)
    assert engine.vc_count == len(rg_vcs())
    assert engine.rebuild_spec[1]["include_rg"] is True
