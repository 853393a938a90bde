"""Tests for the rely-guarantee interference models (repro.verif.rgspec)
and their stability VC family (repro.verif.rgproof)."""

from dataclasses import replace

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
            sub = _one_action_machine(machine, transition.name)
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
            assert machine.violated(state) == fresh.violated(state) == ()


def _one_action_machine(machine, action):
    """The reference for `check_inductive(..., action=)`: a machine whose
    only transition is `action` (what every stability VC used to build)."""
    return SpecStateMachine(
        name=f"{machine.name}-{action}",
        init_states=machine.init_states,
        transitions=[machine.transition(action)],
        invariants=machine.invariants,
    )


def _assert_filter_equals_sub_machine(machine, states, invariants):
    for transition in machine.transitions:
        sub = _one_action_machine(machine, transition.name)
        for invariant in invariants:
            assert check_inductive(machine, states, invariant,
                                   action=transition.name) == \
                check_inductive(sub, states, invariant), \
                (machine.name, invariant, transition.name)


def test_action_filter_equals_the_one_action_sub_machine():
    for _model, builder, invariants in rs.MODELS:
        machine, result = _explored(builder)
        _assert_filter_equals_sub_machine(machine, result.states, invariants)


def test_broken_guarantee_fails_its_own_stability_vc_only(monkeypatch):
    """Seeded bug: `free` forgets the redundant frame counter.  Exactly
    the (pmem_free_count × free) stability VC must report it — not the
    same invariant under `alloc`, not another invariant under `free` —
    and the action filter must return the sub-machine's counterexamples."""
    free = rs._pmem_free

    def leaky_free(state, args):
        return replace(free(state, args), free_frames=state.free_frames)

    monkeypatch.setattr(rs, "_pmem_free", leaky_free)
    failing = {vc.name for vc in rg_vcs()
               if vc.name.startswith("rg-stable-") and vc.check() is not None}
    assert failing == {"rg-stable-pmem-free-count-under-free"}

    machine = rs.pmem_machine()
    states = reachable_states(machine, max_states=MAX_STATES).states
    assert check_inductive(machine, states, "pmem_free_count",
                           action="free") is not None
    _assert_filter_equals_sub_machine(machine, states, rs.PMEM_INVARIANTS)


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


def test_static_vcs_fail_on_an_unparsable_module(tmp_path, monkeypatch):
    """Both static VCs read the allocator; once it does not parse, each
    reports the parse error instead of passing over the module."""
    from repro.analysis.lockorder import SCAN_MODULES
    from repro.verif import rgproof

    real_root = rgproof._repo_root()
    for relpath in {c.module for c in rs.COMPONENTS} | set(SCAN_MODULES):
        copy = tmp_path / relpath
        copy.parent.mkdir(parents=True, exist_ok=True)
        copy.write_text((real_root / relpath).read_text(encoding="utf-8"),
                        encoding="utf-8")
    monkeypatch.setattr(rgproof, "_repo_root", lambda: tmp_path)
    vcs = (rgproof._static_interference_vc(),
           rgproof._static_lockorder_vc())
    assert [vc.check() for vc in vcs] == [None, None]
    with open(tmp_path / rs.PMEM.module, "a", encoding="utf-8") as pmem:
        pmem.write("def broken(:\n")
    for vc in vcs:
        verdict = vc.check()
        assert verdict is not None and verdict[1] == "parse-error", \
            (vc.name, verdict)


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
