"""Binomial driver lattice: nodes, probabilities, state, both indexings."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from dcstop import (
    ConfigError,
    CoverageError,
    LatticeSpec,
    MvmTree,
    NodeId,
    NoChildrenError,
    StoppingKernel,
    ValidationError,
    atom_steps,
    node_to_json,
    nodes_at_step,
    root,
    spec_from_json,
    time_to_step,
)
from dcstop.lattice import MAX_HISTORY_DEPTH, TIME_SNAP_TOL, child_positions
from dcstop.lattice import node_count, states_at_step
from dcstop.measures import ATOM_MERGE_TOL
from dcstop.mvm import _node
from dcstop.rst import _advance
from conftest import children, node_from_json, node_prob, project_to_recombining, state


def walk_stats(n: int) -> Counter:
    """(end level, running max level) counts over all n-step walks, by brute force."""
    out: Counter = Counter()
    for ups in itertools.product((1, -1), repeat=n):
        level = m = 0
        for u in ups:
            level += u
            m = max(m, level)
        out[(level, m)] += 1
    return out


class TestChildren:
    def test_root_successors(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        up, down = children(spec, root(spec))
        assert (up.level, down.level) == (1, -1)
        assert up.step == down.step == 1

    def test_augmented_up_move_raises_max(self):
        spec = LatticeSpec(depth=3, dt=1.0, augment_max=True)
        node = NodeId(step=1, level=1, max_level=1)
        up, _ = children(spec, node)
        assert (up.step, up.level, up.max_level) == (2, 2, 2)

    def test_augmented_down_move_keeps_max(self):
        spec = LatticeSpec(depth=3, dt=1.0, augment_max=True)
        _, down = children(spec, NodeId(step=1, level=1, max_level=1))
        assert (down.level, down.max_level) == (0, 1)

    def test_terminal_node_has_none(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        with pytest.raises(NoChildrenError):
            children(spec, NodeId(step=2, level=0))

    def test_history_children_append_bits(self):
        spec = LatticeSpec(depth=3, dt=1.0, mode="history")
        up, down = children(spec, NodeId(step=1, history=(1,)))
        assert up.history == (1, 1)
        assert down.history == (1, 0)


class TestPositions:
    @pytest.mark.parametrize("mode,augment", [
        ("recombining", False), ("recombining", True), ("history", False),
    ])
    def test_child_map_matches_children(self, mode, augment):
        for depth in range(1, 9):
            spec = LatticeSpec(depth=depth, dt=1.0, mode=mode, augment_max=augment)
            for s in range(depth):
                nxt = nodes_at_step(spec, s + 1)
                want = []
                for node in nodes_at_step(spec, s):
                    up, down = children(spec, node)
                    want.append([nxt.index(down), nxt.index(up)])
                child = child_positions(spec, s)
                assert child.tolist() == want
                # Every node one step on has one or two parents, never more.
                parents = np.bincount(child.ravel())
                assert len(parents) == len(nxt)
                assert parents.min() >= 1 and parents.max() <= 2

    @pytest.mark.parametrize("mode,augment", [
        ("recombining", False), ("recombining", True), ("history", False),
    ])
    def test_node_count(self, mode, augment):
        spec = LatticeSpec(depth=9, dt=1.0, mode=mode, augment_max=augment)
        assert [node_count(spec, s) for s in range(10)] == \
            [len(nodes_at_step(spec, s)) for s in range(10)]

    def test_positions_follow_the_stated_convention(self):
        s = 5
        hist = LatticeSpec(depth=s, dt=1.0, mode="history")
        assert [heap_code(n.history) for n in nodes_at_step(hist, s)] == list(range(2 ** s))
        plain = LatticeSpec(depth=s, dt=1.0)
        assert [(n.level + s) // 2 for n in nodes_at_step(plain, s)] == list(range(s + 1))
        aug = LatticeSpec(depth=s, dt=1.0, augment_max=True)
        pairs = [(n.level, n.max_level) for n in nodes_at_step(aug, s)]
        assert pairs == sorted(pairs)
        # Exactly the pairs some walk reaches.
        assert set(pairs) == set(walk_stats(s))

    @pytest.mark.parametrize("mode,augment", [
        ("recombining", False), ("recombining", True), ("history", False),
    ])
    def test_every_built_node_is_a_reachable_position(self, mode, augment):
        # NodeId checks nothing itself: its builders are held here to its invariants.
        spec = LatticeSpec(depth=12, dt=1.0, mode=mode, augment_max=augment)
        assert root(spec) == nodes_at_step(spec, 0)[0]
        for s in range(spec.depth + 1):
            nodes = nodes_at_step(spec, s)
            assert len(nodes) == len(set(nodes)) == node_count(spec, s)
            for node in nodes:
                assert node.step == s
                if mode == "history":
                    assert node.level is None and node.max_level is None
                    assert len(node.history) == s and set(node.history) <= {0, 1}
                    continue
                assert node.history is None
                assert abs(node.level) <= s and (node.level + s) % 2 == 0
                if augment:
                    assert max(node.level, 0) <= node.max_level <= (s + node.level) // 2
                else:
                    assert node.max_level is None
            if mode == "history":  # mvm names heap row 2^s - 1 + c by the node at position c
                assert [_node(2 ** s - 1 + c) for c in range(2 ** s)] == nodes

    def test_terminal_step_has_no_child_map(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        with pytest.raises(NoChildrenError):
            child_positions(spec, 2)


def heap_code(bits) -> int:
    return int("".join(map(str, bits)) or "0", 2)


class TestNodeProb:
    def test_history_node(self):
        spec = LatticeSpec(depth=2, dt=1.0, mode="history")
        assert node_prob(spec, NodeId(step=2, history=(1, 0))) == 0.25

    def test_recombining_aggregates_paths(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        assert node_prob(spec, NodeId(step=2, level=0)) == 0.5

    def test_root(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        assert node_prob(spec, root(spec)) == 1.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_augmented_counts_match_brute_force(self, n):
        # The walk census is recomputed by enumerating all 2^n paths; the
        # lattice's closed-form counts must reproduce it state by state.
        spec = LatticeSpec(depth=n, dt=1.0, augment_max=True)
        brute = walk_stats(n)
        seen = {}
        for node in nodes_at_step(spec, n):
            seen[(node.level, node.max_level)] = node_prob(spec, node) * 2 ** n
        assert set(seen) == set(brute)
        for key, count in brute.items():
            assert seen[key] == pytest.approx(count, abs=1e-9)

    @pytest.mark.parametrize("augment, mode", [
        (False, "history"), (False, "recombining"), (True, "recombining"),
    ])
    def test_probabilities_sum_to_one(self, augment, mode):
        spec = LatticeSpec(depth=6, dt=0.5, augment_max=augment, mode=mode)
        for s in range(spec.depth + 1):
            total = sum(node_prob(spec, node) for node in nodes_at_step(spec, s))
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode, augment", [
        ("recombining", False), ("recombining", True), ("history", False),
    ])
    def test_forward_sweep_carries_the_node_probabilities(self, mode, augment):
        spec = LatticeSpec(depth=9, dt=0.5, augment_max=augment, mode=mode)
        mass = np.ones(1)
        for s in range(1, spec.depth + 1):
            mass = _advance(child_positions(spec, s - 1), mass)
            want = [node_prob(spec, node) for node in nodes_at_step(spec, s)]
            assert mass.tolist() == want

    def test_fair_coin_moments(self):
        spec = LatticeSpec(depth=8, dt=0.25)
        for s in range(spec.depth + 1):
            mean = sum(node_prob(spec, n) * state(spec, n).w for n in nodes_at_step(spec, s))
            var = sum(node_prob(spec, n) * state(spec, n).w ** 2 for n in nodes_at_step(spec, s))
            assert mean == pytest.approx(0.0, abs=1e-12)
            assert var == pytest.approx(s * spec.dt, abs=1e-12)


class TestModesAgree:
    @pytest.mark.parametrize("depth", [3, 6, 9])
    def test_state_functionals_match(self, depth):
        hist = LatticeSpec(depth=depth, dt=0.5, mode="history")
        reco = LatticeSpec(depth=depth, dt=0.5, augment_max=True)

        def functionals(st):
            return (st.w ** 3, abs(st.w), st.m * st.m, st.m - st.w)

        for s in (depth // 2, depth):
            acc_h = [0.0] * 4
            for node in nodes_at_step(hist, s):
                p = node_prob(hist, node)
                for i, v in enumerate(functionals(state(hist, node))):
                    acc_h[i] += p * v
            acc_r = [0.0] * 4
            for node in nodes_at_step(reco, s):
                p = node_prob(reco, node)
                for i, v in enumerate(functionals(state(reco, node))):
                    acc_r[i] += p * v
            assert acc_h == pytest.approx(acc_r, abs=1e-12)

    def test_projection_preserves_state(self):
        spec = LatticeSpec(depth=5, dt=0.5, augment_max=True)
        hist = LatticeSpec(depth=5, dt=0.5, mode="history")
        for node in nodes_at_step(hist, 5):
            image = project_to_recombining(spec, node)
            a, b = state(hist, node), state(spec, image)
            assert (a.w, a.m, a.t) == (b.w, b.m, b.t)


class TestState:
    def test_position_and_time(self):
        spec = LatticeSpec(depth=4, dt=0.25)
        st = states_at_step(spec, 3)
        # Position 1 of step 3 is level -1.
        assert st.w[1] == pytest.approx(-math.sqrt(0.25), abs=1e-15)
        assert st.t.tolist() == [0.75] * 4
        assert st.m is None

    def test_history_state_tracks_max(self):
        spec = LatticeSpec(depth=4, dt=1.0, mode="history")
        st = states_at_step(spec, 4)
        up_up_down_down = 0b1100
        assert (st.w[up_up_down_down], st.m[up_up_down_down]) == (0.0, 2.0)

    @pytest.mark.parametrize("spec", [
        LatticeSpec(depth=10, dt=0.3, mode="history"),
        LatticeSpec(depth=14, dt=0.3, augment_max=True),
        LatticeSpec(depth=30, dt=0.3),
    ], ids=["history", "max-augmented", "recombining"])
    def test_matches_the_node_by_node_state(self, spec):
        for s in range(spec.depth + 1):
            st = states_at_step(spec, s)
            want = [state(spec, node) for node in nodes_at_step(spec, s)]
            for field in ("w", "m", "t"):
                got, ref = getattr(st, field), [getattr(x, field) for x in want]
                if ref[0] is None:
                    assert got is None
                else:
                    assert got.dtype == np.float64
                    assert np.ascontiguousarray(got).tobytes() == np.array(ref).tobytes()

    @pytest.mark.parametrize("step", [-1, 4])
    def test_steps_outside_the_lattice(self, step):
        with pytest.raises(CoverageError):
            states_at_step(LatticeSpec(depth=3, dt=1.0, mode="history"), step)


class TestValidation:
    def test_spec_guards(self):
        with pytest.raises(ConfigError):
            LatticeSpec(depth=0, dt=1.0)
        with pytest.raises(ConfigError):
            LatticeSpec(depth=2, dt=0.0)
        with pytest.raises(ConfigError):
            LatticeSpec(depth=2, dt=1.0, mode="trinomial")
        with pytest.raises(ConfigError):
            LatticeSpec(depth=21, dt=1.0, mode="history")
        with pytest.raises(ConfigError):
            LatticeSpec(depth=2, dt=math.inf)
        with pytest.raises(ConfigError):
            LatticeSpec(depth=True, dt=1.0)

    def test_a_step_within_the_merge_and_snap_slack_is_refused(self):
        # At dt = 1e-10 the atoms 2e-10 and 4e-10 merged into one, and the
        # off-grid time 1.5e-10 snapped onto a step.
        bound = ATOM_MERGE_TOL + 2 * TIME_SNAP_TOL
        for dt in (1e-10, bound, 0.0, -1.0):
            with pytest.raises(ConfigError, match=rf"^dt must exceed 3e-09, got {dt!r}$"):
                LatticeSpec(depth=2, dt=dt)
        finest = LatticeSpec(depth=2, dt=math.nextafter(bound, 1.0))
        assert atom_steps(finest, [finest.dt, 2 * finest.dt]) == [1, 2]
        with pytest.raises(CoverageError, match="not on the step grid"):
            atom_steps(finest, [1.5 * finest.dt])

    def test_a_history_lattice_refuses_augment_max(self):
        # A history node's state already holds its running maximum; the flag
        # used to be accepted and ignored, so two equal kernels compared unequal.
        with pytest.raises(ConfigError, match="augment_max applies to recombining lattices only"):
            LatticeSpec(depth=3, dt=1.0, augment_max=True, mode="history")
        with pytest.raises(ConfigError, match="augment_max"):
            spec_from_json({"depth": 3, "dt": 1.0, "augment_max": True, "mode": "history"})

    def test_nodes_at_step_range(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        with pytest.raises(CoverageError):
            nodes_at_step(spec, 3)

    def test_nodes_at_step_deterministic(self):
        spec = LatticeSpec(depth=4, dt=1.0, augment_max=True)
        assert nodes_at_step(spec, 3) == nodes_at_step(spec, 3)


class TestTimeGrid:
    def test_on_grid(self):
        spec = LatticeSpec(depth=4, dt=0.25)
        assert time_to_step(spec, 0.75) == 3

    def test_off_grid(self):
        spec = LatticeSpec(depth=4, dt=0.25)
        with pytest.raises(CoverageError):
            time_to_step(spec, 0.3)

    def test_below_2_to_the_21_the_snap_is_time_snap_tol(self):
        # There 4 ulps of the time are under TIME_SNAP_TOL.
        spec = LatticeSpec(depth=2 ** 21, dt=1.0)
        t = 2.0 ** 21 - 1
        assert time_to_step(spec, t + 0.9 * TIME_SNAP_TOL) == 2 ** 21 - 1
        with pytest.raises(CoverageError, match="not on the step grid"):
            time_to_step(spec, t + 1.5 * TIME_SNAP_TOL)

    def test_beyond_depth(self):
        spec = LatticeSpec(depth=4, dt=0.25)
        with pytest.raises(CoverageError):
            time_to_step(spec, 1.25)

    def test_atom_steps(self):
        spec = LatticeSpec(depth=4, dt=0.25)
        assert atom_steps(spec, [0.25, 1.0]) == [1, 4]

    def test_atom_before_first_step(self):
        spec = LatticeSpec(depth=4, dt=0.25)
        with pytest.raises(CoverageError):
            atom_steps(spec, [0.0, 1.0])

    def test_atom_collision(self):
        spec = LatticeSpec(depth=4, dt=1.0)
        with pytest.raises(CoverageError):
            atom_steps(spec, [1.0, 1.0 + 1e-12])


# Bad lists of atom times, and the error that refuses each.
BAD_ATOM_TIMES = {
    "empty": ([], ValidationError),
    "decreasing": ([2.0, 1.0], ValidationError),
    "off-grid": ([1.0, 2.5], CoverageError),
    "before-step-1": ([0.0, 1.0], CoverageError),
    "one-step": ([1.0, 1.0 + 5e-10], CoverageError),
    "nan": ([1.0, math.nan], CoverageError),
    "inf": ([1.0, math.inf], CoverageError),
}


@pytest.mark.parametrize("times, error", BAD_ATOM_TIMES.values(), ids=BAD_ATOM_TIMES.keys())
def test_atom_steps_kernels_and_law_trees_refuse_alike(times, error):
    # A kernel and a law tree take their steps from ``atom_steps``, the one rule.
    spec = LatticeSpec(depth=MAX_HISTORY_DEPTH, dt=1.0, mode="history")
    refusals = set()
    for make in (lambda: atom_steps(spec, times),
                 lambda: StoppingKernel(spec, times, [[1.0]] * len(times)),
                 lambda: MvmTree(1.0, times, np.ones((3, len(times))))):
        with pytest.raises(error) as refused:
            make()
        refusals.add((type(refused.value), str(refused.value)))
    assert len(refusals) == 1


class TestJson:
    def test_spec_round_trip(self):
        spec = LatticeSpec(depth=3, dt=0.5, augment_max=True, mode="recombining")
        assert spec_from_json(asdict(spec)) == spec

    def test_an_unknown_key_is_refused(self):
        # Dropped, the misspelled flag would leave a plain recombining lattice.
        with pytest.raises(ConfigError, match="^unknown key 'augment_mx'$"):
            spec_from_json({"depth": 3, "dt": 1.0, "augment_mx": True})

    def test_node_round_trips(self):
        for node in (
            NodeId(step=2, level=0),
            NodeId(step=2, level=2, max_level=2),
            NodeId(step=3, history=(1, 0, 1)),
        ):
            assert node_from_json(node_to_json(node)) == node

    def test_history_encoding_uses_letters(self):
        doc = node_to_json(NodeId(step=2, history=(1, 0)))
        assert doc["history"] == "UD"
