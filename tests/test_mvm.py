"""Trees of conditional stopping laws: validity, termination, surgery."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcstop import (
    ConfigError,
    CostSpec,
    CoverageError,
    DiscreteMeasure,
    LatticeSpec,
    MvmTree,
    NodeId,
    SizeGuardError,
    StoppingKernel,
    ValidationError,
    accumulate,
    extract_policy,
    feasible_kernel,
    from_kernel,
    marginal_of,
    mvm_to_json,
    objective_value,
    solve,
    to_kernel,
    validate,
)

from dcstop.cli import render
from dcstop.lattice import atom_steps, heap_history, histories, history_to_str
from dcstop.lattice import node_count, states_at_step
from dcstop.mvm import MARTINGALE_TOL, MvmViolation, _json_floats

from paper_checks import SpliceError, extract_continuation, oracle_value, splice, termination
from conftest import (
    heap_row,
    kernel_dict,
    kernel_from_dict,
    kernel_node,
    mvm_from_json,
    random_kernel,
    random_measure,
    reference_tree_to_kernel,
    root_measure,
    stop_cost,
    tree_dict,
    tree_from_dict,
)

INDICATOR = CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0})


def worked_tree() -> MvmTree:
    """Tree of the depth-2 rule that stops at the up node and rides the down node."""
    spec = LatticeSpec(depth=2, dt=1.0)
    q = {
        NodeId(step=1, level=1): 1.0,
        NodeId(step=1, level=-1): 0.0,
        NodeId(step=2, level=2): 1.0,
        NodeId(step=2, level=0): 1.0,
        NodeId(step=2, level=-2): 1.0,
    }
    return from_kernel(kernel_from_dict(spec, (1.0, 2.0), q))


def constant_tree(weights: tuple[float, ...], atoms=(1.0, 2.0), depth=2) -> MvmTree:
    return MvmTree(1.0, atoms, np.tile(weights, (2 ** (depth + 1) - 1, 1)))


def reference_from_kernel(kernel):
    """Per-leaf hazard products, then halving averages: the loop the level sweep replaced."""
    spec = kernel.spec
    steps = kernel.steps
    r = len(steps)
    q = kernel_dict(kernel)
    vectors = {}
    for bits in histories(steps[-1]):
        vec = np.zeros(r)
        surv = 1.0
        for i, s in enumerate(steps):
            qv = 1.0 if i == r - 1 else q[kernel_node(spec, bits[:s])]
            vec[i] = surv * qv
            surv *= 1.0 - qv
        vectors[bits] = vec
    for s in range(steps[-1] - 1, -1, -1):
        for bits in histories(s):
            vectors[bits] = 0.5 * (vectors[bits + (1,)] + vectors[bits + (0,)])
    return vectors


def mixed_kernel(spec, atoms, rng) -> StoppingKernel:
    """Stop probabilities of exactly 0, exactly 1 and in between, so some branches die."""
    steps = atom_steps(spec, atoms)
    q = []
    for s in steps[:-1]:
        u = rng.random(node_count(spec, s))
        q.append(np.where(u < 0.3, 0.0, np.where(u < 0.5, 1.0, rng.random(u.size))))
    return StoppingKernel(spec, atoms, q + [np.ones(node_count(spec, steps[-1]))])


def _bits_node(bits) -> NodeId:
    return NodeId(step=len(bits), history=bits)


def reference_validate(mvm, mu=None, tol=MARTINGALE_TOL):
    """The dict walk the array checks replaced: node by node, step by step, in code order."""
    vectors = tree_dict(mvm)
    if mu is not None:
        target = np.zeros(len(mvm.atom_times))
        lookup = {t: w for t, w in zip(mu.atoms, mu.weights)}
        for i, t in enumerate(mvm.atom_times):
            for a, w in list(lookup.items()):
                if abs(a - t) <= 1e-9:
                    target[i] = w
                    del lookup[a]
        if lookup:
            return MvmViolation(_bits_node(()), "root", 1.0)
        res = float(np.max(np.abs(vectors[()] - target)))
        if res > tol:
            return MvmViolation(_bits_node(()), "root", res)
    for s in range(mvm.depth):
        for bits in histories(s):
            vec = vectors[bits]
            up = vectors[bits + (1,)]
            down = vectors[bits + (0,)]
            res = float(np.max(np.abs(vec - 0.5 * (up + down))))
            if res > tol:
                return MvmViolation(_bits_node(bits), "martingale", res)
    for s in range(mvm.depth):
        frozen = [i for i, r in enumerate(mvm.steps) if r <= s]
        if not frozen:
            continue
        for bits in histories(s):
            vec = vectors[bits]
            for child in (bits + (1,), bits + (0,)):
                cvec = vectors[child]
                res = max(abs(float(vec[i] - cvec[i])) for i in frozen)
                if res > tol:
                    return MvmViolation(_bits_node(bits), "adapted", res)
    for s in range(mvm.depth + 1):
        for bits in histories(s):
            vec = vectors[bits]
            if float(vec.min()) < -tol:
                return MvmViolation(_bits_node(bits), "normalized", -float(vec.min()))
            res = abs(float(vec.sum()) - 1.0)
            if res > tol:
                return MvmViolation(_bits_node(bits), "normalized", res)
    return None


KERNEL_SPECS = [
    LatticeSpec(depth=8, dt=1.0),
    LatticeSpec(depth=7, dt=1.0, augment_max=True),
    LatticeSpec(depth=6, dt=1.0, mode="history"),
]


class TestFromKernel:
    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=["recombining", "max", "history"])
    def test_matches_the_per_leaf_loop(self, spec):
        # Byte for byte, on random kernels, mixed ones whose dead branches
        # carry exact zeros, and feasibility witnesses of depth 2-13 on the
        # same kind of lattice.
        rng = np.random.default_rng(spec.depth)
        kernels = [make(spec, atoms, rng) for make in (random_kernel, mixed_kernel)
                   for atoms in ((float(spec.depth),), (1.0, 3.0, float(spec.depth)), (2.0, 4.0, 5.0))]
        for _ in range(20):
            depth = int(rng.integers(2, 14))
            steps = rng.choice(np.arange(1, depth + 1), int(rng.integers(1, min(4, depth) + 1)),
                               replace=False)
            mu = random_measure(rng, [0.5 * s for s in sorted(steps)])
            witness = LatticeSpec(depth=depth, dt=0.5, mode=spec.mode, augment_max=spec.augment_max)
            kernels.append(feasible_kernel(witness, mu, rng))
        for kernel in kernels:
            want = reference_from_kernel(kernel)
            rows = np.array([want[heap_history(h)] for h in range(len(want))])
            assert from_kernel(kernel).vectors.tobytes() == rows.tobytes()

    def test_a_subnormal_history_mass_keeps_the_path_mass(self):
        # Each path stops with 1e-305 at step 10; that path's history mass,
        # 2^-10 as much, is subnormal, so scaling it back lost bits.
        spec = LatticeSpec(depth=12, dt=1.0)
        kernel = StoppingKernel(spec, (10.0, 12.0), [np.full(node_count(spec, 10), 1e-305),
                                                     np.ones(node_count(spec, 12))])
        vectors = from_kernel(kernel).vectors
        assert (vectors[:, 0] == 1e-305).all()
        assert (vectors[:, 1] == 1.0).all()

    def test_worked_tree_vectors(self):
        tree = worked_tree()
        vectors = tree_dict(tree)
        assert vectors[()] == pytest.approx((0.5, 0.5), abs=1e-15)
        assert vectors[(1,)] == pytest.approx((1.0, 0.0), abs=1e-15)
        assert vectors[(0,)] == pytest.approx((0.0, 1.0), abs=1e-15)
        for leaf in histories(tree.depth):
            expect = (1.0, 0.0) if leaf[0] == 1 else (0.0, 1.0)
            assert vectors[leaf] == pytest.approx(expect, abs=1e-15)

    def test_root_equals_kernel_marginal(self):
        rng = np.random.default_rng(31)
        spec = LatticeSpec(depth=3, dt=0.5)
        kernel = random_kernel(spec, (0.5, 1.0, 1.5), rng)
        tree = from_kernel(kernel)
        marg = marginal_of(kernel)
        assert root_measure(tree).atoms == marg.atoms
        assert tree.vectors[0] == pytest.approx(marg.weights, abs=1e-14)

    def test_leaf_average_reproduces_root(self):
        rng = np.random.default_rng(32)
        spec = LatticeSpec(depth=3, dt=0.5)
        tree = from_kernel(random_kernel(spec, (0.5, 1.5), rng))
        leaves = tree.vectors[heap_row((0,) * tree.depth):]
        assert len(leaves) == 2 ** tree.depth
        assert leaves.sum(axis=0) / 2 ** tree.depth == pytest.approx(tree.vectors[0], abs=1e-14)

    def test_always_validates(self):
        rng = np.random.default_rng(33)
        for mode in ("recombining", "history"):
            spec = LatticeSpec(depth=4, dt=0.25, mode=mode)
            kernel = random_kernel(spec, (0.25, 0.5, 1.0), rng)
            tree = from_kernel(kernel)
            violation = validate(tree, mu=marginal_of(kernel))
            assert violation is None, violation

    def test_depth_guard(self):
        spec = LatticeSpec(depth=17, dt=1.0)
        kernel = random_kernel(spec, (1.0, 17.0), np.random.default_rng(34))
        with pytest.raises(SizeGuardError,
                           match=r"^law tree walks 2\^17 histories \(limit 2\^16\)$"):
            from_kernel(kernel)


def _shifted(vectors: np.ndarray, row: int, d: np.ndarray) -> None:
    """Add ``d`` to the node at ``row`` and to all of its descendants."""
    k = 0
    while ((row + 1) << k) - 1 < len(vectors):
        vectors[((row + 1) << k) - 1:((row + 2) << k) - 1] += d
        k += 1


def corrupted_tree(rng):
    """A valid law tree with a few random defects, each aimed at one property.

    Returns the tree and the target law to check its root against (or None).
    A martingale defect moves weight between two atoms of one node.  An
    adapted or normalized defect moves weight between two atoms across a
    whole child subtree and back across its sibling's, which keeps every mean
    and every sum: it breaks only the freezing rule when one atom is frozen at
    the parent, else only positivity, when the move is large.
    """
    depth = int(rng.integers(2, 7))
    spec = LatticeSpec(depth=depth, dt=1.0)
    steps = sorted(rng.choice(np.arange(1, depth + 1), size=min(3, depth), replace=False))
    kernel = random_kernel(spec, tuple(float(s) for s in steps), rng)
    tree = from_kernel(kernel)
    vectors = np.array(tree.vectors)
    r = len(tree.atom_times)
    for _ in range(int(rng.integers(1, 5))):
        kind = rng.choice(["martingale", "subtree", "subtree"])
        size = 10.0 ** rng.uniform(-14, -0.3)
        d = np.zeros(r)
        if kind == "martingale":
            i, j = rng.choice(r, size=2, replace=False)
            d[i], d[j] = size, -size
            vectors[int(rng.integers(1, len(vectors)))] += d
            continue
        h = int(rng.integers(0, len(vectors) // 2))
        s = len(heap_history(h))
        frozen = [i for i in range(r) if tree.steps[i] <= s]
        ahead = [i for i in range(r) if tree.steps[i] > s]
        if frozen and rng.random() < 0.5:
            i, j = rng.choice(frozen), rng.choice(ahead)
        elif len(ahead) > 1:
            i, j = rng.choice(ahead, size=2, replace=False)
        else:
            continue
        d[i], d[j] = size, -size
        _shifted(vectors, 2 * h + 2, d)
        _shifted(vectors, 2 * h + 1, -d)
    pick = rng.random()
    if pick < 0.5:
        mu = None
    elif pick < 0.8:
        mu = root_measure(tree)
    elif pick < 0.9:
        mu = random_measure(rng, tree.atom_times)
    else:
        mu = DiscreteMeasure((tree.atom_times[-1] + 0.5,), (1.0,))
    return MvmTree(tree.dt, tree.atom_times, vectors), mu


class TestValidate:
    def test_reports_match_the_dict_walk_on_corrupted_trees(self, monkeypatch):
        rng = np.random.default_rng(70)
        seen = set()
        for _ in range(300):
            tree, mu = corrupted_tree(rng)
            # Other tolerances put other corruptions on either side of the bound.
            for tol in (MARTINGALE_TOL, 1e-9, 1e-5):
                monkeypatch.setattr("dcstop.mvm.MARTINGALE_TOL", tol)
                want = reference_validate(tree, mu, tol)
                assert validate(tree, mu) == want
                seen.add(want.prop if want else "ok")
        assert seen == {"ok", "root", "martingale", "adapted", "normalized"}

    def test_constant_tree_is_valid(self):
        assert validate(constant_tree((0.5, 0.5))) is None

    def test_martingale_violation_reported_at_parent(self):
        tree = constant_tree((0.5, 0.5))
        vectors = np.array(tree.vectors)
        vectors[heap_row((1,))] += [1e-3, -1e-3]
        bad = MvmTree(1.0, tree.atom_times, vectors)
        violation = validate(bad)
        assert violation.prop == "martingale"
        assert violation.node.step == 0
        assert violation.residual == pytest.approx(5e-4, abs=1e-12)

    def test_lowest_code_reported_among_one_steps_violations(self):
        # Both step-2 parents (1, 1) and (0, 1) break the martingale property;
        # the one with the lower code is reported, although its residual is
        # the larger one.
        tree = constant_tree((0.5, 0.5), atoms=(1.0, 3.0), depth=3)
        vectors = np.array(tree.vectors)
        for parent, nudge in (((1, 1), 1e-3), ((0, 1), 2e-3)):
            for child in (parent + (1,), parent + (0,)):
                vectors[heap_row(child)] += [nudge, -nudge]
        violation = validate(MvmTree(1.0, tree.atom_times, vectors))
        assert violation.prop == "martingale"
        assert violation.node.history == (0, 1)
        assert violation.residual == pytest.approx(2e-3, abs=1e-12)

    def test_frozen_coordinate_drift_is_adapted_violation(self):
        # Mirror-image nudges on the two children keep their average intact,
        # so only the freezing rule trips.
        tree = constant_tree((0.5, 0.5))
        vectors = np.array(tree.vectors)
        vectors[heap_row((1, 1))] += [1e-3, -1e-3]
        vectors[heap_row((1, 0))] += [-1e-3, 1e-3]
        bad = MvmTree(1.0, tree.atom_times, vectors)
        violation = validate(bad)
        assert violation.prop == "adapted"
        assert violation.node.step == 1
        assert violation.residual == pytest.approx(1e-3, abs=1e-12)

    def test_negative_weight_is_normalization_violation(self):
        tree = constant_tree((0.5, 0.5))
        bad = MvmTree(1.0, tree.atom_times, np.tile([1.1, -0.1], (len(tree.vectors), 1)))
        violation = validate(bad)
        assert violation.prop == "normalized"

    def test_root_law_mismatch(self):
        violation = validate(constant_tree((0.5, 0.5)),
                             mu=DiscreteMeasure((1.0, 2.0), (0.25, 0.75)))
        assert violation.prop == "root"
        assert violation.residual == pytest.approx(0.25, abs=1e-12)

    def test_root_law_with_unknown_atom(self):
        violation = validate(constant_tree((0.5, 0.5)),
                             mu=DiscreteMeasure((3.0,), (1.0,)))
        assert violation.prop == "root"


class TestTermination:
    def test_point_mass_tree_terminates(self):
        tree = constant_tree((0.0, 1.0))
        report = termination(tree)
        assert report.terminating
        assert set(report.tau.tolist()) == {2.0}

    def test_diffuse_tree_does_not(self):
        report = termination(constant_tree((0.5, 0.5)))
        assert not report.terminating
        assert report.tau is None
        assert report.first_diffuse == NodeId(step=2, history=(0, 0))

    def test_worked_tree_stopping_times(self):
        report = termination(worked_tree())
        assert report.terminating
        for leaf, t in zip(histories(2), report.tau):
            assert t == (1.0 if leaf[0] == 1 else 2.0)

    def test_pure_kernels_make_terminating_trees(self):
        rng = np.random.default_rng(34)
        spec = LatticeSpec(depth=3, dt=1.0)
        for _ in range(5):
            q = {}
            for s in (1, 2, 3):
                for node in [NodeId(step=s, level=l) for l in range(-s, s + 1, 2)]:
                    q[node] = 1.0 if s == 3 else float(rng.integers(0, 2))
            tree = from_kernel(kernel_from_dict(spec, (1.0, 2.0, 3.0), q))
            assert termination(tree).terminating

    def test_terminating_trees_make_pure_kernels(self):
        kernel = to_kernel(worked_tree())
        assert set(kernel_dict(kernel).values()) <= {0.0, 1.0}
        diffuse = to_kernel(constant_tree((0.5, 0.5)))
        assert any(0.0 < v < 1.0 for v in kernel_dict(diffuse).values())


class TestKernelRoundTrip:
    def test_identity_on_history_kernels(self):
        rng = np.random.default_rng(35)
        spec = LatticeSpec(depth=3, dt=0.5, mode="history")
        kernel = random_kernel(spec, (0.5, 1.0, 1.5), rng)
        again = to_kernel(from_kernel(kernel))
        assert again.atom_times == kernel.atom_times
        assert again.spec == spec
        got = kernel_dict(again)
        for node, v in kernel_dict(kernel).items():
            assert got[node] == pytest.approx(v, abs=1e-12)

    def test_recombining_kernels_keep_their_law(self):
        rng = np.random.default_rng(36)
        spec = LatticeSpec(depth=3, dt=0.5)
        kernel = random_kernel(spec, (0.5, 1.5), rng)
        again = to_kernel(from_kernel(kernel))
        cost = CostSpec(kind="terminal", name="square")
        assert marginal_of(again).weights == pytest.approx(
            marginal_of(kernel).weights, abs=1e-12)
        assert objective_value(again, cost) == pytest.approx(
            objective_value(kernel, cost), abs=1e-12)

    def test_hazards_match_the_tree_route_they_replaced(self):
        # Byte for byte, on trees from kernels with dead branches, witnesses
        # and solved policies.
        rng = np.random.default_rng(38)
        trees = []
        for spec in KERNEL_SPECS:
            for atoms in ((1.0, 3.0, float(spec.depth)), (2.0, 4.0, 5.0)):
                trees += [from_kernel(make(spec, atoms, rng))
                          for make in (random_kernel, mixed_kernel)]
                mu = random_measure(rng, atoms)
                trees.append(from_kernel(feasible_kernel(spec, mu, rng)))
        for cost in (INDICATOR, CostSpec(kind="terminal", name="abs")):
            spec = LatticeSpec(depth=5, dt=1.0, augment_max=True)
            table = solve(spec, cost, random_measure(rng, (1.0, 3.0, 5.0)), resolution=10)
            trees.append(extract_policy(table))
        for tree in trees:
            got, want = to_kernel(tree), reference_tree_to_kernel(tree)
            assert got.spec == want.spec and got.atom_times == want.atom_times
            assert [q.tobytes() for q in got.q] == [q.tobytes() for q in want.q]

    def test_a_continuation_converts_in_its_own_clock(self):
        # Below the up node, the atoms at steps 2 and 3 come 1 and 2 steps on.
        base = from_kernel(random_kernel(LatticeSpec(depth=3, dt=1.0), (1.0, 2.0, 3.0),
                                         np.random.default_rng(0)))
        cont = extract_continuation(base, (1,))
        kernel = to_kernel(cont)
        assert (kernel.spec, kernel.atom_times) == (LatticeSpec(depth=2, dt=1.0, mode="history"),
                                                    (1.0, 2.0))
        assert marginal_of(kernel).weights == pytest.approx(cont.vectors[0], abs=1e-14)


def point_mass_continuation(cont: MvmTree) -> MvmTree:
    """All of the future at the continuation's first atom: a right shift of any law ahead."""
    return MvmTree(cont.dt, cont.atom_times[:1], np.ones((2 ** (cont.steps[0] + 1) - 1, 1)))


class TestSplice:
    def make_base(self, seed=37):
        rng = np.random.default_rng(seed)
        spec = LatticeSpec(depth=3, dt=1.0)
        mu = random_measure(rng, (1.0, 2.0, 3.0))
        kernel = feasible_kernel(spec, mu, rng)
        return spec, mu, from_kernel(kernel)

    def test_surgery_on_random_trees(self):
        # Extracting a continuation and splicing it back is the identity, and
        # splicing its flat and point-mass variants keeps a valid tree on the
        # same root law.
        rng = np.random.default_rng(71)
        for _ in range(80):
            depth = int(rng.integers(2, 7))
            spec = LatticeSpec(depth=depth, dt=0.5, augment_max=bool(rng.integers(0, 2)))
            steps = sorted(rng.choice(np.arange(1, depth + 1), size=min(3, depth), replace=False))
            base = from_kernel(random_kernel(spec, tuple(0.5 * s for s in steps), rng))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=int(rng.integers(0, base.depth))))
            cont = extract_continuation(base, bits)
            # The continuation's clock starts at the node.
            assert cont.dt == base.dt
            assert {s + len(bits) for s in cont.steps} <= set(base.steps)
            assert np.abs(cont.vectors.sum(axis=1) - 1.0).max() <= 1e-12
            again = splice(base, bits, cont)
            assert again.vectors == pytest.approx(base.vectors, abs=1e-12)
            flat = MvmTree(cont.dt, cont.atom_times,
                           np.tile(cont.vectors[0], (len(cont.vectors), 1)))
            for other in (flat, point_mass_continuation(cont)):
                assert validate(splice(base, bits, other), mu=root_measure(base)) is None

    def test_missing_node_rejected(self):
        _, _, base = self.make_base()
        for bits in ((0, 1, 1, 0), (2,)):
            with pytest.raises(SpliceError, match="not in the tree"):
                extract_continuation(base, bits)

    def test_self_splice_is_identity(self):
        _, _, base = self.make_base()
        cont = extract_continuation(base, (1,))
        again = splice(base, (1,), cont)
        assert again.vectors == pytest.approx(base.vectors, abs=1e-12)

    def test_point_mass_continuation_validates(self):
        tree = worked_tree()
        cont = MvmTree(1.0, (1.0,), np.ones((3, 1)))
        again = splice(tree, (0,), cont)
        assert validate(again, mu=root_measure(tree)) is None
        assert again.vectors == pytest.approx(tree.vectors, abs=1e-12)

    def test_incompatible_root_law_rejected(self):
        tree = worked_tree()
        cont = MvmTree(1.0, (1.0,), np.ones((3, 1)))
        with pytest.raises(SpliceError):
            splice(tree, (1,), cont)  # future mass at that node is zero

    def test_another_step_width_rejected(self):
        cont = MvmTree(0.5, (1.0,), np.ones((7, 1)))
        with pytest.raises(SpliceError, match="different step width"):
            splice(worked_tree(), (0,), cont)

    def test_an_atom_at_the_splice_time_rejected(self):
        # The splice time is 0 in the continuation's clock, before a tree's first step.
        with pytest.raises(CoverageError, match="must lie at or after the first step"):
            MvmTree(1.0, (0.0,), [[1.0]])

    def test_a_later_root_law_rejected(self):
        # The down node stops one step on; a continuation stopping two steps on
        # moves mass left.
        cont = MvmTree(1.0, (2.0,), np.ones((7, 1)))
        with pytest.raises(SpliceError, match="not coupled-compatible"):
            splice(worked_tree(), (0,), cont)

    def test_reweighted_continuation_keeps_root_and_validity(self):
        spec, mu, base = self.make_base(seed=38)
        bits = (0,)
        cont = extract_continuation(base, bits)
        flat = np.tile(cont.vectors[0], (len(cont.vectors), 1))
        flat_tree = MvmTree(cont.dt, cont.atom_times, flat)
        again = splice(base, bits, flat_tree)
        assert validate(again, mu=mu) is None
        row = heap_row(bits)
        assert again.vectors[row] == pytest.approx(base.vectors[row], abs=1e-12)

    def test_improving_both_halves_never_hurts(self):
        # Swap in the best member of a one-parameter continuation family at
        # each first-step node; the family contains the incumbent, so the
        # objective cannot drop, and it can never beat the exact optimum for
        # the same root law.
        spec, mu, base = self.make_base(seed=39)
        before = accumulate(base, INDICATOR)
        tree = base
        for bits in ((1,), (0,)):
            tree = self._splice_best(tree, bits, spec)
        after = accumulate(tree, INDICATOR)
        assert after >= before - 1e-12
        assert after <= oracle_value(spec, INDICATOR, mu) + 1e-9

    @staticmethod
    def _splice_best(tree: MvmTree, bits, spec: LatticeSpec) -> MvmTree:
        incumbent = extract_continuation(tree, bits)
        zeta = incumbent.vectors[0]
        z2 = float(zeta[0])
        lo, hi = max(0.0, 2.0 * z2 - 1.0), min(1.0, 2.0 * z2)
        best, best_val = None, -np.inf
        params = list(np.linspace(lo, hi, 41)) + [float(incumbent.vectors[heap_row((1,))][0])]
        for a in params:
            b = 2.0 * z2 - a
            if not (-1e-12 <= b <= 1.0 + 1e-12):
                continue
            vecs = {(): np.array([z2, 1.0 - z2]),
                    (1,): np.array([a, 1.0 - a]),
                    (0,): np.array([b, 1.0 - b]),
                    (1, 1): np.array([a, 1.0 - a]),
                    (1, 0): np.array([a, 1.0 - a]),
                    (0, 1): np.array([b, 1.0 - b]),
                    (0, 0): np.array([b, 1.0 - b])}
            cand = tree_from_dict(tree.dt, incumbent.atom_times, vecs)
            spliced = splice(tree, bits, cand)
            val = accumulate(spliced, INDICATOR)
            if val > best_val:
                best, best_val = spliced, val
        return best


class TestAccumulate:
    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=["recombining", "max", "history"])
    def test_matches_the_parent_first_loop(self, spec):
        rng = np.random.default_rng(50 + spec.depth)
        tree = from_kernel(random_kernel(spec, (1.0, 3.0, float(spec.depth)), rng))
        cost = CostSpec(kind="terminal", name="abs")
        hist = LatticeSpec(depth=tree.depth, dt=tree.dt, mode="history")
        vectors = tree_dict(tree)
        # Each node's payoff so far: its parent's, plus the cost paid at its own step.
        want = {(): 0.0}
        for bits in sorted(vectors, key=len):
            if bits:
                want[bits] = want[bits[:-1]]
                if len(bits) in tree.steps:
                    i = tree.steps.index(len(bits))
                    node = NodeId(step=len(bits), history=bits)
                    want[bits] += stop_cost(cost, hist, node) * float(vectors[bits][i])
        leaves = [want[b] for b in histories(tree.depth)]
        got = accumulate(tree, cost)
        assert got == math.fsum(np.array(leaves) * 2.0 ** -tree.depth)
        assert got == math.fsum(leaves) / 2 ** tree.depth
        assert got == pytest.approx(sum(leaves) / 2 ** tree.depth, rel=1e-14, abs=1e-15)

    def test_a_continuation_accumulates_in_its_own_clock(self):
        # Its costs are read at the states of the node's own restarted walk.
        rng = np.random.default_rng(45)
        base = from_kernel(random_kernel(LatticeSpec(depth=4, dt=0.5), (0.5, 1.0, 2.0), rng))
        cost = CostSpec(kind="terminal", name="abs")
        for bits in ((), (1,), (0, 1)):
            cont = extract_continuation(base, bits)
            assert accumulate(cont, cost) == pytest.approx(
                objective_value(to_kernel(cont), cost), abs=1e-12)

    def test_worked_tree_leaf_values(self):
        # The leaves that stop at the up node pay 1, the others 0.
        assert accumulate(worked_tree(), INDICATOR) == 0.5

    def test_flat_before_first_atom(self, monkeypatch):
        # Costs are read at the atom steps only, so nothing is paid before step 2.
        rng = np.random.default_rng(40)
        spec = LatticeSpec(depth=3, dt=1.0)
        kernel = random_kernel(spec, (2.0, 3.0), rng)
        read = []
        monkeypatch.setattr("dcstop.mvm.states_at_step",
                            lambda spec, s: read.append(s) or states_at_step(spec, s))
        accumulate(from_kernel(kernel), CostSpec(kind="terminal", name="square"))
        assert read == [2, 3]

    def test_martingale_driver_accumulates_to_zero(self):
        rng = np.random.default_rng(41)
        spec = LatticeSpec(depth=4, dt=0.25)
        kernel = random_kernel(spec, (0.5, 0.75, 1.0), rng)
        got = accumulate(from_kernel(kernel), CostSpec(kind="terminal", name="identity"))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_matches_kernel_objective(self):
        rng = np.random.default_rng(42)
        spec = LatticeSpec(depth=3, dt=0.5)
        kernel = random_kernel(spec, (0.5, 1.0, 1.5), rng)
        cost = CostSpec(kind="terminal", name="abs")
        expect = objective_value(kernel, cost)
        assert accumulate(from_kernel(kernel), cost) == pytest.approx(expect, abs=1e-12)


def payload(tree: MvmTree) -> dict:
    return json.loads(render(mvm_to_json(tree)))


# Floats whose text is easy to get wrong: both zeros side by side,
# subnormals, reprs with an exponent, and ones that need 17 digits.
AWKWARD = (0.0, -0.0, 5e-324, 2.5e-310, 1e-05, 1e+16, -1.5e-07, 0.1, 1.0 / 3.0, 1.2345678901234568e+17)


class TestConstruction:
    def test_array_of_the_wrong_shape(self):
        tree = constant_tree((0.5, 0.5))
        for shape in ((6, 2), (7, 1), (7, 2, 1), (14,)):
            with pytest.raises(ValidationError, match=r"expected \(7, 2\)"):
                MvmTree(1.0, tree.atom_times, np.full(shape, 0.5))

    def test_vectors_beyond_last_atom(self):
        # A whole extra step: one step more than the atoms reach.
        data = payload(constant_tree((0.5, 0.5), atoms=(1.0, 3.0), depth=3))
        data["atom_times"] = [1.0, 2.0]
        with pytest.raises(ValidationError, match=r"shape \(15, 2\), expected \(7, 2\)"):
            mvm_from_json(data)

    def test_off_grid_atom_time(self):
        with pytest.raises(CoverageError, match="not on the step grid"):
            MvmTree(1.0, (1.5,), np.ones((3, 1)))

    def test_atoms_colliding_on_one_step(self):
        # Both snap onto step 1, where to_kernel could not tell them apart.
        with pytest.raises(CoverageError, match="collide"):
            MvmTree(1.0, [1.0, 1.0 + 5e-10], np.full((3, 2), 0.5))

    def test_atom_before_start(self):
        with pytest.raises(CoverageError, match="at or after the first step"):
            MvmTree(1.0, (0.0, 1.0), np.ones((3, 2)))

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.inf, math.nan])
    def test_dt_positive_and_finite(self, dt):
        with pytest.raises(ConfigError, match="^dt must (exceed 3e-09|be a finite number)"):
            MvmTree(dt, (1.0,), np.ones((3, 1)))

    def test_atom_times_increase(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            MvmTree(1.0, (2.0, 1.0), np.full((7, 2), 0.5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights(self, value):
        vectors = np.ones((3, 1))
        vectors[1, 0] = value
        with pytest.raises(ValidationError, match="finite"):
            MvmTree(1.0, (1.0,), vectors)

    def test_immutable(self):
        tree = constant_tree((0.5, 0.5))
        with pytest.raises(AttributeError):
            tree.dt = 2.0
        with pytest.raises(ValueError, match="read-only"):
            tree.vectors[0, 0] = 1.0

    def test_built_from_a_copy(self):
        vectors = np.full((7, 2), 0.5)
        tree = MvmTree(1.0, (1.0, 2.0), vectors)
        vectors[0, 0] = 1.0
        assert validate(tree) is None


class TestJson:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 4), st.sampled_from((1.0, 0.5, 0.25)),
           st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_writer_matches_the_standard_encoder(self, depth, atoms, dt, drawn, seed):
        # The writer's bytes against json.dumps of the document with its
        # nodes keyed one history at a time.
        rng = np.random.default_rng(seed)
        early = rng.choice(np.arange(1, depth), min(atoms, depth) - 1, replace=False)
        times = [dt * s for s in sorted([*early.tolist(), depth])]
        pool = np.array([*AWKWARD, *drawn])
        vectors = rng.choice(pool, size=(2 ** (depth + 1) - 1, len(times)))
        head = min(vectors.size, len(AWKWARD))
        vectors.flat[:head] = pool[:head]
        tree = MvmTree(dt, times, vectors)
        nodes = {history_to_str(heap_history(h)): row for h, row in enumerate(vectors.tolist())}
        document = {"dt": dt, "atom_times": times, "nodes": nodes, "version": "0.1.0"}
        want = json.dumps(document, sort_keys=True, indent=2) + "\n"
        assert render({**mvm_to_json(tree), "version": "0.1.0"}) == want

    def test_floats_are_told_apart_by_bits_and_written_as_json_writes_them(self):
        values = np.array([0.0, -0.0, 0.0, math.nan, math.inf, -math.inf, 1e-05, 1e-05])
        assert _json_floats(values) == json.dumps(values.tolist())[1:-1].split(", ")

    def test_round_trip(self):
        rng = np.random.default_rng(43)
        spec = LatticeSpec(depth=3, dt=0.5)
        tree = from_kernel(random_kernel(spec, (0.5, 1.5), rng))
        again = mvm_from_json(payload(tree))
        assert (again.atom_times, again.steps) == (tree.atom_times, tree.steps)
        assert np.array_equal(again.vectors, tree.vectors)

    def test_continuation_round_trip(self):
        rng = np.random.default_rng(44)
        spec = LatticeSpec(depth=4, dt=1.0)
        base = from_kernel(random_kernel(spec, (1.0, 3.0, 4.0), rng))
        cont = extract_continuation(base, (1,))
        data = payload(cont)
        assert sorted(data) == ["atom_times", "dt", "nodes"]
        again = mvm_from_json(data)
        assert again.atom_times == cont.atom_times == (2.0, 3.0)
        assert np.array_equal(again.vectors, cont.vectors)

    def test_depth_12_policy_round_trip_is_exact(self):
        spec = LatticeSpec(depth=12, dt=1.0)
        mu = DiscreteMeasure((4.0, 8.0, 12.0), (0.3, 0.3, 0.4))
        tree = extract_policy(solve(spec, CostSpec(kind="terminal", name="abs"), mu, 10))
        assert tree.vectors.shape == (2 ** 13 - 1, 3)
        again = mvm_from_json(payload(tree))
        assert (again.dt, again.atom_times, again.depth) == (tree.dt, tree.atom_times, 12)
        assert np.array_equal(again.vectors, tree.vectors)
