"""Trees of conditional stopping laws: validity, termination, surgery."""

from __future__ import annotations

import numpy as np
import pytest

from dcstop import (
    CostSpec,
    DiscreteMeasure,
    LatticeSpec,
    MvmTree,
    NodeId,
    SizeGuardError,
    SpliceError,
    StoppingKernel,
    ValidationError,
    accumulate,
    extract_continuation,
    feasible_kernel,
    from_kernel,
    marginal_of,
    mvm_from_json,
    mvm_to_json,
    objective_value,
    oracle_value,
    random_kernel,
    splice,
    termination,
    to_kernel,
    validate,
)

from conftest import random_measure

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
    return from_kernel(StoppingKernel(spec, (1.0, 2.0), q), spec)


def constant_tree(weights: tuple[float, ...], atoms=(1.0, 2.0), depth=2) -> MvmTree:
    vec = np.asarray(weights, dtype=float)
    vectors = {}
    for s in range(depth + 1):
        for code in range(2 ** s):
            bits = tuple((code >> (s - 1 - i)) & 1 for i in range(s))
            vectors[bits] = vec.copy()
    return MvmTree(1.0, atoms, vectors)


class TestFromKernel:
    def test_worked_tree_vectors(self):
        tree = worked_tree()
        assert tree.vectors[()] == pytest.approx((0.5, 0.5), abs=1e-15)
        assert tree.vectors[(1,)] == pytest.approx((1.0, 0.0), abs=1e-15)
        assert tree.vectors[(0,)] == pytest.approx((0.0, 1.0), abs=1e-15)
        for leaf in tree.leaves():
            expect = (1.0, 0.0) if leaf[0] == 1 else (0.0, 1.0)
            assert tree.vectors[leaf] == pytest.approx(expect, abs=1e-15)

    def test_root_equals_kernel_marginal(self):
        rng = np.random.default_rng(31)
        spec = LatticeSpec(depth=3, dt=0.5)
        kernel = random_kernel(spec, (0.5, 1.0, 1.5), rng)
        tree = from_kernel(kernel, spec)
        marg = marginal_of(kernel, spec)
        assert tree.root_measure().atoms == marg.atoms
        assert tree.root_vector() == pytest.approx(marg.weights, abs=1e-14)

    def test_leaf_average_reproduces_root(self):
        rng = np.random.default_rng(32)
        spec = LatticeSpec(depth=3, dt=0.5)
        tree = from_kernel(random_kernel(spec, (0.5, 1.5), rng), spec)
        avg = sum(tree.vectors[b] for b in tree.leaves()) / 2 ** tree.depth
        assert avg == pytest.approx(tree.root_vector(), abs=1e-14)

    def test_always_validates(self):
        rng = np.random.default_rng(33)
        for mode in ("recombining", "history"):
            spec = LatticeSpec(depth=4, dt=0.25, mode=mode)
            kernel = random_kernel(spec, (0.25, 0.5, 1.0), rng)
            tree = from_kernel(kernel, spec)
            report = validate(tree, mu=marginal_of(kernel, spec))
            assert report.ok, report.violation

    def test_depth_guard(self):
        spec = LatticeSpec(depth=17, dt=1.0)
        kernel = random_kernel(spec, (1.0, 17.0), np.random.default_rng(34))
        with pytest.raises(SizeGuardError, match=r"2\^17 histories \(limit 2\^16\)"):
            from_kernel(kernel, spec)


class TestValidate:
    def test_constant_tree_is_valid(self):
        report = validate(constant_tree((0.5, 0.5)))
        assert report.ok

    def test_martingale_violation_reported_at_parent(self):
        tree = constant_tree((0.5, 0.5))
        vectors = {b: v.copy() for b, v in tree.vectors.items()}
        vectors[(1,)] = vectors[(1,)] + np.array([1e-3, -1e-3])
        bad = MvmTree(1.0, tree.atom_times, vectors)
        report = validate(bad)
        assert not report.ok
        assert report.violation.prop == "martingale"
        assert report.violation.node.step == 0
        assert report.violation.residual == pytest.approx(5e-4, abs=1e-12)

    def test_frozen_coordinate_drift_is_adapted_violation(self):
        # Mirror-image nudges on the two children keep their average intact,
        # so only the freezing rule trips.
        tree = constant_tree((0.5, 0.5))
        vectors = {b: v.copy() for b, v in tree.vectors.items()}
        vectors[(1, 1)] = vectors[(1, 1)] + np.array([1e-3, -1e-3])
        vectors[(1, 0)] = vectors[(1, 0)] + np.array([-1e-3, 1e-3])
        bad = MvmTree(1.0, tree.atom_times, vectors)
        report = validate(bad)
        assert not report.ok
        assert report.violation.prop == "adapted"
        assert report.violation.node.step == 1
        assert report.violation.residual == pytest.approx(1e-3, abs=1e-12)

    def test_negative_weight_is_normalization_violation(self):
        tree = constant_tree((0.5, 0.5))
        vectors = {b: np.array([1.1, -0.1]) for b in tree.vectors}
        bad = MvmTree(1.0, tree.atom_times, vectors)
        report = validate(bad)
        assert not report.ok
        assert report.violation.prop == "normalized"

    def test_root_law_mismatch(self):
        report = validate(constant_tree((0.5, 0.5)),
                          mu=DiscreteMeasure((1.0, 2.0), (0.25, 0.75)))
        assert not report.ok
        assert report.violation.prop == "root"
        assert report.violation.residual == pytest.approx(0.25, abs=1e-12)

    def test_root_law_with_unknown_atom(self):
        report = validate(constant_tree((0.5, 0.5)),
                          mu=DiscreteMeasure((3.0,), (1.0,)))
        assert not report.ok
        assert report.violation.prop == "root"


class TestTermination:
    def test_point_mass_tree_terminates(self):
        tree = constant_tree((0.0, 1.0))
        report = termination(tree)
        assert report.terminating
        assert set(report.tau.values()) == {2.0}

    def test_diffuse_tree_does_not(self):
        report = termination(constant_tree((0.5, 0.5)))
        assert not report.terminating
        assert report.tau is None
        assert report.first_diffuse is not None

    def test_worked_tree_stopping_times(self):
        report = termination(worked_tree())
        assert report.terminating
        for bits, t in report.tau.items():
            assert t == (1.0 if bits[0] == 1 else 2.0)

    def test_pure_kernels_make_terminating_trees(self):
        rng = np.random.default_rng(34)
        spec = LatticeSpec(depth=3, dt=1.0)
        for _ in range(5):
            q = {}
            for s in (1, 2, 3):
                for node in [NodeId(step=s, level=l) for l in range(-s, s + 1, 2)]:
                    q[node] = 1.0 if s == 3 else float(rng.integers(0, 2))
            tree = from_kernel(StoppingKernel(spec, (1.0, 2.0, 3.0), q), spec)
            assert termination(tree).terminating

    def test_terminating_trees_make_pure_kernels(self):
        kernel = to_kernel(worked_tree())
        assert set(kernel.q.values()) <= {0.0, 1.0}
        diffuse = to_kernel(constant_tree((0.5, 0.5)))
        assert any(0.0 < v < 1.0 for v in diffuse.q.values())


class TestKernelRoundTrip:
    def test_identity_on_history_kernels(self):
        rng = np.random.default_rng(35)
        spec = LatticeSpec(depth=3, dt=0.5, mode="history")
        kernel = random_kernel(spec, (0.5, 1.0, 1.5), rng)
        again = to_kernel(from_kernel(kernel, spec))
        assert again.atom_times == kernel.atom_times
        assert again.spec == spec
        for node, v in kernel.q.items():
            assert again.q[node] == pytest.approx(v, abs=1e-12)

    def test_recombining_kernels_keep_their_law(self):
        rng = np.random.default_rng(36)
        spec = LatticeSpec(depth=3, dt=0.5)
        kernel = random_kernel(spec, (0.5, 1.5), rng)
        again = to_kernel(from_kernel(kernel, spec))
        hist = again.spec
        cost = CostSpec(kind="terminal", name="square")
        assert marginal_of(again, hist).weights == pytest.approx(
            marginal_of(kernel, spec).weights, abs=1e-12)
        assert objective_value(again, hist, cost) == pytest.approx(
            objective_value(kernel, spec, cost), abs=1e-12)

    def test_partial_trees_do_not_convert(self):
        base = from_kernel(
            feasible_kernel(LatticeSpec(depth=2, dt=1.0),
                            DiscreteMeasure((1.0, 2.0), (0.5, 0.5)),
                            np.random.default_rng(0)),
            LatticeSpec(depth=2, dt=1.0))
        cont = extract_continuation(base, (0,))
        with pytest.raises(ValidationError):
            to_kernel(cont)


class TestSplice:
    def make_base(self, seed=37):
        rng = np.random.default_rng(seed)
        spec = LatticeSpec(depth=3, dt=1.0)
        mu = random_measure(rng, (1.0, 2.0, 3.0))
        kernel = feasible_kernel(spec, mu, rng)
        return spec, mu, from_kernel(kernel, spec)

    def test_self_splice_is_identity(self):
        _, _, base = self.make_base()
        cont = extract_continuation(base, (1,))
        again = splice(base, (1,), cont)
        for bits, vec in base.vectors.items():
            assert again.vectors[bits] == pytest.approx(vec, abs=1e-12)

    def test_point_mass_continuation_validates(self):
        tree = worked_tree()
        cont = MvmTree(1.0, (2.0,), {(): np.array([1.0]), (1,): np.array([1.0]),
                                     (0,): np.array([1.0])}, start_step=1)
        again = splice(tree, (0,), cont)
        assert validate(again, mu=tree.root_measure()).ok
        for bits, vec in tree.vectors.items():
            assert again.vectors[bits] == pytest.approx(vec, abs=1e-12)

    def test_incompatible_root_law_rejected(self):
        tree = worked_tree()
        cont = MvmTree(1.0, (2.0,), {(): np.array([1.0]), (1,): np.array([1.0]),
                                     (0,): np.array([1.0])}, start_step=1)
        with pytest.raises(SpliceError):
            splice(tree, (1,), cont)  # future mass at that node is zero

    def test_wrong_start_step_rejected(self):
        tree = worked_tree()
        cont = MvmTree(1.0, (2.0,), {(): np.array([1.0])}, start_step=2)
        with pytest.raises(SpliceError):
            splice(tree, (0,), cont)

    def test_reweighted_continuation_keeps_root_and_validity(self):
        spec, mu, base = self.make_base(seed=38)
        bits = (0,)
        cont = extract_continuation(base, bits)
        flat = {b: cont.vectors[()].copy() for b in cont.vectors}
        flat_tree = MvmTree(cont.dt, cont.atom_times, flat, start_step=cont.start_step)
        again = splice(base, bits, flat_tree)
        assert validate(again, mu=mu).ok
        assert again.vectors[bits] == pytest.approx(base.vectors[bits], abs=1e-12)

    def test_improving_both_halves_never_hurts(self):
        # Swap in the best member of a one-parameter continuation family at
        # each first-step node; the family contains the incumbent, so the
        # objective cannot drop, and it can never beat the exact optimum for
        # the same root law.
        spec, mu, base = self.make_base(seed=39)
        before = accumulate(base, spec, INDICATOR).leaf_expectation()
        tree = base
        for bits in ((1,), (0,)):
            tree = self._splice_best(tree, bits, spec)
        after = accumulate(tree, spec, INDICATOR).leaf_expectation()
        assert after >= before - 1e-12
        assert after <= oracle_value(spec, INDICATOR, mu) + 1e-9

    @staticmethod
    def _splice_best(tree: MvmTree, bits, spec: LatticeSpec) -> MvmTree:
        incumbent = extract_continuation(tree, bits)
        zeta = incumbent.root_vector()
        z2 = float(zeta[0])
        lo, hi = max(0.0, 2.0 * z2 - 1.0), min(1.0, 2.0 * z2)
        best, best_val = None, -np.inf
        params = list(np.linspace(lo, hi, 41)) + [float(incumbent.vectors[(1,)][0])]
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
            cand = MvmTree(tree.dt, incumbent.atom_times, vecs,
                           start_step=incumbent.start_step)
            spliced = splice(tree, bits, cand)
            val = accumulate(spliced, spec, INDICATOR).leaf_expectation()
            if val > best_val:
                best, best_val = spliced, val
        return best


class TestAccumulate:
    def test_worked_tree_leaf_values(self):
        tree = worked_tree()
        spec = LatticeSpec(depth=2, dt=1.0)
        acc = accumulate(tree, spec, INDICATOR)
        assert acc.y[(1, 1)] == pytest.approx(1.0, abs=1e-15)
        assert acc.y[(1, 0)] == pytest.approx(1.0, abs=1e-15)
        assert acc.y[(0, 1)] == pytest.approx(0.0, abs=1e-15)
        assert acc.y[(0, 0)] == pytest.approx(0.0, abs=1e-15)
        assert acc.leaf_expectation() == pytest.approx(0.5, abs=1e-15)

    def test_flat_before_first_atom(self):
        rng = np.random.default_rng(40)
        spec = LatticeSpec(depth=3, dt=1.0)
        kernel = random_kernel(spec, (2.0, 3.0), rng)
        acc = accumulate(from_kernel(kernel, spec), spec,
                         CostSpec(kind="terminal", name="square"), y0=0.0)
        for bits, val in acc.y.items():
            if len(bits) < 2:
                assert val == 0.0

    def test_martingale_driver_accumulates_to_zero(self):
        rng = np.random.default_rng(41)
        spec = LatticeSpec(depth=4, dt=0.25)
        kernel = random_kernel(spec, (0.5, 0.75, 1.0), rng)
        acc = accumulate(from_kernel(kernel, spec), spec,
                         CostSpec(kind="terminal", name="identity"))
        assert acc.leaf_expectation() == pytest.approx(0.0, abs=1e-12)

    def test_matches_kernel_objective_with_offset(self):
        rng = np.random.default_rng(42)
        spec = LatticeSpec(depth=3, dt=0.5)
        kernel = random_kernel(spec, (0.5, 1.0, 1.5), rng)
        cost = CostSpec(kind="terminal", name="abs")
        acc = accumulate(from_kernel(kernel, spec), spec, cost, y0=0.7)
        expect = 0.7 + objective_value(kernel, spec, cost)
        assert acc.leaf_expectation() == pytest.approx(expect, abs=1e-12)


class TestConstruction:
    def test_missing_vector(self):
        tree = constant_tree((0.5, 0.5))
        vectors = dict(tree.vectors)
        del vectors[(1, 0)]
        with pytest.raises(ValidationError):
            MvmTree(1.0, tree.atom_times, vectors)

    def test_wrong_vector_length(self):
        tree = constant_tree((0.5, 0.5))
        vectors = dict(tree.vectors)
        vectors[(1,)] = np.array([1.0])
        with pytest.raises(ValidationError):
            MvmTree(1.0, tree.atom_times, vectors)

    def test_vectors_beyond_last_atom(self):
        tree = constant_tree((0.5, 0.5))
        vectors = dict(tree.vectors)
        vectors[(1, 1, 1)] = np.array([0.5, 0.5])
        with pytest.raises(ValidationError):
            MvmTree(1.0, tree.atom_times, vectors)

    def test_off_grid_atom_time(self):
        with pytest.raises(ValidationError):
            MvmTree(1.0, (1.5,), {(): np.array([1.0]), (1,): np.array([1.0]),
                                  (0,): np.array([1.0])})

    def test_atom_before_start(self):
        with pytest.raises(ValidationError):
            MvmTree(1.0, (1.0,), {(): np.array([1.0])}, start_step=2)

    def test_immutable(self):
        tree = constant_tree((0.5, 0.5))
        with pytest.raises(AttributeError):
            tree.dt = 2.0


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(43)
        spec = LatticeSpec(depth=3, dt=0.5)
        tree = from_kernel(random_kernel(spec, (0.5, 1.5), rng), spec)
        again = mvm_from_json(mvm_to_json(tree))
        assert again.atom_times == tree.atom_times
        assert again.start_step == tree.start_step
        for bits, vec in tree.vectors.items():
            assert again.vectors[bits] == pytest.approx(vec, abs=0)

    def test_bad_keys(self):
        with pytest.raises(ValidationError):
            mvm_from_json({"dt": 1.0, "atom_times": [1.0],
                           "nodes": {"X": [1.0]}})
        with pytest.raises(ValidationError):
            mvm_from_json({"dt": 1.0})
