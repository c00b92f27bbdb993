import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmlkit import clustering, subroutines
from qmlkit.clustering import ZERO_NORM_TOL, ClusterConfig, Dataset, kmeans, kmedians
from qmlkit.errors import DomainError
from qmlkit.minimizer import argmin_via_search
from qmlkit.rng import RngStream
from qmlkit.subroutines import distances


def reference_lloyd(vectors, initial, eta=1e-4, max_iterations=100):
    """Host-side Lloyd mirror of the quantum-distance loop: same
    initialization, lowest-index tie-break, empty repair, and stop rule."""
    vectors = np.asarray(vectors, dtype=float)
    centroids = np.array(initial, dtype=float)
    k = len(centroids)
    assignments = np.zeros(len(vectors), dtype=int)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        d2 = np.array(
            [[np.sum((x - mu) ** 2) for mu in centroids] for x in vectors]
        )
        assignments = d2.argmin(axis=1)
        for j in range(k):
            if not np.any(assignments == j):
                gaps = np.array(
                    [
                        np.sum((vectors[i] - centroids[assignments[i]]) ** 2)
                        for i in range(len(vectors))
                    ]
                )
                farthest = int(np.argmax(gaps))
                centroids[j] = vectors[farthest]
                assignments[farthest] = j
        new_centroids = centroids.copy()
        for j in range(k):
            new_centroids[j] = vectors[assignments == j].mean(axis=0)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < eta:
            converged = True
            break
    return centroids, assignments, iterations, converged


def reference_assign(data, centroids, cfg, rng, warnings, argmin=argmin_via_search):
    """One distance batch per row: the assignment pass before all its pairs
    ran as one batch."""
    zero = np.linalg.norm(centroids, axis=1) <= ZERO_NORM_TOL
    for j in np.flatnonzero(zero):
        warnings.append(f"centroid {j} has zero norm; host-side distance used")
    assignments = np.empty(data.m, dtype=int)
    dists = np.empty(len(centroids))
    for i, point in enumerate(data.vectors):
        dists[zero] = np.sum((point - centroids[zero]) ** 2, axis=1)
        if not zero.all():
            dists[~zero] = distances(
                point, centroids[~zero], cfg.shots, rng, cfg.distance_mode
            )[1]
        if cfg.use_grover_argmin:
            assignments[i] = argmin(dists, rng)
        else:
            assignments[i] = int(np.argmin(dists))
    return assignments


def reference_repair_empty(data, centroids, assignments, cfg, warnings):
    """Empty clusters reseeded with one gap per row, row by row: the loop
    before the gaps were one row-wise sum."""
    for j in range(cfg.k):
        if np.any(assignments == j):
            continue
        gaps = np.array(
            [np.sum((data.vectors[i] - centroids[assignments[i]]) ** 2) for i in range(data.m)]
        )
        farthest = int(np.argmax(gaps))
        centroids[j] = data.vectors[farthest]
        assignments[farthest] = j
        warnings.append(f"empty cluster {j} reseeded with row {farthest}")


@st.composite
def assign_passes(draw):
    """1-12 rows of up to 9 features and 1-5 centroids at mixed scales; a
    centroid may be the zero vector (a mean update can produce it), a copy
    of a row, or shrunk to just above the zero-norm tolerance."""
    m, dim, k = draw(st.integers(1, 12)), draw(st.integers(1, 9)), draw(st.integers(1, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = gen.normal(size=(m, dim)) * 10.0 ** gen.uniform(-1, 1, size=(m, 1))
    centroids = gen.normal(size=(k, dim))
    for j in range(k):
        kind = draw(st.sampled_from(["random", "random", "zero", "row", "tiny"]))
        if kind == "zero":
            centroids[j] = 0.0
        elif kind == "row":
            centroids[j] = data[draw(st.integers(0, m - 1))]
        elif kind == "tiny":
            centroids[j] *= 1e-11
    return Dataset(data), centroids


def _next_draws(rng):
    return rng.gen.random(4).tolist()


def two_blobs(gen, per_blob=12):
    a = gen.normal(loc=(0.0, 0.0), scale=0.3, size=(per_blob, 2))
    b = gen.normal(loc=(6.0, 6.0), scale=0.3, size=(per_blob, 2))
    data = np.vstack([a, b])
    labels = np.array([0] * per_blob + [1] * per_blob)
    return data, labels


class TestKmeans:
    def test_separated_blobs_recovered(self):
        gen = np.random.default_rng(5)
        data, truth = two_blobs(gen)
        cfg = ClusterConfig(k=2)
        model = kmeans(Dataset(data), cfg, RngStream(3))
        # Same partition up to cluster relabeling.
        flips = model.assignments[truth == 0]
        assert len(set(flips.tolist())) == 1
        assert set(model.assignments[truth == 1].tolist()) == {1 - flips[0]}
        assert model.converged

    def test_k_one_gives_dataset_mean(self):
        gen = np.random.default_rng(1)
        data = gen.normal(size=(10, 3)) + 2.0
        model = kmeans(Dataset(data), ClusterConfig(k=1), RngStream(0))
        assert np.allclose(model.centroids[0], data.mean(axis=0), atol=1e-12)

    def test_k_equals_m_converges_immediately(self):
        data = np.array([[1.0, 0.0], [0.0, 3.0], [5.0, 5.0]])
        model = kmeans(Dataset(data), ClusterConfig(k=3), RngStream(2))
        assert model.converged and model.iterations == 1
        assert sorted(map(tuple, model.centroids)) == sorted(map(tuple, data))

    def test_cluster_mean_update(self):
        # Four members land in one cluster; its centroid is exactly their mean.
        gen = np.random.default_rng(9)
        data = gen.normal(size=(12, 2)) * 0.2
        blob = [1, 5, 9, 10]
        data[blob] += (5.0, 5.0)
        cfg = ClusterConfig(k=2, max_iterations=1)
        model = kmeans(
            Dataset(data), cfg, RngStream(0), initial_centroids=[[0.0, 0.0], [5.0, 5.0]]
        )
        assert sorted(np.nonzero(model.assignments == 1)[0].tolist()) == blob
        assert np.array_equal(model.centroids[1], data[blob].mean(axis=0))

    def test_zero_norm_centroid_warns_once_per_iteration(self):
        # Iteration 1 puts rows 0 and 1 together; their mean is the zero
        # vector, so iteration 2 measures every row against it on the host.
        data = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
        model = kmeans(
            Dataset(data), ClusterConfig(k=2), RngStream(0),
            initial_centroids=[[1.0, 0.0], [0.0, 5.0]],
        )
        assert model.iterations == 2 and model.converged
        assert model.assignments.tolist() == [0, 0, 1]
        assert model.warnings == ["centroid 0 has zero norm; host-side distance used"]

    def test_every_centroid_zero_norm(self):
        data = np.array([[1.0, 0.0], [-1.0, 0.0]])
        model = kmeans(
            Dataset(data), ClusterConfig(k=1, max_iterations=3), RngStream(0),
            initial_centroids=[[1.0, 0.0]],
        )
        assert model.iterations == 2 and model.converged
        assert np.array_equal(model.centroids, [[0.0, 0.0]])
        assert model.warnings == ["centroid 0 has zero norm; host-side distance used"]

    @pytest.mark.parametrize(
        "k, initial, shape",
        [
            (2, [[1.0, 0.0]], (1, 2)),
            (2, [[1.0, 0.0, 0.0], [0.0, 5.0, 0.0]], (2, 3)),
            (1, [[1.0, 0.0], [0.0, 5.0]], (2, 2)),
        ],
        ids=["too few rows", "wrong width", "too many rows"],
    )
    def test_mis_shaped_initial_centroids_refused(self, k, initial, shape):
        data = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]]))
        message = re.escape(f"shape {shape}, expected {(k, 2)}")
        for cluster in (kmeans, kmedians):
            with pytest.raises(DomainError, match=message):
                cluster(data, ClusterConfig(k=k), RngStream(0), initial_centroids=initial)

    def test_bit_identical_to_host_reference(self):
        gen = np.random.default_rng(77)
        for trial in range(5):
            m = int(gen.integers(15, 40))
            n = int(gen.integers(2, 6))
            k = int(gen.integers(2, 5))
            data = gen.normal(size=(m, n)) * 2.0 + 1.0
            initial = data[gen.permutation(m)[:k]]
            cfg = ClusterConfig(k=k)
            model = kmeans(Dataset(data), cfg, RngStream(trial), initial_centroids=initial)
            ref_c, ref_a, ref_it, ref_conv = reference_lloyd(data, initial)
            assert np.array_equal(model.assignments, ref_a)
            assert np.array_equal(model.centroids, ref_c)
            assert (model.iterations, model.converged) == (ref_it, ref_conv)

    def test_cost_monotone_in_exact_mode(self):
        gen = np.random.default_rng(13)
        data = gen.normal(size=(30, 4))
        model = kmeans(Dataset(data), ClusterConfig(k=3), RngStream(4))
        costs = [step["within_cluster_cost"] for step in model.trace]
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))

    def test_shot_mode_recovers_separated_blobs(self):
        gen = np.random.default_rng(8)
        data, truth = two_blobs(gen)
        cfg = ClusterConfig(k=2, distance_mode="shots", shots=512)
        model = kmeans(Dataset(data), cfg, RngStream(12))
        left = model.assignments[truth == 0]
        assert len(set(left.tolist())) == 1
        assert set(model.assignments[truth == 1].tolist()) == {1 - left[0]}

    def test_grover_argmin_assignment_accuracy(self):
        gen = np.random.default_rng(3)
        rng = RngStream(17)
        decisions = 200
        correct = 0
        for _ in range(decisions):
            k = int(gen.integers(2, 9))
            dists = gen.random(size=k)
            correct += argmin_via_search(dists, rng) == int(np.argmin(dists))
        assert correct >= 0.95 * decisions

    def test_grover_argmin_end_to_end(self):
        gen = np.random.default_rng(30)
        data, truth = two_blobs(gen)
        cfg = ClusterConfig(k=2, use_grover_argmin=True)
        model = kmeans(Dataset(data), cfg, RngStream(7))
        left = model.assignments[truth == 0]
        assert len(set(left.tolist())) == 1
        assert set(model.assignments[truth == 1].tolist()) == {1 - left[0]}

    def test_k_larger_than_m_rejected(self):
        with pytest.raises(DomainError):
            kmeans(Dataset([[1.0], [2.0]]), ClusterConfig(k=3), RngStream(0))

    def test_empty_iteration_budget_rejected(self):
        with pytest.raises(DomainError, match="iteration budget must be >= 1, got 0"):
            ClusterConfig(k=2, max_iterations=0)

    def test_zero_row_rejected(self):
        with pytest.raises(DomainError, match="^row 1 has no amplitude encoding: it is the zero"):
            Dataset([[1.0, 0.0], [0.0, 0.0]])

    def test_rows_follow_the_encoding_rule(self):
        # A row is refused exactly when it has no amplitude encoding, by the
        # rule ``distances`` applies, and the refusal names the row; a norm
        # of 1e-13 is tiny, not zero.
        assert Dataset([[1e-13, 0.0], [1.0, 1.0]]).m == 2
        with pytest.raises(DomainError, match="^row 2 has no amplitude encoding: its squared"):
            Dataset([[1.0, 0.0], [2.0, 0.0], [1e200, 1.0]])


class TestAssignBatch:
    @settings(max_examples=80)
    @given(
        assign_passes(), st.sampled_from(["exact", "shots"]), st.booleans(),
        st.integers(0, 2**32 - 1), st.sampled_from([2**3, 2**5, 2**8, 2**12]),
        st.sampled_from([1, 7, 2**16]),
    )
    def test_matches_row_reference(self, case, mode, grover, seed, cap, batch):
        # Small chunks, batches of one or more rows, and a draw budget that
        # one row fits but the pass passes: the batches span several
        # difference and draw chunks, and give the rows, warnings, argmin inputs and
        # stream of one batch per row.
        data, centroids = case
        cfg = ClusterConfig(k=len(centroids), distance_mode=mode, shots=40,
                            use_grover_argmin=grover)
        live = int(np.count_nonzero(np.linalg.norm(centroids, axis=1) > ZERO_NORM_TOL))
        seen, seen_ref = [], []

        def recording(log):
            def argmin(values, rng):
                log.append(np.array(values))
                return argmin_via_search(values, rng)
            return argmin

        batched_rng, row_rng = RngStream(seed), RngStream(seed)
        warnings, warnings_ref = [], []
        with mock.patch.object(subroutines, "_SLICE_AMPS", cap), \
                mock.patch.object(clustering, "MAX_BATCH_PAIRS", batch), \
                mock.patch.object(subroutines, "_DRAW_BYTES_CAP", 8 * cfg.shots * max(live, 1)), \
                mock.patch.object(clustering, "argmin_via_search", recording(seen)):
            got = clustering._assign(data, centroids, cfg, batched_rng, warnings)
            want = reference_assign(
                data, centroids, cfg, row_rng, warnings_ref, recording(seen_ref)
            )
        assert got.tolist() == want.tolist()
        assert warnings == warnings_ref
        assert [v.tobytes() for v in seen] == [v.tobytes() for v in seen_ref]
        assert _next_draws(batched_rng) == _next_draws(row_rng)


class TestKmedians:
    def test_centroids_always_dataset_rows(self):
        gen = np.random.default_rng(21)
        data = gen.normal(size=(14, 3))
        model = kmedians(Dataset(data), ClusterConfig(k=3), RngStream(6))
        rows = set(map(tuple, data))
        assert all(tuple(c) in rows for c in model.centroids)

    def test_k_one_collinear_middle(self):
        data = np.array([[1.0, 0.0], [2.0, 1e-9], [3.0, 0.0]])
        model = kmedians(Dataset(data), ClusterConfig(k=1), RngStream(2))
        assert np.array_equal(model.centroids[0], data[1])

    def test_outlier_robustness_vs_mean(self):
        # Dense blob plus one extreme outlier: the median update stays in the
        # blob while the mean update is dragged out of it.
        data = np.array(
            [[0.0, 1.0], [0.1, 0.9], [0.0, 1.1], [0.1, 1.0], [50.0, 50.0]]
        )
        median_model = kmedians(Dataset(data), ClusterConfig(k=1), RngStream(0))
        mean_model = kmeans(Dataset(data), ClusterConfig(k=1), RngStream(0))
        blob_center = data[:4].mean(axis=0)
        assert np.linalg.norm(median_model.centroids[0] - blob_center) < 1.0
        assert np.linalg.norm(mean_model.centroids[0] - blob_center) > 5.0

    def test_converged_model_is_fixed_point(self):
        gen = np.random.default_rng(33)
        data = np.vstack(
            [gen.normal(size=(8, 2)), gen.normal(size=(8, 2)) + 8.0]
        )
        cfg = ClusterConfig(k=2)
        model = kmedians(Dataset(data), cfg, RngStream(9))
        assert model.converged
        again = kmedians(
            Dataset(data), ClusterConfig(k=2, max_iterations=1), RngStream(10),
            initial_centroids=model.centroids,
        )
        assert np.array_equal(again.centroids, model.centroids)


class TestRepairEmpty:
    @settings(max_examples=200)
    @given(m=st.integers(1, 40), dim=st.integers(1, 40), k=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), repeats=st.booleans())
    def test_matches_row_by_row_gaps(self, m, dim, k, seed, repeats):
        # Up to 40 features, so each gap's sum runs past numpy's 8-wide
        # pairwise blocks; repeated rows give tied gaps, where the first wins.
        gen = np.random.default_rng(seed)
        vectors = gen.normal(size=(m, dim)) * 10.0 ** gen.uniform(-3, 3, size=(m, 1))
        if repeats:
            vectors = vectors[gen.integers(0, m, size=m)]
        data = Dataset(vectors)
        centroids = gen.normal(size=(k, dim))
        assignments = gen.integers(0, k, size=m)
        cfg = ClusterConfig(k=k)
        got_centroids, got_assignments, got_warnings = centroids.copy(), assignments.copy(), []
        clustering._repair_empty(
            data, got_centroids, got_assignments, cfg, RngStream(0), got_warnings
        )
        reference_repair_empty(data, centroids, assignments, cfg, warnings := [])
        assert got_centroids.tobytes() == centroids.tobytes()
        assert got_assignments.tolist() == assignments.tolist()
        assert got_warnings == warnings
