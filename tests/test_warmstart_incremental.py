"""Warm-start correctness: incremental refinement vs. full recompute.

The contract under test (docs/PERFORMANCE.md): after a graph delta, the
localized Gauss–Southwell refinement of :mod:`repro.pagerank.incremental`
must land on the *same scores* as a cold full solve, within solver
tolerance — the incremental path is an optimization, never an
approximation. The ranker-level tests pin down when each path runs.
"""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.ranking import PageRankRanker
from repro.pagerank import combine_link_structures, solve_pagerank
from repro.pagerank.doublelink import DoubleLinkGraph
from repro.pagerank.incremental import (
    IncrementalResult,
    dirty_rows,
    initial_residual,
    refine_incremental,
)
from repro.pagerank.linear_system import normalize_solution
from repro.smr import SensorMetadataRepository
from repro.wiki.site import WikiSite
from repro.workloads.webgraphs import paired_link_structures
from tests.test_wiki import walked_link_graph, walked_semantic_graph

TOL = 1e-10


def _warm_gauge(problem, scores: np.ndarray) -> np.ndarray:
    """Probability vector -> the un-normalized Eq. 5 gauge (y = x / k)."""
    k = (1.0 - problem.teleport) + problem.teleport * float(
        scores[problem.dangling].sum()
    )
    return scores / k


def _reference_refine(problem, y, tol=TOL, max_relaxations=None):
    """The per-row numpy form of :func:`refine_incremental`'s push loop.

    The reference the plain-float loop must match bit for bit: same
    relaxation order, same ``(c·v)·δ`` products, woken rows queued in
    CSR column order.
    """
    n = problem.n
    if max_relaxations is None:
        max_relaxations = 20 * n
    transition = problem.transition
    rhs_norm = float(np.abs(problem.personalization).sum()) or 1.0
    threshold = tol * rhs_norm / max(n, 1)
    diag = 1.0 - problem.teleport * transition.diagonal()
    r = initial_residual(problem, y)
    queue = deque(int(i) for i in np.flatnonzero(np.abs(r) > threshold))
    dirty = len(queue)
    in_queue = np.zeros(n, dtype=bool)
    in_queue[list(queue)] = True
    relaxations = 0
    history = [float(np.abs(r).sum())]
    next_sample = n
    while queue and relaxations < max_relaxations:
        i = queue.popleft()
        in_queue[i] = False
        r_i = float(r[i])
        if abs(r_i) <= threshold:
            continue
        delta = r_i / diag[i]
        y[i] += delta
        r[i] = 0.0
        relaxations += 1
        if relaxations >= next_sample:
            history.append(float(np.abs(r).sum()))
            next_sample += n
        cols, vals = transition.row(i)
        if cols.size:
            off_diag = cols != i
            cols = cols[off_diag]
            if cols.size:
                r[cols] += problem.teleport * vals[off_diag] * delta
                woken = cols[(np.abs(r[cols]) > threshold) & ~in_queue[cols]]
                if woken.size:
                    in_queue[woken] = True
                    queue.extend(int(k) for k in woken)
    final = float(np.abs(r).sum())
    if not history or history[-1] != final:
        history.append(final)
    return IncrementalResult(
        relaxations=relaxations,
        dirty=dirty,
        converged=final < tol * rhs_norm,
        final_residual=final,
        residual_history=history,
    )


def _refine_like_reference(problem, y, **kwargs):
    """Run :func:`refine_incremental` on ``y`` in place; assert it is bit
    for bit the reference loop run on a copy."""
    expected_y = y.copy()
    expected = _reference_refine(problem, expected_y, **kwargs)
    result = refine_incremental(problem, y, **kwargs)
    assert y.tobytes() == expected_y.tobytes()
    assert (result.relaxations, result.dirty, result.converged) == (
        expected.relaxations,
        expected.dirty,
        expected.converged,
    )
    assert np.array(
        [result.final_residual, *result.residual_history]
    ).tobytes() == np.array([expected.final_residual, *expected.residual_history]).tobytes()
    return result


# ----------------------------------------------------------------------
# Incremental refinement matches the full solve on random deltas
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 17, 91])
def test_incremental_matches_full_recompute_on_random_delta(seed):
    n = 400
    web, semantic = paired_link_structures(n, seed=seed)
    before = combine_link_structures(web, semantic)
    old = solve_pagerank(before, method="gauss_seidel", tol=TOL, max_iter=5000)
    assert old.converged

    rng = random.Random(seed)
    core = n - 16  # stay off the mutual-link sink pages
    for _ in range(4):
        web.add_edge(rng.randrange(core), rng.randrange(core))
    after = combine_link_structures(web, semantic)

    y = _warm_gauge(after, old.scores.copy())
    result = _refine_like_reference(after, y, tol=TOL)
    assert result.converged
    assert result.relaxations > 0

    incremental = normalize_solution(after, y)
    cold = solve_pagerank(after, method="gauss_seidel", tol=TOL, max_iter=5000)
    assert cold.converged
    # Both solutions carry O(tol) error, so they agree to a small multiple.
    assert float(np.abs(incremental - cold.scores).sum()) < 100 * TOL


def test_incremental_touches_fewer_rows_than_full_sweeps():
    n = 600
    web, semantic = paired_link_structures(n, seed=7)
    before = combine_link_structures(web, semantic)
    old = solve_pagerank(before, method="gauss_seidel", tol=TOL, max_iter=5000)
    web.add_edge(5, 410)
    web.add_edge(411, 6)
    after = combine_link_structures(web, semantic)

    y = _warm_gauge(after, old.scores.copy())
    result = refine_incremental(after, y, tol=TOL)
    cold = solve_pagerank(after, method="gauss_seidel", tol=TOL, max_iter=5000)
    assert result.converged
    assert result.sweep_equivalents(n) < cold.iterations


def test_noop_delta_needs_no_relaxations():
    web, semantic = paired_link_structures(300, seed=11)
    problem = combine_link_structures(web, semantic)
    solved = solve_pagerank(problem, method="gauss_seidel", tol=TOL, max_iter=5000)
    y = _warm_gauge(problem, solved.scores.copy())
    # Refining a solution that already converged at TOL, against a looser
    # target, finds nothing to do: every row is below its dirty slice.
    result = _refine_like_reference(problem, y, tol=100 * TOL)
    assert result.converged
    assert result.dirty == 0
    assert result.relaxations == 0
    assert result.sweep_equivalents(problem.n) == 0


def test_relaxation_budget_reports_non_convergence():
    web, semantic = paired_link_structures(300, seed=5)
    problem = combine_link_structures(web, semantic)
    y = np.zeros(problem.n)  # everything dirty, nothing pre-solved
    result = _refine_like_reference(problem, y, tol=TOL, max_relaxations=10)
    assert not result.converged
    assert result.relaxations == 10


def test_initial_residual_validates_shape():
    from repro.errors import LinalgError

    web, semantic = paired_link_structures(50, seed=1)
    problem = combine_link_structures(web, semantic)
    with pytest.raises(LinalgError):
        initial_residual(problem, np.zeros(problem.n + 1))


def test_dirty_rows_thresholding():
    rhs = np.full(10, 0.1)  # ||b||1 = 1, per-row slice = 1e-10 / 10
    residual = np.zeros(10)
    residual[3] = 1e-3
    residual[5] = 1e-10  # just above the 1e-11 slice
    residual[7] = 1e-12  # below it: clean
    dirty = dirty_rows(residual, rhs, tol=1e-10)
    assert dirty.tolist() == [3, 5]
    assert dirty_rows(np.zeros(10), rhs, tol=1e-10).size == 0


def test_sweep_equivalents_rounding():
    result = IncrementalResult(relaxations=0, dirty=0, converged=True, final_residual=0.0)
    assert result.sweep_equivalents(100) == 0
    result = IncrementalResult(relaxations=1, dirty=1, converged=True, final_residual=0.0)
    assert result.sweep_equivalents(100) == 1
    result = IncrementalResult(relaxations=250, dirty=9, converged=True, final_residual=0.0)
    assert result.sweep_equivalents(100) == 3


# ----------------------------------------------------------------------
# Ranker-level behavior: when each refresh path runs
# ----------------------------------------------------------------------


def _station(i: int, extra=()):
    return (
        "station",
        f"Station:INC-{i:03d}",
        [("name", f"INC-{i:03d}"), ("elevation_m", 1000 + i), *extra],
    )


def _make_smr(pages: int = 30) -> SensorMetadataRepository:
    smr = SensorMetadataRepository()
    for i in range(pages):
        kind, title, annotations = _station(i)
        links = [f"Station:INC-{(i + 1) % pages:03d}"] if i % 2 == 0 else []
        smr.register(kind, title, annotations, links=links)
    return smr


@pytest.fixture
def registry():
    """A fresh metrics registry for one test; the old one comes back after."""
    fresh = obs.MetricsRegistry()
    previous = obs.set_registry(fresh)
    yield fresh
    obs.set_registry(previous)


def _refresh_total(registry) -> float:
    family = registry.get("ranking_refresh_total")
    return 0.0 if family is None else sum(child.value for _, child in family.samples())


class TestRankerRefreshModes:
    def test_first_solve_is_cold(self):
        ranker = PageRankRanker(_make_smr())
        ranker.scores()
        assert ranker.last_refresh_mode == "cold"

    def test_mutation_triggers_automatic_incremental_refresh(self):
        smr = _make_smr()
        ranker = PageRankRanker(smr)
        before = ranker.scores()
        cold_iterations = ranker.last_refresh_iterations
        kind, title, annotations = _station(99)
        smr.register(kind, title, annotations, links=["Station:INC-000"])
        after = ranker.scores()  # no refresh() call — picked up automatically
        assert title in after and title not in before
        assert ranker.last_refresh_mode == "incremental"
        assert ranker.last_refresh_relaxations > 0
        assert ranker.last_refresh_iterations <= cold_iterations

    def test_incremental_matches_forced_full_solve(self):
        smr = _make_smr()
        incremental = PageRankRanker(smr)
        incremental.scores()
        kind, title, annotations = _station(99)
        smr.register(kind, title, annotations, links=["Station:INC-001"])
        by_increment = incremental.scores()
        assert incremental.last_refresh_mode == "incremental"
        cold = PageRankRanker(smr)
        by_full = cold.scores()
        assert set(by_increment) == set(by_full)
        drift = sum(abs(by_increment[t] - by_full[t]) for t in by_full)
        assert drift < 100 * incremental.tol

    def test_threshold_zero_disables_incremental(self):
        smr = _make_smr()
        ranker = PageRankRanker(smr, incremental_threshold=0.0)
        ranker.scores()
        kind, title, annotations = _station(99)
        smr.register(kind, title, annotations)
        ranker.scores()
        assert ranker.last_refresh_mode == "warm"  # fell back, still warm-started

    def test_refresh_forces_full_solve(self):
        smr = _make_smr()
        ranker = PageRankRanker(smr)
        first = ranker.scores()
        ranker.refresh()
        assert not ranker.freshness()["fresh"]
        second = ranker.scores()
        assert ranker.last_refresh_mode == "warm"  # still warm-started
        assert ranker.last_refresh_relaxations == 0
        assert second is not first
        assert sum(abs(second[t] - first[t]) for t in first) < 100 * ranker.tol

    def test_power_method_never_takes_incremental_path(self):
        smr = _make_smr()
        ranker = PageRankRanker(smr, method="power", tol=1e-9)
        ranker.scores()
        kind, title, annotations = _station(99)
        smr.register(kind, title, annotations)
        ranker.scores()
        assert ranker.last_refresh_mode == "warm"

    def test_scores_stable_when_nothing_changed(self):
        ranker = PageRankRanker(_make_smr())
        first = ranker.scores()
        assert ranker.scores() is first  # cached dict, no recompute

    def test_a_write_that_changes_no_link_keeps_the_scores(self, registry):
        smr = _make_smr()
        ranker = PageRankRanker(smr)
        first = ranker.scores()
        solves = _refresh_total(registry)
        kind, title, annotations = _station(3)
        smr.register(kind, title, annotations + [("last_value", 1.5)])  # an observation
        assert ranker.freshness()["fresh"]  # no link moved
        assert ranker.record_staleness() == 0
        assert ranker.scores() is first
        smr.register(kind, title, annotations, description="A prose edit.")
        assert ranker.scores() is first
        assert _refresh_total(registry) == solves
        assert ranker.freshness()["built_at_mutation"] == smr.mutation_count
        # A link to an existing page is solved again.
        smr.register(kind, title, annotations, links=["Station:INC-000"])
        assert not ranker.freshness()["fresh"]
        assert ranker.record_staleness() == 1
        assert ranker.scores() is not first
        assert _refresh_total(registry) == solves + 1

    def test_property_weights_follow_an_annotation_only_write(self):
        smr = _make_smr()
        ranker = PageRankRanker(smr)
        scores = ranker.scores()
        assert "last_value" not in ranker.property_weights()
        kind, title, annotations = _station(3)
        smr.register(kind, title, annotations + [("last_value", 1.5)])
        assert ranker.scores() is scores
        assert ranker.property_weights()["last_value"] == scores[title]
        assert ranker.property_weights() is ranker.property_weights()  # memoized


# ----------------------------------------------------------------------
# The link-structure memo under arbitrary write sequences
# ----------------------------------------------------------------------

#: Page titles the sequences write; the first four exist at the start.
#: Indices past the list name pages that never exist.
_PAGES = [f"Station:SEQ-{i}" for i in range(7)]
_START = 4
_target = st.integers(0, len(_PAGES) + 1)
_page = st.integers(0, len(_PAGES) - 1)
_seq_step = st.one_of(
    st.tuples(st.just("observe"), _page, st.integers(0, 99)),
    st.tuples(st.just("edit"), _page, st.integers(0, 3)),
    st.tuples(st.just("kind"), _page, st.sampled_from(["station", "sensor", "deployment"])),
    # New links and page-valued annotations; on a missing page, a creation.
    st.tuples(st.just("links"), _page, st.lists(_target, max_size=3), st.lists(_target, max_size=2)),
)


def _title(index):
    return _PAGES[index] if index < len(_PAGES) else f"Missing:M{index}"


def _register(smr, title, page):
    annotations = [("name", title), ("elevation_m", page["n"])]
    annotations += [("refers", _title(index)) for index in page["refers"]]
    smr.register(
        page["kind"],
        title,
        annotations,
        links=[_title(index) for index in page["links"]],
        description=page["description"],
    )


class TestLinkStructureMemo:
    """The ranker rebuilds its inputs, and solves, exactly when a link changed.

    The reference is the walk over every page's parse (``tests.test_wiki``),
    not ``WikiSite.link_graph``, which reads the wiki's kept targets.
    """

    @given(steps=st.lists(_seq_step, min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    @example(
        steps=[
            ("observe", 0, 7),  # a literal only
            ("edit", 1, 2),  # prose only
            ("kind", 2, "sensor"),  # another table, the same links
            ("links", 3, [8], []),  # a link to a page that never exists
            ("links", 5, [0, 1], [2]),  # a creation
            ("links", 0, [1], [1]),  # a plain link becomes an annotation too
            ("links", 0, [1], [5]),  # the annotation moves to another page
        ]
    )
    def test_inputs_and_scores_match_a_fresh_ranker_after_every_write(self, steps):
        link_graph = WikiSite.link_graph
        calls = []

        def counted(wiki):
            calls.append(wiki)
            return link_graph(wiki)

        def structure(wiki):
            web, semantic = walked_link_graph(wiki), walked_semantic_graph(wiki)
            return wiki.titles(), list(web.edges()), list(semantic.edges())

        smr = SensorMetadataRepository()
        pages = {}
        for index in range(_START):
            pages[index] = {
                "kind": "station",
                "n": index,
                "description": "",
                "links": [(index + 1) % _START],
                "refers": [],
            }
            _register(smr, _PAGES[index], pages[index])
        ranker = PageRankRanker(smr)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(WikiSite, "link_graph", counted)
            scores = ranker.scores()
            for step in steps:
                before = structure(smr.wiki)
                action, index = step[0], step[1]
                page = pages.setdefault(
                    index,
                    {"kind": "station", "n": 0, "description": "", "links": [], "refers": []},
                )
                if action == "observe":
                    page["n"] = step[2]
                elif action == "edit":
                    page["description"] = f"revised note {step[2]}"
                elif action == "kind":
                    page["kind"] = step[2]
                else:
                    page["links"], page["refers"] = step[2], step[3]
                _register(smr, _PAGES[index], page)
                changed = structure(smr.wiki) != before

                del calls[:]
                previous, scores = scores, ranker.scores()
                titles, problem = ranker._link_structure()
                assert len(calls) == (1 if changed else 0), step
                assert (scores is previous) == (not changed), step

                wiki = smr.wiki
                fresh = DoubleLinkGraph(walked_link_graph(wiki), walked_semantic_graph(wiki))
                fresh = fresh.to_problem()
                assert titles == wiki.titles()
                for name in ("indptr", "indices", "data"):
                    ours = getattr(problem.transition, name)
                    theirs = getattr(fresh.transition, name)
                    assert ours.tobytes() == theirs.tobytes(), (step, name)

                reference = PageRankRanker(smr).scores()
                assert set(scores) == set(reference)
                drift = sum(abs(scores[title] - reference[title]) for title in reference)
                assert drift < 100 * ranker.tol
