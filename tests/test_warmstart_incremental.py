"""Warm-start correctness: incremental refinement vs. full recompute.

The contract under test (docs/PERFORMANCE.md): after a graph delta, the
localized Gauss–Southwell refinement of :mod:`repro.pagerank.incremental`
must land on the *same scores* as a cold full solve, within solver
tolerance — the incremental path is an optimization, never an
approximation. The ranker-level tests pin down when each path runs, and
the blend of the two link structures is checked byte for byte against
the per-edge ``CooMatrix`` blend kept here.
"""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import ranking
from repro.core.ranking import PageRankRanker
from repro.linalg import CooMatrix
from repro.pagerank import LinkGraph, PageRankProblem, combine_link_structures, solve_pagerank
from repro.pagerank import incremental
from repro.pagerank.doublelink import DoubleLinkGraph, blend_transition
from repro.pagerank.incremental import (
    RELAXATION_BUDGET,
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


def coo_blend(web: LinkGraph, semantic: LinkGraph, alpha: float):
    """The blended transition matrix by the per-page ``CooMatrix`` loop.

    :func:`blend_transition` must equal it byte for byte: at
    ``alpha`` 0 or 1 the single structure's matrix, otherwise, page by
    page, its web links and then its semantic links, each at its kind's
    ``weight / degree`` (1.0 for a page with one kind of link).
    """
    if alpha == 1.0:
        return web.transition_matrix()
    if alpha == 0.0:
        return semantic.transition_matrix()
    coo = CooMatrix(web.n, web.n)
    for page in range(web.n):
        web_links = sorted(web.out_links(page))
        sem_links = sorted(semantic.out_links(page))
        web_weight, sem_weight = alpha, 1.0 - alpha
        if not web_links and sem_links:
            web_weight, sem_weight = 0.0, 1.0
        elif web_links and not sem_links:
            web_weight, sem_weight = 1.0, 0.0
        if web_links and web_weight:
            share = web_weight / len(web_links)
            for dst in web_links:
                coo.add(page, dst, share)
        if sem_links and sem_weight:
            share = sem_weight / len(sem_links)
            for dst in sem_links:
                coo.add(page, dst, share)
    return coo.to_csr()


def _csr_bytes(matrix):
    return tuple(getattr(matrix, name).tobytes() for name in ("indptr", "indices", "data"))


def _reference_refine(problem, y, tol=TOL, max_relaxations=None):
    """The one-row-at-a-time push that :func:`refine_incremental`'s rounds replaced.

    Rows are relaxed in FIFO order, each woken row queued in CSR column
    order. The rounds relax the same dirty set in another order, so the
    two agree within the solver tolerance, not bit for bit.
    """
    n = problem.n
    if max_relaxations is None:
        max_relaxations = RELAXATION_BUDGET * n
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


def _refine_like_reference(problem, y, tol=TOL):
    """Run :func:`refine_incremental` on ``y`` in place; assert it agrees
    with the reference push run on a copy."""
    expected_y = y.copy()
    expected = _reference_refine(problem, expected_y, tol=tol)
    result = refine_incremental(problem, y, tol=tol)
    assert (result.dirty, result.converged) == (expected.dirty, expected.converged)
    history = result.residual_history
    assert history[0] == expected.residual_history[0]  # the same initial residual
    assert history[-1] == result.final_residual
    # Each round's scatter re-injects at most c times the mass it removed.
    assert all(after <= before * (1 + 1e-12) for before, after in zip(history, history[1:]))
    if result.converged:
        drift = np.abs(normalize_solution(problem, y) - normalize_solution(problem, expected_y))
        assert float(drift.sum()) <= 100 * tol
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


def test_residual_history_has_one_point_per_sweep_equivalent():
    n = 600
    web, semantic = paired_link_structures(n, seed=7)
    before = combine_link_structures(web, semantic)
    old = solve_pagerank(before, method="gauss_seidel", tol=TOL, max_iter=5000)
    web.add_edge(5, 410)
    web.add_edge(411, 6)
    after = combine_link_structures(web, semantic)

    y = _warm_gauge(after, old.scores.copy())
    start = float(np.abs(initial_residual(after, y)).sum())
    result = refine_incremental(after, y, tol=TOL)
    assert result.converged
    assert result.sweep_equivalents(n) >= 2
    history = result.residual_history
    # The start, the round that completes each n relaxations, and the end
    # unless that round was the last.
    assert history[0] == start
    assert history[-1] == result.final_residual
    assert len(history) - 2 <= result.relaxations // n <= len(history) - 1


@pytest.mark.parametrize("seed", [3, 17])
def test_local_and_full_scatters_give_the_same_doubles(seed, monkeypatch):
    n = 600
    web, semantic = paired_link_structures(n, seed=seed)
    before = combine_link_structures(web, semantic)
    old = solve_pagerank(before, method="gauss_seidel", tol=TOL, max_iter=5000)
    rng = random.Random(seed)
    for _ in range(3):
        web.add_edge(rng.randrange(n - 16), rng.randrange(n - 16))
    after = combine_link_structures(web, semantic)
    outcomes = []
    # 0: every round scatters over the rows it reaches; n + 1: every
    # round scatters over all n rows.
    for local_round in (0, n + 1):
        monkeypatch.setattr(incremental, "_LOCAL_ROUND", local_round)
        y = _warm_gauge(after, old.scores.copy())
        result = refine_incremental(after, y, tol=TOL)
        assert result.converged
        outcomes.append((y.tobytes(), result.relaxations, result.residual_history))
    assert outcomes[0] == outcomes[1]


def test_ranker_records_one_residual_per_reported_iteration():
    recorder = obs.ConvergenceRecorder()
    previous = obs.set_convergence_recorder(recorder)
    try:
        smr = _make_smr()
        ranker = PageRankRanker(smr)
        ranker.scores()
        kind, title, annotations = _station(99)
        smr.register(kind, title, annotations, links=["Station:INC-000"])
        ranker.scores()
    finally:
        obs.set_convergence_recorder(previous)
    assert ranker.last_refresh_mode == "incremental"
    run = recorder.latest("incremental")
    assert run["iterations"] == ranker.last_refresh_iterations >= 1
    assert len(run["residuals"]) <= run["iterations"] + 2


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
    result = refine_incremental(problem, y, tol=TOL, max_relaxations=10)
    assert not result.converged
    # The budget is checked between rounds: the first round relaxes every
    # dirty row and passes it, and no second round starts.
    assert result.relaxations == result.dirty == problem.n
    assert len(result.residual_history) == 2
    assert result.final_residual == result.residual_history[-1]
    # Over several rounds it stops after the first one that reaches it.
    budget = 2 * problem.n
    capped = refine_incremental(problem, np.zeros(problem.n), tol=TOL, max_relaxations=budget)
    assert not capped.converged
    assert budget <= capped.relaxations < budget + problem.n


# ----------------------------------------------------------------------
# Hypothesis oracle: the blend and the rounds on random paired graphs
# ----------------------------------------------------------------------

#: Random paired graphs: self-links, dangling rows and rows with only
#: semantic links all occur.
_MAX_PAGES = 12


@st.composite
def _paired_graphs(draw, min_pages=1):
    n = draw(st.integers(min_pages, _MAX_PAGES))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.sets(edge, max_size=3 * n)), draw(st.sets(edge, max_size=2 * n))


@st.composite
def _graphs_and_delta(draw):
    """Paired graphs, then the same pair after edge adds, removes and maybe a new page."""
    n, web, semantic = draw(_paired_graphs(min_pages=2))
    m = n + draw(st.integers(0, 1))
    edge = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    after = []
    for edges in (web, semantic):
        removed = draw(st.sets(st.sampled_from(sorted(edges)), max_size=3)) if edges else set()
        after.append((edges - removed) | draw(st.sets(edge, max_size=3)))
    return n, web, semantic, m, after[0], after[1]


def _problem(n, web, semantic, alpha=0.5):
    graphs = LinkGraph(n, web), LinkGraph(n, semantic)
    return PageRankProblem(blend_transition(*(g.adjacency() for g in graphs), alpha))


@given(graphs=_paired_graphs(), alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
@settings(max_examples=150, deadline=None)
@example(graphs=(3, {(0, 0), (0, 1), (1, 2)}, {(0, 1), (2, 0), (2, 2)}), alpha=0.5)
def test_blend_equals_the_per_edge_blend(graphs, alpha):
    n, web_edges, semantic_edges = graphs
    web, semantic = LinkGraph(n, web_edges), LinkGraph(n, semantic_edges)
    expected = _csr_bytes(coo_blend(web, semantic, alpha))
    assert _csr_bytes(blend_transition(web.adjacency(), semantic.adjacency(), alpha)) == expected
    assert _csr_bytes(DoubleLinkGraph(web, semantic).transition_matrix(alpha)) == expected


@given(case=_graphs_and_delta())
@settings(max_examples=100, deadline=None)
@example(case=(3, {(0, 1), (1, 1)}, {(2, 0)}, 4, {(0, 1), (1, 1), (3, 0)}, {(2, 0), (2, 3)}))
def test_rounds_land_within_tolerance_of_a_cold_solve(case):
    n, web, semantic, m, web_after, semantic_after = case
    before, after = _problem(n, web, semantic), _problem(m, web_after, semantic_after)
    old = solve_pagerank(before, method="gauss_seidel", tol=TOL, max_iter=5000)
    assert old.converged
    # The old solution in the new problem's gauge: b shrinks from 1/n to
    # 1/m, and a new page starts at its own b.
    y = np.full(m, 1.0 / m)
    y[:n] = _warm_gauge(before, old.scores) * (n / m)
    result = refine_incremental(after, y, tol=TOL)
    assert result.relaxations <= RELAXATION_BUDGET * m + m  # at most one round past
    if result.converged:
        cold = solve_pagerank(after, method="gauss_seidel", tol=TOL, max_iter=5000)
        assert cold.converged
        drift = np.abs(normalize_solution(after, y) - cold.scores).sum()
        assert float(drift) <= 100 * TOL


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


def _walked_property_weights(ranker):
    """``property_weights`` by a walk that reads each page under its own lock."""
    scores = ranker.scores()
    weights = {}
    for title in ranker.smr.titles():
        page_score = scores.get(title, 0.0)
        for prop, _ in ranker.smr.annotations(title):
            weights[prop.lower()] = weights.get(prop.lower(), 0.0) + page_score
    return weights


def test_property_weights_equal_a_per_page_walk():
    smr = _make_smr()
    ranker = PageRankRanker(smr)
    assert ranker.property_weights() == _walked_property_weights(ranker)
    kind, title, annotations = _station(3)
    writes = [
        lambda: smr.register(kind, title, annotations + [("last_value", 1.5)]),
        lambda: smr.register(kind, title, annotations + [("Last_Value", 2.5)]),
        lambda: smr.register(kind, title, annotations, description="A prose edit."),
        lambda: smr.register(*_station(99, [("maintainer", "ann")]), links=[title]),
    ]
    for write in writes:
        write()
        assert ranker.property_weights() == _walked_property_weights(ranker)


# Ranker-level fallback under random link deltas: a budget drawn per
# example makes the rounds converge or run out.
@st.composite
def _ranker_case(draw):
    pages = draw(st.integers(3, 8))
    target = st.integers(0, pages)  # ``pages`` names the page the delta may create
    page_links = st.lists(st.integers(0, pages - 1), max_size=3)
    links = draw(st.lists(page_links, min_size=pages, max_size=pages))
    page = draw(target)
    return pages, links, page, draw(st.lists(target, max_size=3))


@given(case=_ranker_case(), budget=st.sampled_from([None, 0, 1, 4, 40]))
@settings(max_examples=60, deadline=None)
@example(case=(3, [[1], [2], [0]], 3, [0, 1]), budget=None)
@example(case=(3, [[1], [2], [0]], 3, [0, 1]), budget=1)
def test_ranker_falls_back_when_the_rounds_do_not_converge(case, budget):
    pages, links, page, new_links = case
    smr = SensorMetadataRepository()
    for i in range(pages):
        kind, title, annotations = _station(i)
        smr.register(kind, title, annotations, links=[_station(j)[1] for j in links[i]])
    ranker = PageRankRanker(smr)
    previous = ranker.scores()
    kind, title, annotations = _station(page)
    smr.register(kind, title, annotations, links=[_station(j)[1] for j in new_links])
    outcomes = []

    def budgeted(problem, y, **kwargs):
        outcomes.append(refine_incremental(problem, y, max_relaxations=budget, **kwargs))
        return outcomes[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranking, "refine_incremental", budgeted)
        scores = ranker.scores()
    if scores is previous:  # no link moved: nothing was solved
        assert not outcomes
        return
    converged = bool(outcomes) and outcomes[0].converged
    assert ranker.last_refresh_mode == ("incremental" if converged else "warm")
    reference = PageRankRanker(smr).scores()
    assert set(scores) == set(reference)
    assert sum(abs(scores[t] - reference[t]) for t in reference) < 100 * ranker.tol


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

    The reference is the per-edge blend (:func:`coo_blend`) of the walk
    over every page's parse (``tests.test_wiki``), not the wiki's kept
    targets, which the ranker reads through ``WikiSite.link_adjacency``.
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
        link_adjacency = WikiSite.link_adjacency
        calls = []

        def counted(wiki):
            calls.append(wiki)
            return link_adjacency(wiki)

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
            patch.setattr(WikiSite, "link_adjacency", counted)
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
                fresh = coo_blend(walked_link_graph(wiki), walked_semantic_graph(wiki), 0.5)
                assert titles == wiki.titles()
                assert _csr_bytes(problem.transition) == _csr_bytes(fresh), step

                reference = PageRankRanker(smr).scores()
                assert set(scores) == set(reference)
                drift = sum(abs(scores[title] - reference[title]) for title in reference)
                assert drift < 100 * ranker.tol
