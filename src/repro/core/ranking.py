"""The ranking metric: PageRank over the double linking structure.

Section III: "Every metadata page in our system has two kinds of linking
structures ... We extend the original PageRank algorithm to consider
these two links simultaneously for scoring the metadata pages." The
ranker builds both structures from the wiki, blends them, solves with
Gauss–Seidel (the paper's production choice), and caches per-title
scores. It also exposes *property importance* — the PageRank mass carried
by pages using each semantic property — which feeds the recommendation
mechanism ("properties that are scored high by the PageRank algorithm").
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConvergenceError, QueryError
from repro.pagerank.contributions import decompose_score
from repro.pagerank.doublelink import DoubleLinkGraph
from repro.pagerank.incremental import dirty_rows, initial_residual, refine_incremental
from repro.pagerank.linear_system import normalize_solution
from repro.pagerank.solvers import solve_pagerank
from repro.smr.repository import SensorMetadataRepository


class PageRankRanker:
    """Computes and caches double-link PageRank scores for an SMR.

    Freshness and warm starts: the score cache is stamped with the SMR's
    :attr:`~repro.smr.repository.SensorMetadataRepository.mutation_count`,
    so any page write invalidates it automatically — no explicit
    ``refresh()`` needed on the query path. Recomputation reuses the last
    score vector: small deltas go through the localized
    :func:`~repro.pagerank.incremental.refine_incremental` relaxation
    (only dirty rows are touched), and anything past
    ``incremental_threshold`` (a fraction of pages dirty) falls back to a
    full warm-started Gauss–Seidel solve. ``refresh()`` forces the full
    solve path.
    """

    def __init__(
        self,
        smr: SensorMetadataRepository,
        alpha: float = 0.5,
        teleport: float = 0.85,
        method: str = "gauss_seidel",
        tol: float = 1e-10,
        max_iter: int = 5000,
        incremental_threshold: float = 0.25,
    ):
        self.smr = smr
        self.alpha = alpha
        self.teleport = teleport
        self.method = method
        self.tol = tol
        self.max_iter = max_iter
        self.incremental_threshold = incremental_threshold
        self._scores: Optional[Dict[str, float]] = None
        self._property_weights: Optional[Dict[str, float]] = None
        self._built_at_mutation: Optional[int] = None
        self._force_full = False
        # Serializes recomputes: several request threads can hit a stale
        # cache at once — one solve is expensive enough without N copies.
        # Reentrant because property_weights() -> scores() may recompute.
        self._refresh_lock = threading.RLock()
        # Per-generation snapshot backing explain(): (titles, index map,
        # the combined problem, the score vector, both link graphs).
        # Stamped with (mutation_count, epoch) so writes and forced
        # refreshes both invalidate it; built lazily on first explain.
        self._explain_memo: Optional[Tuple[Tuple[Any, int], Dict[str, Any]]] = None
        #: Bumped by :meth:`refresh`. Result caches that embed PageRank
        #: scores fold this into their generation stamp, so forcing a
        #: re-solve also invalidates cached search results.
        self.epoch = 0

    # ------------------------------------------------------------------
    # Page scores
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Force a full re-solve on the next :meth:`scores` call.

        The previous solution is kept as a warm start: the paper notes
        that "Pagerank scores need to be updated regularly as new
        metadata pages are continuously created", and re-solving from the
        old vector converges in a fraction of the iterations when the
        graph changed only incrementally (see
        :attr:`last_refresh_iterations`). Ordinary SMR writes are picked
        up automatically (and may take the cheaper incremental path);
        ``refresh()`` is for forcing a complete solver run — e.g. after
        changing ``alpha``/``teleport``/``method`` on a live ranker.
        """
        self._scores = None
        self._property_weights = None
        self._force_full = True
        self.epoch += 1

    #: Iterations spent by the most recent solve, in full-sweep units
    #: (incremental refreshes convert their row-relaxation count; see
    #: :meth:`IncrementalResult.sweep_equivalents`). Diagnostics for the
    #: incremental-update story.
    last_refresh_iterations: int = 0

    #: How the most recent recompute ran: "cold" (no previous vector),
    #: "warm" (full solve seeded with the previous vector) or
    #: "incremental" (localized dirty-set relaxation).
    last_refresh_mode: str = "cold"

    #: Single-row relaxations spent by the most recent incremental
    #: refresh (0 for full solves).
    last_refresh_relaxations: int = 0

    def _stale(self) -> bool:
        if self._scores is None:
            return True
        mutation = getattr(self.smr, "mutation_count", None)
        return mutation is not None and mutation != self._built_at_mutation

    def scores(self) -> Dict[str, float]:
        """title -> PageRank score (cached; recomputed when the SMR moved).

        The cache is generation-stamped: a register/edit/bulk-load bumps
        ``smr.mutation_count`` and the next call recomputes — through the
        incremental path when the edit dirtied few rows, through a
        warm-started full solve otherwise.
        """
        if self._stale():
            with self._refresh_lock:  # double-checked: first thread solves
                if self._stale():
                    self._property_weights = None
                    self._recompute()
        return self._scores

    def _recompute(self) -> None:
        mutation = getattr(self.smr, "mutation_count", None)
        # Reading self.smr.wiki bypasses the facade, so take the SMR read
        # lock ourselves: titles and both link graphs must come from one
        # consistent snapshot (mutation read first — a racing write can
        # then only stamp fresh graphs stale, never the reverse).
        with self.smr.lock.read():
            titles = self.smr.wiki.titles()
            if not titles:
                self._scores = {}
                self._built_at_mutation = mutation
                self._force_full = False
                return
            double = DoubleLinkGraph(
                self.smr.wiki.link_graph(), self.smr.wiki.semantic_graph()
            )
        problem = double.to_problem(alpha=self.alpha, teleport=self.teleport)
        x0 = self._warm_start(titles, problem.n)
        mode = "cold"
        scores_vec: Optional[np.ndarray] = None
        self.last_refresh_relaxations = 0
        if x0 is not None and self.method not in ("power", "arnoldi"):
            # Linear-system solvers work on the un-normalized Eq. 5
            # solution y = x / k with k = (1-c) + c (d^T x); rescale
            # the remembered probability vector into that gauge.
            k = (1.0 - problem.teleport) + problem.teleport * float(
                x0[problem.dangling].sum()
            )
            x0 = x0 / k
            mode = "warm"
            if not self._force_full:
                scores_vec = self._try_incremental(problem, x0)
                if scores_vec is not None:
                    mode = "incremental"
        elif x0 is not None:
            mode = "warm"
        if scores_vec is None:
            result = solve_pagerank(
                problem, method=self.method, tol=self.tol, max_iter=self.max_iter, x0=x0
            )
            if not result.converged:
                raise ConvergenceError(
                    f"PageRank solver {self.method!r} did not converge in "
                    f"{result.iterations} iterations (residual {result.final_residual:.2e})",
                    iterations=result.iterations,
                    residual=result.final_residual,
                )
            self.last_refresh_iterations = result.iterations
            scores_vec = result.scores
        self.last_refresh_mode = mode
        self._record_refresh(mode, problem.n)
        self._scores = {title: float(scores_vec[i]) for i, title in enumerate(titles)}
        self._previous_scores = dict(self._scores)
        self._built_at_mutation = mutation
        self._force_full = False

    def _try_incremental(self, problem, y0: np.ndarray) -> Optional[np.ndarray]:
        """Localized dirty-set recompute; None when a full solve is due.

        Declines when the initial residual marks more than
        ``incremental_threshold`` of all pages dirty (a full sweep is
        then cheaper per unit of progress) or when the relaxation budget
        runs out before convergence — the caller falls back to the
        warm-started full solver either way, so correctness never depends
        on this path.
        """
        started = time.perf_counter()
        y = np.asarray(y0, dtype=float).copy()
        residual = initial_residual(problem, y)
        # Robust scalar rescale of the warm start: when the page count
        # changed, the uniform personalization shrinks by n/(n+1) and the
        # whole old solution is off by that factor — every row looks
        # dirty. Away from the edit, b_i / (A y)_i is one constant (the
        # gauge mismatch), so the median of the per-row ratios recovers
        # it exactly while ignoring the few genuinely dirty rows (a
        # least-squares fit would be contaminated by them). Rescaling by
        # that t re-localizes the residual around the actual edit.
        image = problem.personalization - residual  # A y, already in hand
        nonzero = np.abs(image) > 0.0
        if nonzero.any():
            t = float(np.median(problem.personalization[nonzero] / image[nonzero]))
            if t > 0.0:
                y *= t
                residual = problem.personalization - t * image
        dirty = dirty_rows(residual, problem.personalization, self.tol)
        obs.get_registry().gauge(
            "ranking_dirty_pages",
            "Rows marked dirty by the most recent incremental refresh attempt.",
        ).set(float(dirty.size))
        if dirty.size > self.incremental_threshold * problem.n:
            return None
        result = refine_incremental(
            problem, y, tol=self.tol, residual=residual
        )
        if not result.converged:
            return None
        self.last_refresh_iterations = result.sweep_equivalents(problem.n)
        self.last_refresh_relaxations = result.relaxations
        # The dirty-set path bypasses the solver registry, so it reports
        # its residual trajectory to the shared recorder itself — keeping
        # /debug/convergence complete across full and incremental solves.
        obs.get_convergence_recorder().record(
            "incremental",
            n=problem.n,
            iterations=self.last_refresh_iterations,
            converged=True,
            elapsed=time.perf_counter() - started,
            residuals=result.residual_history,
            matvecs=result.relaxations / max(problem.n, 1),
        )
        return normalize_solution(problem, y)

    def record_staleness(self) -> int:
        """Export the mutation lag as ``ranking_staleness_generations``.

        The lag is how many SMR mutations the cached ranking has not yet
        absorbed (the full mutation count when nothing was ever ranked).
        Called each tick by the metrics sampler's engine probe, this
        turns ranker freshness into the time series the ROADMAP's
        streaming-ingestion item asks for — staleness *lag over time*,
        not just the boolean the ``/healthz`` probe reports — and the
        series the ``ranker_freshness`` SLO burns its budget against.
        """
        current = getattr(self.smr, "mutation_count", 0) or 0
        built = self._built_at_mutation
        lag = current if built is None else max(0, current - built)
        registry = obs.get_registry()
        if registry.enabled:
            registry.gauge(
                "ranking_staleness_generations",
                "SMR mutations not yet reflected in the PageRank ranking.",
            ).set(float(lag))
        return lag

    def freshness(self) -> Dict[str, Any]:
        """Ranker staleness vs. the SMR generation, for ``/healthz``.

        ``fresh=False`` means the next scoring call will trigger a
        recompute — a degraded-but-self-healing state, not an error.
        """
        return {
            "fresh": not self._stale(),
            "built_at_mutation": self._built_at_mutation,
            "smr_mutation": getattr(self.smr, "mutation_count", None),
            "epoch": self.epoch,
            "last_refresh_mode": self.last_refresh_mode,
            "last_refresh_iterations": self.last_refresh_iterations,
        }

    def _record_refresh(self, mode: str, n: int) -> None:
        obs.get_event_log().info(
            "ranking.refresh",
            mode=mode,
            pages=n,
            iterations=self.last_refresh_iterations,
            relaxations=self.last_refresh_relaxations,
        )
        registry = obs.get_registry()
        if not registry.enabled:
            return
        registry.counter(
            "ranking_refresh_total",
            "Ranking recomputes per mode (cold, warm, incremental).",
            labels=("mode",),
        ).labels(mode).inc()
        registry.gauge(
            "ranking_graph_pages", "Pages in the ranking graph at the last refresh."
        ).set(float(n))

    def _warm_start(self, titles, n: int) -> Optional[np.ndarray]:
        """Seed the solver with the previous solution, if one exists.

        New pages start at the old median score; the vector is rescaled
        to unit sum, the scale every solver's default start has.
        """
        previous = getattr(self, "_previous_scores", None)
        if not previous:
            return None
        old_values = sorted(previous.values())
        fallback = old_values[len(old_values) // 2]
        vector = np.array([previous.get(title, fallback) for title in titles])
        total = vector.sum()
        if total <= 0:
            return None
        return vector / total

    def score(self, title: str) -> float:
        """The PageRank of one page (0.0 for unknown titles)."""
        return self.scores().get(title, 0.0)

    def top(self, k: int = 10) -> List[Tuple[str, float]]:
        """The ``k`` highest-ranked pages as (title, score) pairs."""
        ranked = sorted(self.scores().items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]

    # ------------------------------------------------------------------
    # Score provenance ("why is this page ranked here")
    # ------------------------------------------------------------------

    def _explain_snapshot(self) -> Dict[str, Any]:
        """The per-generation state :meth:`explain` decomposes against.

        Same generation-before-data, double-checked-lock shape as the
        score cache: the (mutation, epoch) stamp is read before the
        graphs, so a racing write can at worst stamp fresh state stale
        (rebuilt next call), never stale state fresh. The snapshot holds
        the combined double-link problem — whose cached transpose is the
        in-link index the decomposition reads — plus both component
        graphs, so each contribution can be classified as arriving via
        the web link, the semantic link, or both (Section III).
        """
        stamp = (getattr(self.smr, "mutation_count", None), self.epoch)
        memo = self._explain_memo
        if memo is not None and memo[0] == stamp:
            return memo[1]
        with self._refresh_lock:
            stamp = (getattr(self.smr, "mutation_count", None), self.epoch)
            memo = self._explain_memo
            if memo is not None and memo[0] == stamp:
                return memo[1]
            scores = self.scores()
            with self.smr.lock.read():
                titles = list(self.smr.wiki.titles())
                web = self.smr.wiki.link_graph()
                semantic = self.smr.wiki.semantic_graph()
            double = DoubleLinkGraph(web, semantic)
            problem = double.to_problem(alpha=self.alpha, teleport=self.teleport)
            state: Dict[str, Any] = {
                "titles": titles,
                "index": {title.strip().lower(): i for i, title in enumerate(titles)},
                "problem": problem,
                "x": np.array([scores.get(title, 0.0) for title in titles]),
                "web": web,
                "semantic": semantic,
            }
            self._explain_memo = (stamp, state)
            return state

    def explain(self, title: str, top_k: int = 5) -> Dict[str, Any]:
        """Decompose one page's PageRank into its Eq. 2 fixed-point terms.

        Returns the :func:`~repro.pagerank.contributions.decompose_score`
        dict with titles attached: the page's score split into the
        ``top_k`` largest in-link contributions (each naming its source
        page and whether the link is a web link, a semantic link, or
        both), the mass folded into ``remainder``, the dangling and
        teleport terms, and the solver ``residual``. The parts sum to the
        reported score exactly. Unknown titles raise
        :class:`~repro.errors.QueryError`.
        """
        state = self._explain_snapshot()
        position = state["index"].get(title.strip().lower())
        if position is None:
            raise QueryError(f"unknown page {title!r}")
        decomposition = decompose_score(
            state["problem"], state["x"], position, top_k=top_k
        )
        titles = state["titles"]
        web, semantic = state["web"], state["semantic"]
        contributions = []
        for source, value in decomposition.contributions:
            via_web = position in web.out_links(source)
            via_semantic = position in semantic.out_links(source)
            via = "both" if via_web and via_semantic else (
                "web" if via_web else "semantic"
            )
            contributions.append(
                {"source": titles[source], "value": value, "via": via}
            )
        out = decomposition.to_dict()
        out["title"] = titles[position]
        out["contributions"] = contributions
        return out

    # ------------------------------------------------------------------
    # Personalized PageRank ("pages related to these pages")
    # ------------------------------------------------------------------

    def personalized(self, seed_titles: Iterable[str]) -> Dict[str, float]:
        """Topic-sensitive PageRank: teleportation restricted to seeds.

        Returns title -> score with mass concentrated around the seed
        pages' neighborhoods — the classic "related pages" primitive.
        Unknown seed titles raise :class:`QueryError`.
        """
        with self.smr.lock.read():  # direct wiki access, same as _recompute
            titles = self.smr.wiki.titles()
            double = DoubleLinkGraph(
                self.smr.wiki.link_graph(), self.smr.wiki.semantic_graph()
            )
        index = {title.strip().lower(): i for i, title in enumerate(titles)}
        seeds = []
        for title in seed_titles:
            position = index.get(title.strip().lower())
            if position is None:
                raise QueryError(f"unknown page {title!r} in personalization seeds")
            seeds.append(position)
        if not seeds:
            raise QueryError("personalized PageRank needs at least one seed page")
        personalization = np.zeros(len(titles))
        personalization[seeds] = 1.0 / len(seeds)
        problem = double.to_problem(
            alpha=self.alpha, teleport=self.teleport, personalization=personalization
        )
        result = solve_pagerank(
            problem, method=self.method, tol=self.tol, max_iter=self.max_iter
        )
        return {title: float(result.scores[i]) for i, title in enumerate(titles)}

    def related_pages(self, title: str, k: int = 5) -> List[Tuple[str, float]]:
        """The ``k`` pages most related to ``title`` (seed excluded)."""
        scores = self.personalized([title])
        key = title.strip().lower()
        ranked = sorted(
            (
                (candidate, score)
                for candidate, score in scores.items()
                if candidate.strip().lower() != key
            ),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked[:k]

    # ------------------------------------------------------------------
    # Property importance (feeds recommendations)
    # ------------------------------------------------------------------

    def property_weights(self) -> Dict[str, float]:
        """property name -> total PageRank mass of pages annotating it."""
        scores = self.scores()  # refreshing scores resets stale weights too
        if self._property_weights is None:
            weights: Dict[str, float] = {}
            for title in self.smr.titles():
                page_score = scores.get(title, 0.0)
                for prop, _ in self.smr.annotations(title):
                    name = prop.lower()
                    weights[name] = weights.get(name, 0.0) + page_score
            self._property_weights = weights
        return self._property_weights

    def top_properties(self, k: int = 5) -> List[Tuple[str, float]]:
        """The ``k`` highest-weighted properties as (name, weight) pairs."""
        ranked = sorted(self.property_weights().items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]
