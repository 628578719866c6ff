"""The ranking metric: PageRank over the double linking structure.

Section III: "Every metadata page in our system has two kinds of linking
structures ... We extend the original PageRank algorithm to consider
these two links simultaneously for scoring the metadata pages." The
ranker builds both structures from the wiki, blends them, solves with
Gauss–Seidel (the paper's production choice), and caches per-title
scores. It also exposes *property importance* — the PageRank mass carried
by pages using each semantic property — which feeds the recommendation
mechanism ("properties that are scored high by the PageRank algorithm").

Invariants:

- **Inputs keyed on the link structure.** The sorted titles and the
  blended :class:`~repro.pagerank.webgraph.PageRankProblem` are one memo
  per ranker, stamped ``(link_generation, alpha, teleport)`` from
  ``WikiSite.link_generation``. The titles and the two adjacency matrices
  of the link targets the wiki keeps are read under ``smr.lock.read()``;
  the blend (:func:`~repro.pagerank.doublelink.blend_transition`) and
  the problem are built after the lock is released. The blended CSR
  arrays are bit for bit those of the per-page blend over walked link
  graphs, and explanations and personalized scores are bit for bit those
  of a ranker that rebuilds every input on every call.
- **Scores stamped on the link structure.** PageRank is a function of
  the titles, the two link graphs, ``alpha`` and ``teleport``, so the
  score map is stamped ``(link_generation, epoch)``: it is solved again
  only when a link changed or :meth:`PageRankRanker.refresh` bumped the
  epoch (which forces a full solve). A write that changes no link (an
  observation, a description edit) moves only ``mutation_count``; the
  next :meth:`~PageRankRanker.scores` reads both counters together under
  ``smr.lock.read()``, advances its ``mutation_count`` stamp and returns
  the same map object, with no solve, event or metric. Property weights
  sum scores over annotations, which such a write does change, so they
  carry their own stamp, :attr:`~PageRankRanker.generation`; one
  ``smr.lock.read()`` takes every page's parsed annotations, and the
  sums run after it, in title order and then annotation order.
- **Incremental scores within tolerance.** A refresh that takes the
  incremental path relaxes every dirty row of a round at once, so its
  scores agree with a cold solve within ``100 * tol`` in L1, not bit for
  bit; when its rounds do not converge within their budget the ranker
  falls back to the warm-started full solve.
- **Non-negative k.** ``top``, ``related_pages`` and ``top_properties``
  raise :class:`~repro.errors.QueryError` for ``k < 0``; ``k = 0`` is an
  empty list.
"""

from __future__ import annotations

import threading
import time
from itertools import repeat
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConvergenceError, QueryError
from repro.pagerank.contributions import decompose_score
from repro.pagerank.doublelink import blend_transition
from repro.pagerank.incremental import dirty_rows, initial_residual, refine_incremental
from repro.pagerank.linear_system import normalize_solution
from repro.pagerank.solvers import solve_pagerank
from repro.pagerank.webgraph import PageRankProblem
from repro.smr.repository import SensorMetadataRepository

#: The sorted titles and the blended problem (``None`` when the wiki has
#: no page).
LinkStructure = Tuple[List[str], Optional[PageRankProblem]]

#: ``(smr.mutation_count, ranker.epoch)``; see :attr:`PageRankRanker.generation`.
Generation = Tuple[int, int]

#: ``(WikiSite.link_generation, ranker.epoch)`` of the last solve.
LinkStamp = Tuple[int, int]


def _top_k(pairs: Iterable[Tuple[str, float]], k: int) -> List[Tuple[str, float]]:
    """The ``k`` highest-scored ``(name, score)`` pairs, ties by name."""
    if k < 0:
        raise QueryError(f"k must be non-negative, got {k}")
    return sorted(pairs, key=lambda item: (-item[1], item[0]))[:k]


class PageRankRanker:
    """Computes and caches double-link PageRank scores for an SMR.

    Freshness and warm starts: the score cache is stamped with the
    wiki's ``link_generation`` and the ranker's ``epoch``, so a write
    that creates a page or changes a link invalidates it automatically —
    no explicit ``refresh()`` needed on the query path — and any other
    write leaves it as it is. Recomputation reuses the last score
    vector: small deltas go through the localized
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
        # Replaced on each solve, never mutated in place: the next solve
        # warm-starts from it.
        self._scores: Dict[str, float] = {}
        self._solved_at: Optional[LinkStamp] = None
        # The generation scores() last checked the stamp at.
        self._checked_at: Optional[Generation] = None
        self._property_weights: Optional[Tuple[Generation, Dict[str, float]]] = None
        # Serializes recomputes: several request threads can hit a stale
        # cache at once — one solve is expensive enough without N copies.
        # Reentrant because _explain_snapshot() -> scores() may recompute.
        self._refresh_lock = threading.RLock()
        # The link-structure memo (see _link_structure), stamped
        # (link_generation, alpha, teleport).
        self._structure_memo: Optional[Tuple[Tuple[int, float, float], LinkStructure]] = None
        # Per-generation snapshot backing explain(): the titles, an index
        # map, the problem and the score vector. Stamped with
        # ``generation`` so writes and forced refreshes both invalidate
        # it; built lazily on first explain.
        self._explain_memo: Optional[Tuple[Generation, Dict[str, Any]]] = None
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
        :attr:`last_refresh_iterations`). Link changes are picked up
        automatically (and may take the cheaper incremental path);
        ``refresh()`` is for forcing a complete solver run — e.g. after
        changing ``alpha``/``teleport``/``method`` on a live ranker.
        """
        self.epoch += 1

    @property
    def generation(self) -> Generation:
        """The generation derived views are stamped with: (SMR mutations, epoch).

        Any page write bumps the first component; a forced :meth:`refresh`
        bumps the second. The engine's result cache, the autocomplete
        memos and the property weights read it before each rebuild, so a
        write or a forced re-solve reaches them on their next read.
        """
        return (self.smr.mutation_count, self.epoch)

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

    def _current(self) -> bool:
        """Whether the scores were solved on today's link structure and epoch."""
        return self._solved_at == (self.smr.wiki.link_generation, self.epoch)

    def scores(self) -> Dict[str, float]:
        """title -> PageRank score (cached; recomputed when a link changed).

        After any write, the next call reads ``smr.mutation_count`` and
        ``WikiSite.link_generation`` together under the read lock. When
        the link structure and the epoch are those of the last solve it
        only advances its ``mutation_count`` stamp and returns the same
        map. Otherwise it recomputes — through the incremental path when
        the change dirtied few rows, through a warm-started full solve
        otherwise, and always through a full solve after
        :meth:`refresh`.
        """
        if self._checked_at != self.generation:
            with self._refresh_lock:  # double-checked: first thread solves
                with self.smr.lock.read():
                    generation = self.generation
                    stamp = (self.smr.wiki.link_generation, generation[1])
                if self._checked_at != generation:
                    if self._solved_at != stamp:
                        self._recompute(stamp)
                    self._checked_at = generation
        return self._scores

    def _link_structure(self) -> LinkStructure:
        """The sorted titles and the blended double-link problem.

        Built again only when ``WikiSite.link_generation``, ``alpha`` or
        ``teleport`` moved. Reading ``self.smr.wiki`` bypasses the
        facade, so the SMR read lock is taken here: the stamp and the
        arrays it stamps come from one consistent snapshot. The blend and
        the problem's transpose are built after the lock is released, so
        a waiting writer does not wait for them.
        """
        with self.smr.lock.read():
            wiki = self.smr.wiki
            stamp = (wiki.link_generation, self.alpha, self.teleport)
            memo = self._structure_memo
            if memo is not None and memo[0] == stamp:
                return memo[1]
            titles = wiki.titles()
            adjacency = wiki.link_adjacency() if titles else None
        problem = None
        if adjacency is not None:
            problem = PageRankProblem(blend_transition(*adjacency, alpha=stamp[1]), stamp[2])
        structure = (titles, problem)
        self._structure_memo = (stamp, structure)
        return structure

    def _recompute(self, stamp: LinkStamp) -> None:
        # The stamp was read before the link structure: a racing write can
        # then only stamp fresh inputs stale, never the reverse.
        titles, problem = self._link_structure()
        if not titles:
            self._scores = {}
            self._solved_at = stamp
            return
        # A new epoch (refresh()) forces the full solve.
        force_full = self._solved_at is not None and self._solved_at[1] != stamp[1]
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
            if not force_full:
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
        self._scores = dict(zip(titles, scores_vec.tolist()))
        self._solved_at = stamp

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

        The lag is 0 while the link structure is the one the scores were
        solved on, since no write since then changed a score. Otherwise
        it is how many SMR mutations arrived since :meth:`scores` last
        checked (the full mutation count when nothing was ever ranked).
        Called each tick by the metrics sampler's engine probe, this
        turns ranker freshness into the time series the ROADMAP's
        streaming-ingestion item asks for — staleness *lag over time*,
        not just the boolean the ``/healthz`` probe reports — and the
        series the ``ranker_freshness`` SLO burns its budget against.
        """
        checked = self._checked_at
        if self._current():
            lag = 0
        elif checked is None:
            lag = self.smr.mutation_count
        else:
            lag = max(0, self.smr.mutation_count - checked[0])
        registry = obs.get_registry()
        if registry.enabled:
            registry.gauge(
                "ranking_staleness_generations",
                "SMR mutations not yet reflected in the PageRank ranking.",
            ).set(float(lag))
        return lag

    def freshness(self) -> Dict[str, Any]:
        """Ranker staleness vs. the link structure, for ``/healthz``.

        ``fresh=False`` means the next scoring call will trigger a
        recompute — a degraded-but-self-healing state, not an error.
        ``built_at_mutation`` is the SMR mutation count :meth:`scores`
        last checked its stamp at.
        """
        checked = self._checked_at
        return {
            "fresh": self._current(),
            "built_at_mutation": None if checked is None else checked[0],
            "smr_mutation": self.smr.mutation_count,
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

        New pages start at the old median score (the upper middle value,
        found by ``np.partition`` without a sort); the vector is rescaled
        to unit sum, the scale every solver's default start has.
        """
        previous = self._scores
        if not previous:
            return None
        old_values = np.fromiter(previous.values(), dtype=float, count=len(previous))
        middle = old_values.size // 2
        fallback = float(np.partition(old_values, middle)[middle])
        vector = np.fromiter(map(previous.get, titles, repeat(fallback)), dtype=float, count=n)
        total = vector.sum()
        if total <= 0:
            return None
        return vector / total

    def score(self, title: str) -> float:
        """The PageRank of one page (0.0 for unknown titles)."""
        return self.scores().get(title, 0.0)

    def top(self, k: int = 10) -> List[Tuple[str, float]]:
        """The ``k`` highest-ranked pages as (title, score) pairs."""
        return _top_k(self.scores().items(), k)

    # ------------------------------------------------------------------
    # Score provenance ("why is this page ranked here")
    # ------------------------------------------------------------------

    def _explain_snapshot(self) -> Dict[str, Any]:
        """The per-generation state :meth:`explain` decomposes against.

        Same generation-before-data, double-checked-lock shape as the
        score cache: the :attr:`generation` stamp is read before the link
        structure, so a racing write can at worst stamp fresh state stale
        (rebuilt next call), never stale state fresh. The snapshot holds
        the ranker's titles and combined double-link problem, whose cached
        transpose is the in-link index the decomposition reads.
        """
        stamp = self.generation
        memo = self._explain_memo
        if memo is not None and memo[0] == stamp:
            return memo[1]
        with self._refresh_lock:
            stamp = self.generation
            memo = self._explain_memo
            if memo is not None and memo[0] == stamp:
                return memo[1]
            scores = self.scores()
            titles, problem = self._link_structure()
            state: Dict[str, Any] = {
                "titles": titles,
                "index": {title.strip().lower(): i for i, title in enumerate(titles)},
                "problem": problem,
                "x": np.array([scores.get(title, 0.0) for title in titles]),
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
        key = titles[position].strip().lower()
        contributions = []
        with self.smr.lock.read():  # direct wiki access, same as _link_structure
            for source, value in decomposition.contributions:
                web, semantic = self.smr.wiki.link_targets(titles[source])
                via_web, via_semantic = key in web, key in semantic
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
        titles, problem = self._link_structure()
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
        problem = PageRankProblem(problem.transition, problem.teleport, personalization)
        result = solve_pagerank(
            problem, method=self.method, tol=self.tol, max_iter=self.max_iter
        )
        return {title: float(result.scores[i]) for i, title in enumerate(titles)}

    def related_pages(self, title: str, k: int = 5) -> List[Tuple[str, float]]:
        """The ``k`` pages most related to ``title`` (seed excluded)."""
        scores = self.personalized([title])
        key = title.strip().lower()
        return _top_k(
            (
                (candidate, score)
                for candidate, score in scores.items()
                if candidate.strip().lower() != key
            ),
            k,
        )

    # ------------------------------------------------------------------
    # Property importance (feeds recommendations)
    # ------------------------------------------------------------------

    def property_weights(self) -> Dict[str, float]:
        """property name -> total PageRank mass of pages annotating it.

        Stamped with :attr:`generation`, read before the walk: a write
        that changes no score may still change annotations. One read lock
        takes every page's title and parsed annotations, which a save
        replaces and never mutates; the sums run after it is released, in
        title order and then annotation order, so each weight is the same
        sum of the same doubles as a walk that locks once per page, and a
        waiting writer waits for the references only.
        """
        generation = self.generation
        memo = self._property_weights
        if memo is not None and memo[0] == generation:
            return memo[1]
        scores = self.scores()
        with self.smr.lock.read():
            wiki = self.smr.wiki
            pages = [(title, wiki.parsed(title).annotations) for title in wiki.titles()]
        weights: Dict[str, float] = {}
        for title, annotations in pages:
            page_score = scores.get(title, 0.0)
            for prop, _ in annotations:
                name = prop.lower()
                weights[name] = weights.get(name, 0.0) + page_score
        self._property_weights = (generation, weights)
        return weights

    def top_properties(self, k: int = 5) -> List[Tuple[str, float]]:
        """The ``k`` highest-weighted properties as (name, weight) pairs."""
        return _top_k(self.property_weights().items(), k)
