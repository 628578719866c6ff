"""The Interface module (Fig. 4): the user-facing tagging commands.

"The Interface module provides the necessary commands in order to create
tags and to accept users' inputs for visualizing tag clouds." Cloud
construction goes through the Cache so repeated visualizations of an
unchanged store cost nothing. The Cache is the result cache's
:class:`~repro.perf.cache.GenerationalLruCache`: a cloud is keyed on its
build parameters and stamped with the ``TagStore.version`` read before
the build, so the first read after any tag mutation rebuilds it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import obs
from repro.perf.cache import GenerationalLruCache
from repro.tagging.cloud import TagCloud, TagCloudBuilder
from repro.tagging.similarity import cosine_similarity
from repro.tagging.store import TagStore


class TaggingSystem:
    """The assembled dynamic tagging system."""

    def __init__(
        self,
        store: Optional[TagStore] = None,
        builder: Optional[TagCloudBuilder] = None,
        cache: Optional[GenerationalLruCache] = None,
    ):
        self.store = store or TagStore()
        self.builder = builder or TagCloudBuilder()
        # ``is None``, not ``or``: an empty cache has length 0 and is falsy.
        self.cache = (
            cache if cache is not None else GenerationalLruCache(capacity=32, name="tagcloud")
        )

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    def create_tag(self, page: str, tag: str) -> bool:
        """Tag a page (user command)."""
        return self.store.create(page, tag)

    def remove_tag(self, page: str, tag: str) -> bool:
        """Remove one tag assignment; True if it existed."""
        return self.store.remove(page, tag)

    def tags_of(self, page: str) -> List[str]:
        """The tags currently on ``page``, sorted."""
        return self.store.tags_of(page)

    def sync_from_smr(self, smr, properties: List[str]) -> int:
        """Parser command: pull property values from the SMR as tags."""
        with obs.get_tracer().span("tagging.parser", properties=list(properties)) as span:
            imported = self.store.import_from_smr(smr, properties)
            span.set_attribute("imported", imported)
        obs.get_registry().counter(
            "tagging_parser_imports_total", "Tags imported from the SMR by the Parser."
        ).inc(imported)
        obs.get_event_log().info(
            "tagging.parser", properties=list(properties), imported=imported
        )
        return imported

    # ------------------------------------------------------------------
    # Visualization input
    # ------------------------------------------------------------------

    def cloud(self, top: Optional[int] = None, min_count: int = 1) -> TagCloud:
        """Build (or fetch from cache) the current tag cloud.

        The pipeline stages are traced individually — ``tagging.cache``
        for the lookup, ``tagging.matrix`` for the similarity-matrix /
        clique build on a miss — under one ``tagging.cloud`` parent, the
        Fig. 4 Parser→Cache→Matrix structure made observable.
        """
        tracer = obs.get_tracer()
        event_log = obs.get_event_log()
        key = (top, min_count, self.builder.threshold, self.builder.max_font)
        version = self.store.version
        with tracer.span("tagging.cloud", top=top, min_count=min_count) as span:
            with tracer.span("tagging.cache"):
                cached = self.cache.get(key, version)
            if cached is not None:
                span.set_attribute("cache", "hit")
                event_log.debug(
                    "tagging.cloud", cache="hit", entries=len(cached.entries)
                )
                return cached
            span.set_attribute("cache", "miss")
            with obs.time_block(
                obs.get_registry().histogram(
                    "tagging_cloud_build_seconds",
                    "Seconds spent building tag clouds on cache misses.",
                )
            ) as timer, tracer.span("tagging.matrix"):
                built = self.builder.build(self.store, top=top, min_count=min_count)
            self.cache.put(key, version, built)
            event_log.info(
                "tagging.cloud",
                cache="miss",
                entries=len(built.entries),
                cliques=len(built.cliques),
                seconds=timer.elapsed,
            )
            return built

    def trends(self, k: int = 10) -> List[Tuple[str, int]]:
        """The k most used tags — "the trends of metadata"."""
        return self.store.top_tags(k)

    def similar_pages(self, page: str, k: int = 5) -> List[Tuple[str, float]]:
        """Pages whose tag sets are most cosine-similar to ``page``'s.

        Rare shared tags weigh more: each tag contributes with weight
        1/frequency, so two pages sharing an unusual tag are more similar
        than two pages sharing a ubiquitous one.
        """
        own_tags = self.store.tags_of(page)
        if not own_tags:
            return []
        counts = self.store.counts()

        def vector(tags: List[str]) -> dict:
            return {tag: 1.0 / counts[tag] for tag in tags}

        own_vector = vector(own_tags)
        candidates = {
            other for tag in own_tags for other in self.store.pages_of(tag)
        }
        candidates.discard(page.strip())
        scored = [
            (other, cosine_similarity(own_vector, vector(self.store.tags_of(other))))
            for other in candidates
        ]
        scored = [(other, score) for other, score in scored if score > 0]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]
