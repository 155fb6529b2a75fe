"""The mixed invalidation engine (paper Sections 2.2–2.3).

On every completed update the DSSP must invalidate all cached views that
might have changed.  How precisely it can decide depends on what it sees —
per pair, the *minimum* of the update envelope's and the cache entry's
exposure levels selects the strategy class (Figure 6):

* either side blind → **MBS** behaviour: invalidate unconditionally;
* template visible on both → **MTIS**: skip pairs the static analysis
  proves independent at template level (Lemma 1 + integrity constraints);
* both statements visible → **MSIS**: additionally skip when the bound
  statements are provably independent (interval reasoning on parameters);
* plaintext view also visible → **MVIS**: additionally skip when the view
  contents prove the update misses the cached rows.

The engine is *correct by construction* in the paper's sense: every skip is
justified by a sound proof of independence, so a view that actually changed
is always invalidated.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from repro.analysis.constraints import constraint_implies_no_effect
from repro.analysis.exposure import ExposureLevel
from repro.analysis.independence import statement_independent
from repro.crypto.envelope import UpdateEnvelope
from repro.dssp.cache import CacheEntry, ViewCache
from repro.dssp.predicate_index import update_pinned_values
from repro.dssp.stats import DsspStats
from repro.dssp.view_checks import view_allows_skip
from repro.sql.ast import Delete, Insert, Update
from repro.templates.classify import is_ignorable
from repro.templates.registry import TemplateRegistry

__all__ = ["InvalidationEngine", "StrategyClass"]


class StrategyClass(enum.Enum):
    """The four named strategy classes, for uniform-exposure experiments."""

    MBS = "blind"
    MTIS = "template"
    MSIS = "stmt"
    MVIS = "view"

    @property
    def exposure_level(self) -> ExposureLevel:
        """The uniform exposure level that induces this strategy."""
        return {
            StrategyClass.MBS: ExposureLevel.BLIND,
            StrategyClass.MTIS: ExposureLevel.TEMPLATE,
            StrategyClass.MSIS: ExposureLevel.STMT,
            StrategyClass.MVIS: ExposureLevel.VIEW,
        }[self]


class InvalidationEngine:
    """Per-application invalidation decisions over a shared cache.

    Args:
        registry: The application's (public) template registry — the DSSP
            may hold template *texts*; an envelope reveals which template an
            instance came from only at ``template`` exposure and above.
        use_integrity_constraints: Let template-level decisions exploit
            primary/foreign keys (paper Section 4.5).
    """

    #: Bound on the statement-level memo; decisions repeat heavily under
    #: Zipf-skewed parameters, but a pathological workload with unbounded
    #: distinct statements must not grow the memo without limit.
    STATEMENT_MEMO_LIMIT = 65536

    def __init__(
        self,
        registry: TemplateRegistry,
        use_integrity_constraints: bool = True,
        equality_only_independence: bool = False,
        predicate_index: bool = False,
    ) -> None:
        self._registry = registry
        self._schema = registry.schema
        self._use_constraints = use_integrity_constraints
        self._equality_only = equality_only_independence
        self._predicate_index = predicate_index
        #: Which path served the most recent ``process_update`` call:
        #: ``indexed`` (every stmt-visible bucket answered from candidate
        #: lists), ``sweep`` (full bucket scans / bucket drops only),
        #: ``mixed``, or ``blind`` (whole-app drop).  Exposure-safe: the
        #: label never carries statement or parameter content.
        self.last_path = "sweep"
        self._used_index = False
        self._used_sweep = False
        self._template_decision: dict[tuple[str, str], bool] = {}
        #: Memoized ``statement_independent`` outcomes keyed by the pair of
        #: envelope identities (update opaque id, entry cache key).  Both
        #: ids encode template + bound parameters, so equal keys mean the
        #: identical pair of bound statements — the decision is a pure
        #: function of them (schema and reasoning flags are fixed per
        #: engine) and never needs re-deriving.
        self._statement_decision: dict[tuple[str, str], bool] = {}

    # -- template-level (TIS) decision, memoized -----------------------------

    def _invalidates_at_template_level(
        self, update_name: str, query_name: str
    ) -> bool:
        key = (update_name, query_name)
        cached = self._template_decision.get(key)
        if cached is not None:
            return cached
        update = self._registry.update(update_name).statement
        query = self._registry.query(query_name).select
        independent = is_ignorable(self._schema, update, query) or (
            self._use_constraints
            and constraint_implies_no_effect(self._schema, update, query)
        )
        self._template_decision[key] = not independent
        return not independent

    # -- the main entry point ---------------------------------------------------

    def process_update(
        self,
        envelope: UpdateEnvelope,
        cache: ViewCache,
        stats: DsspStats | None = None,
        *,
        statement: Insert | Delete | Update | None,
    ) -> int:
        """Invalidate everything the update may have changed; returns count.

        ``statement`` is the bound update the node rebuilt from the
        envelope, None when the envelope hides it.
        """
        app_id = envelope.app_id
        self._used_index = False
        self._used_sweep = False
        if stats is not None:
            stats.updates += 1

        if not envelope.template_visible:
            # Blind update: Property 1 — everything of this app must go.
            count = cache.invalidate_app(app_id)
            if stats is not None:
                stats.record_invalidation(None, count)
            self.last_path = "blind"
            return count

        total = 0
        update_name = envelope.template_name
        assert update_name is not None
        for bucket_name in cache.bucket_names(app_id):
            if bucket_name is None:
                # Blind query entries: template unknown → must invalidate.
                count = cache.invalidate_bucket(app_id, None)
                total += count
                if stats is not None:
                    stats.record_invalidation(None, count)
                continue
            if stats is not None:
                stats.invalidation_checks += 1
            if not self._invalidates_at_template_level(update_name, bucket_name):
                continue
            total += self._process_bucket(
                envelope, statement, cache, app_id, bucket_name, stats
            )
        if self._used_index:
            self.last_path = "mixed" if self._used_sweep else "indexed"
        else:
            self.last_path = "sweep"
        return total

    def _process_bucket(
        self,
        envelope: UpdateEnvelope,
        statement: Insert | Delete | Update | None,
        cache: ViewCache,
        app_id: str,
        bucket_name: str,
        stats: DsspStats | None,
    ) -> int:
        if statement is None:
            # Update at 'template' exposure: entry A governs every pair.
            count = cache.invalidate_bucket(app_id, bucket_name)
            if stats is not None:
                stats.record_invalidation(bucket_name, count)
            self._used_sweep = True
            return count

        entries: Iterable[CacheEntry]
        if self._predicate_index:
            # Predicate-index fast path: visit only the entries whose
            # bound selection values the update's pins could touch.  A
            # non-candidate provably survives ``statement_independent``,
            # so the invalidated set is identical to the bucket sweep's.
            if stats is not None:
                stats.index_lookups += 1
            candidates = cache.predicate_candidates(
                app_id, bucket_name, update_pinned_values(statement)
            )
            if candidates is None:
                self._used_sweep = True
                entries = cache.bucket(app_id, bucket_name)
            else:
                self._used_index = True
                if stats is not None:
                    stats.index_narrowed += (
                        cache.bucket_size(app_id, bucket_name)
                        - len(candidates)
                    )
                entries = candidates
        else:
            self._used_sweep = True
            entries = cache.bucket(app_id, bucket_name)
        victims: list[str] = []
        for entry in entries:
            if self._entry_survives(envelope.opaque_id, statement, entry, stats):
                continue
            victims.append(entry.key)
        count = cache.invalidate_many(victims)
        if stats is not None and count:
            stats.record_invalidation(bucket_name, count)
        return count

    def _entry_survives(
        self,
        opaque_id: str,
        statement: Insert | Delete | Update,
        entry: CacheEntry,
        stats: DsspStats | None,
    ) -> bool:
        """Can this entry be proven unaffected, given its exposure level?"""
        if entry.statement is None:
            return False  # entry at 'template' level: IPM entry A → invalidate
        if self._statements_independent(opaque_id, statement, entry, stats):
            return True
        if entry.view_rows is None:
            return False  # 'stmt' level: no view to inspect
        # View decisions are NOT memoized: the rows behind the same cache
        # key change whenever the entry is refilled after an invalidation.
        return view_allows_skip(
            self._schema, statement, entry.statement, entry.view_rows
        )

    def _statements_independent(
        self,
        opaque_id: str,
        statement: Insert | Delete | Update,
        entry: CacheEntry,
        stats: DsspStats | None,
    ) -> bool:
        memo_key = (opaque_id, entry.key)
        cached = self._statement_decision.get(memo_key)
        if cached is not None:
            if stats is not None:
                stats.decision_memo_hits += 1
            return cached
        if stats is not None:
            stats.invalidation_checks += 1
        independent = statement_independent(
            self._schema,
            statement,
            entry.statement,
            equality_only=self._equality_only,
        )
        if len(self._statement_decision) >= self.STATEMENT_MEMO_LIMIT:
            self._statement_decision.clear()
        self._statement_decision[memo_key] = independent
        return independent
