"""The three learned predictors, packaged for the solver hot path.

A :class:`SearchGuide` wraps a trained :class:`~repro.learn.models.
ModelBundle` and materializes, per ``(scheduler, workload)`` pair, a
:class:`ProblemGuide` holding everything the solver stack consumes:

1. **Branch-ordering scores** -- ``scores[variable][value]`` is the
   branch model's probability that ``value`` is the stream's fragment
   of the optimal schedule.  The anytime solver's ``learned_order``
   feeds these to ``bnb.dfs``'s ``child_order`` hook, which *reorders*
   feasible children only: bounds, pruning, and incumbent admission
   are untouched, so guidance changes when the optimum is found, never
   what it is.
2. **Warm-start ranking** -- :meth:`SearchGuide.fragment_ranker`
   returns the callable :class:`repro.core.schedule_cache.
   ScheduleCache` uses to key warm-start candidates by predicted
   quality (then content sha) before composition.
3. **Incumbent-quality estimation** -- :meth:`ProblemGuide.
   seed_quality` scores a complete assignment, and
   :meth:`ProblemGuide.synthesized_seeds` proposes the
   argmax-per-stream assignment (plus one runner-up) as labeled root
   seeds, letting the anytime solver start its search near the
   predicted optimum.  Seeds are ordinary warm starts: they are *evaluated* at
   the root like any other, so a wrong prediction costs one
   evaluation, never a wrong result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.learn.features import FeatureContext, feature_schema_id
from repro.learn.models import ModelBundle, model_sig

if TYPE_CHECKING:  # layering: core never imports learn at runtime
    from repro.core.haxconn import HaXCoNN
    from repro.core.solve_store import SolveStore
    from repro.core.workload import Workload


class ProblemGuide:
    """Per-problem guidance tables, cheap to query and fork-safe.

    ``scores`` is a plain ``dict`` of ``dict`` s keyed by variable
    name and domain value -- picklable and safely inherited by forked
    fleet shards.
    """

    def __init__(self, ctx: FeatureContext, bundle: ModelBundle) -> None:
        self._ctx = ctx
        self._bundle = bundle
        self.scores: dict[str, dict[Any, float]] = {}
        for n, variable in enumerate(ctx.problem.variables):
            matrix = ctx.fragment_matrix(n, list(variable.domain))
            probs = bundle.branch.predict(matrix)
            self.scores[variable.name] = {
                value: float(p) for value, p in zip(variable.domain, probs)
            }

    def seed_quality(self, assignment: Mapping[str, Any]) -> float:
        """Predicted relative quality of a complete assignment.

        The target convention is ``objective / |serialized-GPU
        objective|`` -- lower is better for every objective -- so
        callers rank candidate seeds ascending.
        """
        per_stream = [
            tuple(assignment[f"dnn{n}"])
            for n in range(self._ctx.n_streams)
        ]
        vector = self._ctx.quality_features(per_stream)
        return float(self._bundle.quality.predict_one(vector))

    def synthesized_seeds(self) -> list[tuple[str, dict[str, Any]]]:
        """Root seeds near the predicted optimum, labeled for
        provenance.  ``learned-greedy`` takes every stream's
        highest-scored fragment; ``learned-second`` swaps in the
        runner-up for the stream whose top-2 margin is smallest (the
        prediction most likely to be wrong)."""
        greedy: dict[str, Any] = {}
        margins: list[tuple[float, str, Any]] = []
        for variable in self._ctx.problem.variables:
            table = self.scores[variable.name]
            ranked = sorted(
                variable.domain,
                key=lambda v: (-table[v], v),
            )
            greedy[variable.name] = ranked[0]
            if len(ranked) > 1:
                margins.append(
                    (
                        table[ranked[0]] - table[ranked[1]],
                        variable.name,
                        ranked[1],
                    )
                )
        seeds = [("learned-greedy", dict(greedy))]
        if margins:
            margins.sort(key=lambda m: (m[0], m[1]))
            _margin, name, runner_up = margins[0]
            second = dict(greedy)
            second[name] = runner_up
            if second != greedy:
                seeds.append(("learned-second", second))
        return seeds


class SearchGuide:
    """Store-trained guidance, attachable to a :class:`HaXCoNN`.

    Built from the solve store's ``model`` record for the *current*
    feature schema; a bundle trained under a different schema id is
    ignored (:meth:`from_store` returns ``None``), which is what keeps
    models and extractors from drifting apart.
    """

    def __init__(self, bundle: ModelBundle) -> None:
        if bundle.schema != feature_schema_id():
            raise ValueError(
                f"model schema {bundle.schema!r} does not match "
                f"extractor schema {feature_schema_id()!r}"
            )
        self.bundle = bundle

    @classmethod
    def from_store(cls, store: "SolveStore") -> "SearchGuide | None":
        """Load the guide for the current feature schema, if trained."""
        body = store.model_for(model_sig(feature_schema_id()))
        if body is None:
            return None
        try:
            return cls(ModelBundle.from_dict(body))
        except (KeyError, ValueError, TypeError):
            return None  # malformed or foreign record: no guidance

    def for_problem(
        self,
        scheduler: "HaXCoNN",
        workload: "Workload",
        *,
        formulation: Any = None,
        problem: Any = None,
    ) -> ProblemGuide:
        ctx = FeatureContext(
            scheduler, workload, formulation=formulation, problem=problem
        )
        return ProblemGuide(ctx, self.bundle)

    def fragment_ranker(
        self, scheduler: "HaXCoNN"
    ) -> Callable[["Workload", str, tuple[str, ...]], float]:
        """The schedule cache's warm-start quality key.

        Returns ``rank(workload, model_key, assignment) -> score``
        (higher is better).  Contexts are cached per workload
        signature, so ranking a bucket of fragments prices the
        workload once.  Stale fragments -- wrong length or an
        unsupported accelerator -- score ``0.0`` and fall back to
        content-sha order.
        """
        contexts: dict[str, FeatureContext] = {}
        bundle = self.bundle

        def rank(
            workload: "Workload", model_key: str, assignment: tuple[str, ...]
        ) -> float:
            # deferred: schedule_cache imports core.haxconn
            from repro.core.schedule_cache import workload_signature

            sig = workload_signature(workload, scheduler)
            ctx = contexts.get(sig)
            if ctx is None:
                ctx = FeatureContext(scheduler, workload)
                contexts[sig] = ctx
            stream = next(
                (
                    n
                    for n, dnn in enumerate(workload.dnns)
                    if dnn.name.split("@")[0] == model_key
                ),
                None,
            )
            if stream is None:
                return 0.0
            vector = ctx.try_fragment_features(stream, tuple(assignment))
            if vector is None:
                return 0.0
            return float(bundle.branch.predict(np.stack([vector]))[0])

        return rank
