"""The ``max_states=`` deprecation contract, entry point by entry point.

Every analysis entry point is budget-first; ``max_states=`` survives as
an alias that must emit **exactly one** :class:`DeprecationWarning` per
call (even for pipelines that fan out into many explorations), and
passing both forms is a :class:`TypeError`.  CI runs the suite with
``-W error::DeprecationWarning``, so these tests are also what keeps the
library itself off the deprecated path.
"""

import warnings

import pytest

from repro.analysis import (
    analyze_valence,
    explore,
    lemma4_bivalent_initialization,
    refute_candidate,
)
from repro.analysis.view import DeterministicSystemView
from repro.engine import (
    Budget,
    ExplorationEngine,
    StoreConfig,
    resolve_budget,
    resolve_flush_interval,
)
from repro.protocols import delegation_consensus_system


@pytest.fixture(scope="module")
def system():
    return delegation_consensus_system(3, resilience=1)


@pytest.fixture(scope="module")
def root(system):
    return system.initialization({0: 0, 1: 1, 2: 0}).final_state


def deprecations(caught):
    return [w for w in caught if issubclass(w.category, DeprecationWarning)]


class TestResolveBudget:
    def test_neither_returns_default(self):
        default = Budget(max_states=7)
        assert resolve_budget(None, None, default=default) is default

    def test_budget_passes_through(self):
        budget = Budget(max_transitions=5)
        assert resolve_budget(budget, None) is budget

    def test_max_states_warns_and_maps(self):
        with pytest.warns(DeprecationWarning, match="budget=Budget"):
            resolved = resolve_budget(None, 123)
        assert resolved == Budget(max_states=123)

    def test_both_is_type_error(self):
        with pytest.raises(TypeError, match="not both"):
            resolve_budget(Budget(), 123)


class TestResolveFlushInterval:
    """The engine's ``flush_interval=`` resolution."""

    def test_neither_returns_default(self):
        from repro.engine.store import DEFAULT_FLUSH_INTERVAL

        assert resolve_flush_interval(None) == DEFAULT_FLUSH_INTERVAL

    def test_flush_interval_passes_through(self):
        assert resolve_flush_interval(123) == 123

    def test_store_config_supplies_default(self):
        config = StoreConfig(backend="memory", flush_interval=77)
        assert resolve_flush_interval(None, store=config) == 77

    def test_engine_new_spelling_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine = ExplorationEngine(flush_interval=99)
        assert engine.flush_interval == 99


class TestEntryPointsWarnExactlyOnce:
    def test_explore(self, system, root):
        view = DeterministicSystemView(system)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            graph = explore(view, root, max_states=1000)
        assert len(deprecations(caught)) == 1
        assert len(graph) > 0

    def test_analyze_valence(self, system, root):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            analysis = analyze_valence(system, root, max_states=1000)
        assert len(deprecations(caught)) == 1
        assert len(analysis.graph) > 0

    def test_lemma4_whole_chain_warns_once(self, system):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = lemma4_bivalent_initialization(system, max_states=50_000)
        assert len(deprecations(caught)) == 1
        assert result.bivalent is not None

    def test_refute_candidate_whole_pipeline_warns_once(self, system):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verdict = refute_candidate(system, max_states=50_000)
        assert len(deprecations(caught)) == 1
        assert verdict.refuted

    def test_budget_form_never_warns(self, system, root):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error", DeprecationWarning)
            analyze_valence(system, root, budget=Budget(max_states=1000))
            refute_candidate(system, budget=Budget(max_states=50_000))
        assert not deprecations(caught)


class TestBothFormsRejected:
    def test_explore(self, system, root):
        view = DeterministicSystemView(system)
        with pytest.raises(TypeError, match="not both"):
            explore(view, root, max_states=10, budget=Budget(max_states=10))

    def test_analyze_valence(self, system, root):
        with pytest.raises(TypeError, match="not both"):
            analyze_valence(
                system, root, max_states=10, budget=Budget(max_states=10)
            )

    def test_refute_candidate(self, system):
        with pytest.raises(TypeError, match="not both"):
            refute_candidate(
                system, max_states=10, budget=Budget(max_states=10)
            )
