"""The on-disk corpus: canonical bytes, exact reopen, meta validation,
plan dedup, the bug table, and seed-selection energy."""

import json
import random

import pytest

from repro.artifact import ArtifactError
from repro.faults import plan_faults
from repro.fuzz import Corpus, CorpusEntry, Coverage, FuzzError
from repro.fuzz.corpus import plan_digest
from repro.fuzz.energy import entry_energy, pick_entry

META = {"target": "toycache", "fuzz_seed": "1", "graph": "sig"}


def make_plan(toykit, seed="1"):
    mapping, cluster_factory, graph, suite = toykit
    return plan_faults(graph, suite, mapping, seed,
                       cluster_factory().node_ids)


def feed(corpus, plan, states=(1, 2), edges=(10,), divergences=()):
    coverage = Coverage(states=states, edges=edges)
    entry = corpus.add_entry(plan, "seed", None, coverage,
                             len(states), len(edges), list(divergences))
    corpus.observe(coverage)
    corpus.runs += 1
    return entry


class TestCorpusPersistence:
    def test_save_and_reopen_restores_everything(self, toykit, tmp_path):
        root = str(tmp_path / "corpus")
        corpus = Corpus.open_or_create(root, META)
        plan = make_plan(toykit)
        feed(corpus, plan, divergences=["dv-1"])
        corpus.record_bug("dv-1", entry=0, kind="inconsistent_state",
                          case_id=0, anchor=123, headline="boom")
        corpus.save()

        clone = Corpus.open_or_create(root, META)
        assert clone.runs == corpus.runs
        assert clone.state_hits == corpus.state_hits
        assert clone.edge_hits == corpus.edge_hits
        assert clone.bugs == corpus.bugs
        assert len(clone.entries) == 1
        entry = clone.entries[0]
        assert entry.plan.to_json() == plan.to_json()
        assert entry.coverage.states == {1, 2}
        assert entry.divergences == ["dv-1"]
        assert clone.seen_plan(plan)

    def test_save_is_byte_stable(self, toykit, tmp_path):
        root = str(tmp_path / "corpus")
        corpus = Corpus.open_or_create(root, META)
        feed(corpus, make_plan(toykit))
        corpus.save()
        first = (tmp_path / "corpus" / "corpus.json").read_bytes()
        Corpus.open_or_create(root, META).save()
        assert (tmp_path / "corpus" / "corpus.json").read_bytes() == first

    def test_reopen_with_mismatched_meta_is_an_error(self, toykit,
                                                     tmp_path):
        root = str(tmp_path / "corpus")
        Corpus.open_or_create(root, META).save()
        other = dict(META, fuzz_seed="9")
        with pytest.raises(FuzzError, match="fuzz_seed"):
            Corpus.open_or_create(root, other)

    def test_reopen_foreign_json_is_an_error(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "corpus.json").write_text('{"format": "something-else"}')
        with pytest.raises(ArtifactError,
                           match="is not a mocket-fuzz-corpus/1 file"):
            Corpus.open_or_create(str(root), META)

    def test_rootless_corpus_never_touches_disk(self, toykit):
        corpus = Corpus.open_or_create(None, META)
        feed(corpus, make_plan(toykit))
        corpus.save()  # must be a no-op, not a crash
        assert corpus.root is None

    def test_index_is_canonical_json(self, toykit, tmp_path):
        root = str(tmp_path / "corpus")
        corpus = Corpus.open_or_create(root, META)
        feed(corpus, make_plan(toykit))
        corpus.save()
        raw = (tmp_path / "corpus" / "corpus.json").read_text()
        payload = json.loads(raw)
        assert raw == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert payload["format"] == "mocket-fuzz-corpus/1"


class TestDedupAndBugs:
    def test_seen_plan_uses_canonical_digest(self, toykit):
        corpus = Corpus.open_or_create(None, META)
        plan = make_plan(toykit)
        assert not corpus.seen_plan(plan)
        feed(corpus, plan)
        assert corpus.seen_plan(plan)
        assert not corpus.seen_plan(make_plan(toykit, seed="2"))

    def test_plan_digest_is_stable_and_content_sensitive(self, toykit):
        plan = make_plan(toykit)
        assert plan_digest(plan) == plan_digest(plan)
        assert plan_digest(plan) != plan_digest(make_plan(toykit, "2"))

    def test_record_bug_dedups_by_stable_id(self):
        corpus = Corpus.open_or_create(None, META)
        assert corpus.record_bug("dv-a", entry=None, kind="k", case_id=0,
                                 anchor=7, headline="h")
        assert not corpus.record_bug("dv-a", entry=None, kind="k",
                                     case_id=0, anchor=7, headline="h")
        assert len(corpus.bugs) == 1

    def test_bug_anchor_fps_roundtrip_hex(self):
        corpus = Corpus.open_or_create(None, META)
        corpus.record_bug("dv-a", entry=None, kind="k", case_id=0,
                          anchor=0xDEAD, headline="h")
        corpus.record_bug("dv-b", entry=None, kind="k", case_id=1,
                          anchor=None, headline="h")
        assert corpus.bug_anchor_fps() == {0xDEAD}


class TestEnergy:
    def entry(self, states, edges, divergences=()):
        return CorpusEntry(0, 0, "seed", None, plan=None, digest="x",
                           coverage=Coverage(states=states, edges=edges),
                           new_states=len(states), new_edges=len(edges),
                           divergences=list(divergences))

    def test_rare_coverage_outranks_common(self):
        hits = {1: 100, 2: 1}
        rare = self.entry(states=(2,), edges=())
        common = self.entry(states=(1,), edges=())
        assert (entry_energy(rare, hits, {}, set())
                > entry_energy(common, hits, {}, set()))

    def test_divergent_entries_are_doubled(self):
        plain = self.entry(states=(1,), edges=())
        spicy = self.entry(states=(1,), edges=(), divergences=["dv-a"])
        assert (entry_energy(spicy, {}, {}, set())
                == 2 * entry_energy(plain, {}, {}, set()))

    def test_bug_anchor_overlap_is_doubled(self):
        entry = self.entry(states=(5,), edges=())
        base = entry_energy(entry, {}, {}, set())
        assert entry_energy(entry, {}, {}, {5}) == 2 * base
        assert entry_energy(entry, {}, {}, {6}) == base

    def test_pick_entry_is_deterministic_and_total(self):
        entries = [self.entry(states=(i,), edges=()) for i in range(5)]
        picks = [pick_entry(entries, {}, {}, set(), random.Random("s"))
                 for _ in range(3)]
        assert len({id(p) for p in picks}) == 1
        assert pick_entry([], {}, {}, set(), random.Random("s")) is None
