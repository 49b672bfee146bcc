#include "model/store.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>

#include "model/training_spec.h"

namespace rlbf::model {
namespace {

namespace fs = std::filesystem;

core::Agent tiny_agent(std::uint64_t seed = 3) {
  core::AgentConfig config;
  config.obs.max_obsv_size = 16;
  config.obs.value_obsv_size = 8;
  return core::Agent(config, seed);
}

std::string fresh_root(const std::string& name) {
  const std::string root = ::testing::TempDir() + "/rlbf_store_" + name;
  fs::remove_all(root);
  return root;
}

TEST(Store, PutLookupRoundTrip) {
  Store store(fresh_root("roundtrip"));
  const core::Agent agent = tiny_agent();
  const StoreEntry put_entry =
      store.put("aaaa000011112222", agent, "tiny", {{"epochs", "2"}}, "canon v1\n");

  EXPECT_TRUE(store.contains("aaaa000011112222"));
  const auto entry = store.lookup("aaaa000011112222");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->name, "tiny");
  EXPECT_EQ(entry->meta.at("epochs"), "2");
  EXPECT_EQ(entry->meta.at("spec_name"), "tiny");
  EXPECT_EQ(entry->path, put_entry.path);
  EXPECT_TRUE(fs::exists(store.spec_path("aaaa000011112222")));

  const core::Agent loaded = store.load("aaaa000011112222");
  EXPECT_EQ(loaded.config().obs.max_obsv_size, 16u);
  // Bit-exact model round trip (hexfloat serialization).
  const auto a = agent.model().policy_parameters();
  const auto b = loaded.model().policy_parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->value, b[i]->value);
  }
}

TEST(Store, LookupMissReturnsNulloptAndLoadThrows) {
  Store store(fresh_root("miss"));
  EXPECT_FALSE(store.contains("ffff000000000000"));
  EXPECT_FALSE(store.lookup("ffff000000000000").has_value());
  EXPECT_THROW(store.load("ffff000000000000"), std::runtime_error);
}

TEST(Store, IndexSurvivesReopen) {
  const std::string root = fresh_root("reopen");
  {
    Store store(root);
    store.put("1111111111111111", tiny_agent(1), "one", {});
    store.put("2222222222222222", tiny_agent(2), "two", {});
  }
  Store reopened(root);
  const auto entries = reopened.list();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "1111111111111111");
  EXPECT_EQ(entries[1].key, "2222222222222222");
  EXPECT_EQ(entries[1].name, "two");
}

TEST(Store, IndexIsRebuiltFromScanWhenMissing) {
  const std::string root = fresh_root("rebuild");
  {
    Store store(root);
    store.put("3333333333333333", tiny_agent(), "three", {{"epochs", "9"}});
  }
  fs::remove(root + "/index.tsv");
  Store rebuilt(root);
  const auto entry = rebuilt.lookup("3333333333333333");
  ASSERT_TRUE(entry.has_value());
  // The name comes back out of the model file's own metadata.
  EXPECT_EQ(entry->name, "three");
  EXPECT_EQ(entry->meta.at("epochs"), "9");
  EXPECT_TRUE(fs::exists(root + "/index.tsv"));
}

TEST(Store, PruneRemovesOnlyUnreferencedEntries) {
  Store store(fresh_root("prune"));
  store.put("aaaaaaaaaaaaaaaa", tiny_agent(1), "keep", {});
  store.put("bbbbbbbbbbbbbbbb", tiny_agent(2), "drop", {});
  store.put("cccccccccccccccc", tiny_agent(3), "keep2", {});

  const auto removed =
      store.prune({"aaaaaaaaaaaaaaaa", "cccccccccccccccc", "not-present"});
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], "bbbbbbbbbbbbbbbb");
  EXPECT_TRUE(store.contains("aaaaaaaaaaaaaaaa"));
  EXPECT_FALSE(store.contains("bbbbbbbbbbbbbbbb"));
  EXPECT_TRUE(store.contains("cccccccccccccccc"));
  EXPECT_FALSE(fs::exists(store.model_path("bbbbbbbbbbbbbbbb")));
  EXPECT_TRUE(fs::exists(store.model_path("aaaaaaaaaaaaaaaa")));

  // Referenced set unchanged -> prune is a no-op.
  EXPECT_TRUE(store.prune({"aaaaaaaaaaaaaaaa", "cccccccccccccccc"}).empty());
}

// Regression guarding the ablation-arm spec-field additions: two specs
// whose canonical text differs ONLY in a newer env-override field (here
// the DQN exploration schedule) must land on distinct fingerprints, get
// distinct store entries, resolve independently through lookup, and
// survive prune independently. If a new spec field is ever left out of
// canonical_string, the two puts below collapse onto one key and this
// test fails.
TEST(Store, NewSpecFieldsSeparateEntriesThroughLookupAndPrune) {
  Store store(fresh_root("specfields"));
  TrainingSpec a;
  a.name = "arm-a";
  a.workload.workload = "SDSC-SP2";
  a.workload.trace_jobs = 1000;
  a.trainer.algorithm = "dqn";
  TrainingSpec b = a;
  b.name = "arm-b";
  b.trainer.dqn.epsilon_decay_epochs = a.trainer.dqn.epsilon_decay_epochs + 7;

  const std::string key_a = fingerprint(a);
  const std::string key_b = fingerprint(b);
  ASSERT_NE(key_a, key_b);

  store.put(key_a, tiny_agent(1), a.name, {}, canonical_string(a));
  store.put(key_b, tiny_agent(2), b.name, {}, canonical_string(b));
  ASSERT_EQ(store.list().size(), 2u);

  // Lookup resolves each arm to its own entry (and its own sidecar).
  const auto entry_a = store.lookup(key_a);
  const auto entry_b = store.lookup(key_b);
  ASSERT_TRUE(entry_a.has_value());
  ASSERT_TRUE(entry_b.has_value());
  EXPECT_EQ(entry_a->name, "arm-a");
  EXPECT_EQ(entry_b->name, "arm-b");
  EXPECT_NE(entry_a->path, entry_b->path);

  // Pruning with only arm-a referenced drops exactly arm-b.
  const auto removed = store.prune({key_a});
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], key_b);
  EXPECT_TRUE(store.contains(key_a));
  EXPECT_FALSE(store.contains(key_b));
}

// Regression: one corrupt model file (e.g. a crash mid-save) must not
// brick the whole store — the entry is dropped, everything else loads.
TEST(Store, CorruptIndexedModelIsDroppedNotFatal) {
  const std::string root = fresh_root("corrupt");
  {
    Store store(root);
    store.put("eeeeeeeeeeeeeeee", tiny_agent(1), "good", {});
    store.put("ffffffffffffffff", tiny_agent(2), "bad", {});
  }
  std::ofstream(root + "/ffffffffffffffff.model", std::ios::trunc)
      << "rlbf-model v1\nmeta spec_name bad\ngarbage";
  Store reopened(root);
  EXPECT_TRUE(reopened.contains("eeeeeeeeeeeeeeee"));
  EXPECT_FALSE(reopened.contains("ffffffffffffffff"));
  EXPECT_NO_THROW(reopened.load("eeeeeeeeeeeeeeee"));
}

// A key dropped as unreadable at load must become persistable again the
// moment a valid model is put() under it — the blacklist protects the
// merged index save from resurrecting the corrupt file, not from the
// retrained replacement.
TEST(Store, RetrainAfterCorruptionPersistsInTheIndex) {
  const std::string root = fresh_root("retrain");
  {
    Store store(root);
    store.put("abcd000000000001", tiny_agent(1), "v1", {});
  }
  std::ofstream(root + "/abcd000000000001.model", std::ios::trunc)
      << "rlbf-model v1\ngarbage";
  Store store(root);  // drops (and blacklists) the corrupt entry
  EXPECT_FALSE(store.contains("abcd000000000001"));
  store.put("abcd000000000001", tiny_agent(2), "v2", {});
  EXPECT_TRUE(store.contains("abcd000000000001"));
  Store reopened(root);
  const auto entry = reopened.lookup("abcd000000000001");
  ASSERT_TRUE(entry.has_value());  // the retrain reached index.tsv
  EXPECT_EQ(entry->name, "v2");
}

TEST(Store, PutOverwritesExistingKeyInPlace) {
  Store store(fresh_root("overwrite"));
  store.put("dddddddddddddddd", tiny_agent(1), "v1", {{"epochs", "1"}});
  store.put("dddddddddddddddd", tiny_agent(2), "v2", {{"epochs", "2"}});
  const auto entries = store.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "v2");
  EXPECT_EQ(entries[0].meta.at("epochs"), "2");
}

// Regression: a failed fs::remove used to drop the entry from the index
// anyway, leaving an orphan .model that a later scan rebuild resurrects
// with stale meta. A removal failure must keep the entry.
TEST(Store, PruneKeepsEntryWhenRemovalFails) {
  const std::string root = fresh_root("prunefail");
  Store store(root);
  store.put("aaaa111122223333", tiny_agent(1), "stuck", {});
  store.put("bbbb111122223333", tiny_agent(2), "prunable", {});

  // Turn the first entry's .model into a non-empty directory behind the
  // store's back: fs::remove on it fails with directory_not_empty.
  const std::string stuck = store.model_path("aaaa111122223333");
  fs::remove(stuck);
  fs::create_directories(stuck);
  std::ofstream(stuck + "/blocker") << "x";

  const auto removed = store.prune({});
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], "bbbb111122223333");
  // The unremovable entry survives in the index; the removable one is gone.
  EXPECT_TRUE(store.contains("aaaa111122223333"));
  EXPECT_FALSE(store.contains("bbbb111122223333"));
  EXPECT_FALSE(fs::exists(store.model_path("bbbb111122223333")));
  fs::remove_all(stuck);
}

TEST(Store, V1IndexMigratesToV2WithZeroClocks) {
  const std::string root = fresh_root("v1migrate");
  {
    Store store(root);
    store.put("1234123412341234", tiny_agent(), "old", {});
  }
  // Rewrite the index in the v1 format (no last-used column).
  std::ofstream(root + "/index.tsv", std::ios::trunc)
      << "rlbf-model-store v1\n"
      << "1234123412341234\told\t1234123412341234.model\n";
  Store migrated(root);
  const auto entries = migrated.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, "1234123412341234");
  EXPECT_EQ(entries[0].last_used, 0u);
  // The migrated index is persisted as v2.
  std::ifstream in(root + "/index.tsv");
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "rlbf-model-store v2");
}

TEST(Store, LookupTouchesTheLruClockAndPersistsIt) {
  const std::string root = fresh_root("touch");
  {
    Store store(root);
    store.put("aaaa00000000000a", tiny_agent(1), "first", {});
    store.put("bbbb00000000000b", tiny_agent(2), "second", {});
    // contains() must NOT touch; lookup() must.
    EXPECT_TRUE(store.contains("aaaa00000000000a"));
    const auto before = store.list();
    ASSERT_TRUE(store.lookup("aaaa00000000000a").has_value());
    const auto after = store.list();
    EXPECT_GT(after[0].last_used, before[0].last_used);
    EXPECT_GT(after[0].last_used, after[1].last_used);
  }
  // The clock survives a reopen (it lives in index.tsv).
  Store reopened(root);
  const auto entries = reopened.list();
  EXPECT_GT(entries[0].last_used, entries[1].last_used);
}

// Two writers sharing one store root (two processes in the bundle/rsync
// story): each handle's index save must MERGE with the on-disk rows, so
// one put() never erases another's.
TEST(Store, ConcurrentPutsFromTwoHandlesBothSurvive) {
  const std::string root = fresh_root("twowriters");
  Store a(root);
  Store b(root);  // b's snapshot predates a's put
  a.put("aaaa00000000000a", tiny_agent(1), "from-a", {});
  b.put("bbbb00000000000b", tiny_agent(2), "from-b", {});
  Store fresh(root);
  EXPECT_TRUE(fresh.contains("aaaa00000000000a"));
  EXPECT_TRUE(fresh.contains("bbbb00000000000b"));
}

// Entries pruned by one handle stay pruned after another handle's save
// (removal propagates via .model existence, not index ownership).
TEST(Store, PruneByOneHandleSurvivesAnotherHandlesSave) {
  const std::string root = fresh_root("prunepropagate");
  Store a(root);
  a.put("aaaa00000000000a", tiny_agent(1), "keep", {});
  a.put("bbbb00000000000b", tiny_agent(2), "drop", {});
  Store b(root);  // loaded while both entries existed
  a.prune({"aaaa00000000000a"});
  b.put("cccc00000000000c", tiny_agent(3), "new", {});  // b saves its view
  Store fresh(root);
  EXPECT_TRUE(fresh.contains("aaaa00000000000a"));
  EXPECT_FALSE(fresh.contains("bbbb00000000000b"));  // stays pruned
  EXPECT_TRUE(fresh.contains("cccc00000000000c"));
}

// A reader's clock flush must MERGE into the on-disk index, not
// overwrite it: entries another store handle added after the reader
// loaded its snapshot have to survive the reader's teardown.
TEST(Store, ReaderTeardownDoesNotEraseConcurrentlyAddedEntries) {
  const std::string root = fresh_root("concurrent");
  {
    Store writer_setup(root);
    writer_setup.put("aaaa000000000001", tiny_agent(1), "old", {});
  }
  {
    Store reader(root);
    ASSERT_TRUE(reader.lookup("aaaa000000000001").has_value());  // dirty clock
    // A second handle (standing in for another process) adds an entry
    // and persists it while the reader still holds its stale snapshot.
    Store writer(root);
    writer.put("bbbb000000000002", tiny_agent(2), "new", {});
    // reader destructs last, flushing its touched clock.
  }
  Store reopened(root);
  EXPECT_TRUE(reopened.contains("bbbb000000000002"));  // survived the flush
  const auto touched = reopened.lookup("aaaa000000000001");
  ASSERT_TRUE(touched.has_value());
  EXPECT_GT(touched->last_used, 0u);  // the reader's touch was persisted
}

TEST(Store, EvictLruRemovesLeastRecentlyUsedFirstAndSparesReferenced) {
  Store store(fresh_root("evict"));
  store.put("aaaa00000000000a", tiny_agent(1), "a", {});
  store.put("bbbb00000000000b", tiny_agent(2), "b", {});
  store.put("cccc00000000000c", tiny_agent(3), "c", {});
  // Touch "a" so "b" becomes the least recently used unreferenced entry.
  ASSERT_TRUE(store.lookup("aaaa00000000000a").has_value());

  // Cap of 1 byte forces eviction of everything evictable; "c" is
  // referenced and must survive even though the store stays over cap.
  const auto result = store.evict_lru(1, {"cccc00000000000c"});
  EXPECT_EQ(result.removed,
            (std::vector<std::string>{"bbbb00000000000b", "aaaa00000000000a"}));
  EXPECT_GT(result.bytes_before, result.bytes_after);
  EXPECT_GT(result.bytes_after, 0u);  // the referenced entry's bytes remain
  EXPECT_TRUE(store.contains("cccc00000000000c"));
  EXPECT_FALSE(store.contains("aaaa00000000000a"));
  EXPECT_FALSE(store.contains("bbbb00000000000b"));
  EXPECT_FALSE(fs::exists(store.model_path("aaaa00000000000a")));

  // Already under any generous cap: nothing further to evict.
  EXPECT_TRUE(store.evict_lru(1u << 30).removed.empty());
}

// A spec whose canonical text genuinely hashes to its key, so bundle
// import's re-verification chain can pass end to end.
TrainingSpec bundle_spec(const std::string& name, std::size_t jobs) {
  TrainingSpec spec;
  spec.name = name;
  spec.workload.workload = "SDSC-SP2";
  spec.workload.trace_jobs = jobs;
  return spec;
}

TEST(Store, BundleExportImportRoundTrip) {
  const std::string bundle = fresh_root("bundle_dir");
  Store source(fresh_root("bundle_src"));
  const TrainingSpec spec_a = bundle_spec("arm-a", 500);
  const TrainingSpec spec_b = bundle_spec("arm-b", 700);
  const std::string key_a = fingerprint(spec_a);
  const std::string key_b = fingerprint(spec_b);
  const core::Agent agent_a = tiny_agent(1);
  source.put(key_a, agent_a, "arm-a", {{"epochs", "2"}}, canonical_string(spec_a));
  source.put(key_b, tiny_agent(2), "arm-b", {}, canonical_string(spec_b));

  const auto exported = source.export_bundle(bundle);
  EXPECT_EQ(exported, (std::vector<std::string>{key_a, key_b}));
  EXPECT_TRUE(fs::exists(bundle + "/bundle.tsv"));

  Store dest(fresh_root("bundle_dst"));
  const auto report = dest.import_bundle(bundle);
  EXPECT_EQ(report.imported, exported);
  EXPECT_TRUE(report.skipped_existing.empty());
  const auto entry = dest.lookup(key_a);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->name, "arm-a");
  EXPECT_EQ(entry->meta.at("epochs"), "2");
  EXPECT_TRUE(fs::exists(dest.spec_path(key_a)));

  // Bit-exact agent round trip through the bundle.
  const core::Agent loaded = dest.load(key_a);
  const auto a = agent_a.model().policy_parameters();
  const auto b = loaded.model().policy_parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->value, b[i]->value);
  }

  // Re-import is a no-op: equal content addresses mean equal content.
  const auto again = dest.import_bundle(bundle);
  EXPECT_TRUE(again.imported.empty());
  EXPECT_EQ(again.skipped_existing, exported);
}

TEST(Store, ExportBundleRejectsUnknownKeys) {
  Store store(fresh_root("bundle_unknown"));
  EXPECT_THROW(store.export_bundle(fresh_root("bundle_unknown_dir"),
                                   {"ffffffffffffffff"}),
               std::runtime_error);
}

TEST(Store, ImportRejectsCorruptModels) {
  const std::string bundle = fresh_root("bundle_corrupt");
  Store source(fresh_root("bundle_corrupt_src"));
  const TrainingSpec spec = bundle_spec("arm-c", 900);
  source.put(fingerprint(spec), tiny_agent(), "arm-c", {}, canonical_string(spec));
  source.export_bundle(bundle);
  // Truncate the model mid-weights: import must reject, not adopt.
  const std::string model = bundle + "/" + fingerprint(spec) + ".model";
  fs::resize_file(model, fs::file_size(model) / 2);

  Store dest(fresh_root("bundle_corrupt_dst"));
  try {
    dest.import_bundle(bundle);
    FAIL() << "corrupt bundle model was imported";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(dest.list().empty());
  EXPECT_FALSE(fs::exists(dest.model_path(fingerprint(spec))));
}

TEST(Store, ImportRejectsFingerprintMismatches) {
  const std::string bundle = fresh_root("bundle_mismatch");
  Store source(fresh_root("bundle_mismatch_src"));
  const TrainingSpec spec = bundle_spec("arm-d", 1100);
  const std::string key = fingerprint(spec);
  source.put(key, tiny_agent(), "arm-d", {}, canonical_string(spec));
  source.export_bundle(bundle);
  // Rewrite the manifest to claim a different key for the same files: a
  // mismatched (say, renamed or swapped) model must be rejected.
  std::ofstream(bundle + "/bundle.tsv", std::ios::trunc)
      << "rlbf-model-bundle v1\n"
      << "deadbeefdeadbeef\tarm-d\t" << key << ".model\t" << key << ".spec\n";

  Store dest(fresh_root("bundle_mismatch_dst"));
  try {
    dest.import_bundle(bundle);
    FAIL() << "mismatched bundle model was imported";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(dest.list().empty());
}

// A bundle manifest is foreign input: keys and file references must be
// validated before they are spliced into store paths, or a crafted
// bundle could write outside the store root.
TEST(Store, ImportRejectsNonHexKeysAndPathEscapes) {
  const std::string bundle = fresh_root("bundle_traversal");
  fs::create_directories(bundle);
  std::ofstream(bundle + "/bundle.tsv")
      << "rlbf-model-bundle v1\n"
      << "../../escape-key\tbad\tx.model\t\n";
  Store dest(fresh_root("bundle_traversal_dst"));
  try {
    dest.import_bundle(bundle);
    FAIL() << "path-escaping bundle key was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("invalid bundle key"),
              std::string::npos)
        << e.what();
  }

  std::ofstream(bundle + "/bundle.tsv", std::ios::trunc)
      << "rlbf-model-bundle v1\n"
      << "aaaa000011112222\tbad\t../outside.model\t\n";
  try {
    dest.import_bundle(bundle);
    FAIL() << "path-escaping bundle file reference was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("invalid file reference"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(dest.list().empty());
}

// Orphaned per-process tmp files (crashed writers) are swept on open
// once they are old enough to be provably dead; fresh ones are left for
// their (possibly live) writer.
TEST(Store, StaleTmpFilesAreSweptOnOpen) {
  const std::string root = fresh_root("tmpsweep");
  fs::create_directories(root);
  const std::string stale = root + "/index.tsv.4242.tmp";
  const std::string recent = root + "/aaaa000011112222.model.4243.tmp";
  std::ofstream(stale) << "torn";
  std::ofstream(recent) << "in flight";
  fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                 std::chrono::hours(2));
  Store store(root);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(recent));
  fs::remove(recent);
}

TEST(Store, ImportRejectsTamperedSpecSidecars) {
  const std::string bundle = fresh_root("bundle_tampered");
  Store source(fresh_root("bundle_tampered_src"));
  const TrainingSpec spec = bundle_spec("arm-e", 1300);
  const std::string key = fingerprint(spec);
  source.put(key, tiny_agent(), "arm-e", {}, canonical_string(spec));
  source.export_bundle(bundle);
  // A spec sidecar that no longer hashes to the key means the canonical
  // audit text was edited (or the wrong spec shipped): reject.
  std::ofstream(bundle + "/" + key + ".spec", std::ios::app) << "tampered\n";

  Store dest(fresh_root("bundle_tampered_dst"));
  try {
    dest.import_bundle(bundle);
    FAIL() << "tampered spec sidecar was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("does not hash back"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(dest.list().empty());
}

TEST(DefaultStore, RootIsSwitchable) {
  const std::string root = fresh_root("default");
  set_default_store_root(root);
  EXPECT_EQ(default_store().root(), root);
  const std::string other = fresh_root("default2");
  set_default_store_root(other);
  EXPECT_EQ(default_store().root(), other);
}

}  // namespace
}  // namespace rlbf::model
