// Live-document updates and crash-safe incremental view maintenance.
//
// Layers under test, bottom up:
//   - xml::Document gap-based subtree insert/delete (labels of untouched
//     nodes never move; tombstones keep their labels readable);
//   - view::DeltaCollector, differentially against the NaiveEvaluator oracle
//     on random documents (post == pre + added - removed, per pattern node);
//   - core::Engine::ApplyUpdates (delta maintenance vs. rebuild, the relabel
//     fallback, per-op skip semantics, plan-cache invalidation, the strict
//     VIEWJOIN_UPDATE_BATCH_SIZE knob, concurrent queries during a batch);
//   - the update crash matrix: kill -9 simulated inside ApplyUpdateBatch at
//     every transaction instant x every storage scheme — reopen must land
//     exactly on the pre-batch or the post-batch catalog, with answers
//     matching a clean run, no files beside the store and its journal, and
//     no epoch reuse;
//   - write-once commits: every install and update batch charges the disk
//     exactly its pager-file growth plus its journal growth;
//   - manifest checkpoint compaction torn mid-write (the original journal
//     must win) and vj_fsck's epoch-monotonicity reporting.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/query_binding.h"
#include "algo/twig_stack.h"
#include "core/engine.h"
#include "storage/fsck.h"
#include "storage/materialized_view.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/status.h"
#include "view/delta.h"

namespace viewjoin {
namespace {

using core::Engine;
using core::EngineOptions;
using core::RunOptions;
using core::RunResult;
using core::UpdateOp;
using core::UpdateResult;
using storage::FsckCatalog;
using storage::FsckCatalogReport;
using storage::MaterializedView;
using storage::Scheme;
using storage::ViewCatalog;
using testing::MakeDoc;
using testing::MustParse;
using tpq::NaiveEvaluator;
using tpq::TreePattern;
using util::CrashPoint;
using util::CrashPointName;
using util::ScopedFaultInjection;
using util::StatusCode;
using view::DeltaCollector;
using view::PatternDeltas;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Removes the store plus what a previous (failed) run may have left: the
/// manifest, a checkpoint tmp, the query spill file.
void CleanupStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  std::remove((path + ".manifest.tmp").c_str());
  std::remove((path + ".spill").c_str());
}

/// Fingerprints the answer of `query` over `views` (list schemes).
uint64_t QueryHash(const xml::Document& doc, ViewCatalog* catalog,
                   const TreePattern& query,
                   const std::vector<const MaterializedView*>& views) {
  auto binding = algo::QueryBinding::Bind(doc, query, views);
  VJ_CHECK(binding.has_value());
  algo::TwigStack ts(&*binding, catalog->pool());
  tpq::HashingSink sink;
  ts.Evaluate(&sink);
  return sink.hash();
}

/// RAII setenv: restores the previous value (or unsets) on scope exit.
class ScopedSetenv {
 public:
  ScopedSetenv(const char* name, const char* value) : name_(name) {
    const char* old = ::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedSetenv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

/// The first live node of `tag`, or kInvalidNode.
xml::NodeId FirstOfTag(const xml::Document& doc, const std::string& tag) {
  xml::TagId id = doc.FindTag(tag);
  if (id == xml::kInvalidTag) return xml::kInvalidNode;
  const auto& nodes = doc.NodesOfTag(id);
  return nodes.empty() ? xml::kInvalidNode : nodes.front();
}

// ---- Document mutation ------------------------------------------------------

TEST(DocumentUpdateTest, InsertIntoGapLeavesExistingLabelsUntouched) {
  xml::Document doc = MakeDoc("r(a(b) c)");
  ASSERT_TRUE(doc.RelabelWithGap(8).ok());
  std::vector<xml::Label> before;
  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    before.push_back(doc.NodeLabel(n));
  }
  const uint64_t rev = doc.revision();

  xml::Document fragment = MakeDoc("x(y)");
  xml::SubtreeSpec spec = xml::SpecFromDocument(fragment);
  const xml::NodeId parent = FirstOfTag(doc, "a");
  ASSERT_NE(parent, xml::kInvalidNode);

  auto inserted = doc.InsertSubtree(spec, parent);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();

  // Every pre-existing label is bit-identical; only new ids were appended.
  for (size_t n = 0; n < before.size(); ++n) {
    EXPECT_EQ(doc.NodeLabel(static_cast<xml::NodeId>(n)), before[n]);
  }
  // The new subtree landed strictly inside the parent's region, with parent
  // links and levels consistent.
  const xml::NodeId x = *inserted;
  ASSERT_TRUE(doc.IsLive(x));
  EXPECT_TRUE(doc.IsParent(parent, x));
  EXPECT_EQ(doc.Parent(x), parent);
  const xml::NodeId y = FirstOfTag(doc, "y");
  ASSERT_NE(y, xml::kInvalidNode);
  EXPECT_TRUE(doc.IsParent(x, y));
  // Per-tag streams stay sorted by start (the invariant every join relies
  // on) even though the new ids sort after all old ones numerically.
  for (xml::TagId t = 0; t < doc.TagCount(); ++t) {
    const auto& stream = doc.NodesOfTag(t);
    for (size_t i = 1; i < stream.size(); ++i) {
      EXPECT_LT(doc.NodeLabel(stream[i - 1]).start,
                doc.NodeLabel(stream[i]).start);
    }
  }
  EXPECT_GT(doc.revision(), rev);
}

TEST(DocumentUpdateTest, InsertWithoutGapIsResourceExhausted) {
  // No relabel: consecutive positions leave zero spare room anywhere.
  xml::Document doc = MakeDoc("r(a(b) c)");
  xml::Document fragment = MakeDoc("x(y)");
  const xml::NodeId parent = FirstOfTag(doc, "a");
  auto inserted = doc.InsertSubtree(xml::SpecFromDocument(fragment), parent);
  ASSERT_FALSE(inserted.ok());
  EXPECT_EQ(inserted.status().code(), StatusCode::kResourceExhausted);
}

TEST(DocumentUpdateTest, DeleteTombstonesButKeepsLabelsReadable) {
  xml::Document doc = MakeDoc("r(a(b(c)) d)");
  const xml::NodeId b = FirstOfTag(doc, "b");
  const xml::NodeId c = FirstOfTag(doc, "c");
  const xml::Label b_label = doc.NodeLabel(b);
  const size_t live_before = doc.LiveNodeCount();
  const uint64_t rev = doc.revision();

  std::vector<xml::NodeId> removed;
  ASSERT_TRUE(doc.DeleteSubtree(b, &removed).ok());

  // The whole subtree went, in preorder.
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(removed[0], b);
  EXPECT_EQ(removed[1], c);
  EXPECT_FALSE(doc.IsLive(b));
  EXPECT_FALSE(doc.IsLive(c));
  EXPECT_EQ(doc.LiveNodeCount(), live_before - 2);
  // Tombstoned nodes leave the streams but their labels stay readable, so
  // delta computation can still resolve them.
  EXPECT_TRUE(doc.NodesOfTag(doc.FindTag("b")).empty());
  EXPECT_EQ(doc.NodeLabel(b), b_label);
  EXPECT_GT(doc.revision(), rev);

  // The document root cannot be deleted, nor a tombstone twice.
  EXPECT_EQ(doc.DeleteSubtree(doc.Root()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(doc.DeleteSubtree(b).code(), StatusCode::kInvalidArgument);
}

TEST(DocumentUpdateTest, SpecRoundTripsThroughInsert) {
  xml::Document source = MakeDoc("a(b(c) d)");
  xml::SubtreeSpec spec = xml::SpecFromDocument(source);
  ASSERT_EQ(spec.nodes.size(), 4u);
  EXPECT_EQ(spec.nodes[0].tag, "a");
  EXPECT_EQ(spec.nodes[0].parent, xml::SubtreeSpec::kNoParent);
  for (size_t i = 1; i < spec.nodes.size(); ++i) {
    EXPECT_LT(spec.nodes[i].parent, i);  // valid preorder
  }

  xml::Document doc = MakeDoc("r(x)");
  ASSERT_TRUE(doc.RelabelWithGap(16).ok());
  const size_t nodes_before = doc.NodeCount();
  auto inserted = doc.InsertSubtree(spec, doc.Root());
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(doc.NodeCount(), nodes_before + 4);
  EXPECT_EQ(doc.NodesOfTag(doc.FindTag("b")).size(), 1u);
  EXPECT_EQ(doc.NodesOfTag(doc.FindTag("c")).size(), 1u);
}

// ---- DeltaCollector vs. the oracle ------------------------------------------

/// Start labels of `nodes`, as a set.
std::set<uint32_t> StartSet(const xml::Document& doc,
                            const std::vector<xml::NodeId>& nodes) {
  std::set<uint32_t> out;
  for (xml::NodeId n : nodes) out.insert(doc.NodeLabel(n).start);
  return out;
}

// post == pre + added - removed, per pattern and per pattern node, on random
// documents under a random insert followed by a random delete. This is the
// scope-containment theorem's end-to-end check: whatever region the
// collector restricted itself to, the net delta must equal the global
// solution-set difference the oracle sees.
TEST(DeltaCollectorTest, MatchesOracleDifferentially) {
  const std::vector<std::string> tags = {"a", "b", "c", "d"};
  const std::vector<std::string> xpaths = {"//a//b", "//a//b//c", "//b/c"};
  std::vector<TreePattern> patterns;
  for (const std::string& x : xpaths) patterns.push_back(MustParse(x));

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    xml::Document doc = testing::RandomDoc(&rng, 60, tags);
    ASSERT_TRUE(doc.RelabelWithGap(16).ok());

    std::vector<std::vector<std::set<uint32_t>>> pre;
    for (const TreePattern& p : patterns) {
      std::vector<std::set<uint32_t>> per_node;
      for (const auto& list : NaiveEvaluator(doc, p).SolutionNodes()) {
        per_node.push_back(StartSet(doc, list));
      }
      pre.push_back(std::move(per_node));
    }

    DeltaCollector collector(&doc, patterns);

    // One random insert (sandwiched; skipped if the gap cannot take it).
    xml::Document fragment = testing::RandomDoc(&rng, 5, tags);
    const xml::NodeId parent =
        static_cast<xml::NodeId>(rng.Uniform(doc.NodeCount()));
    collector.WillInsert(parent);
    auto inserted =
        doc.InsertSubtree(xml::SpecFromDocument(fragment), parent);
    if (inserted.ok()) collector.DidInsert(*inserted);

    // One random delete of a live non-root node.
    xml::NodeId victim = xml::kInvalidNode;
    for (int tries = 0; tries < 32; ++tries) {
      xml::NodeId n =
          1 + static_cast<xml::NodeId>(rng.Uniform(doc.NodeCount() - 1));
      if (doc.IsLive(n)) {
        victim = n;
        break;
      }
    }
    if (victim != xml::kInvalidNode) {
      collector.WillDelete(victim);
      ASSERT_TRUE(doc.DeleteSubtree(victim).ok());
      collector.DidDelete();
    }

    std::vector<PatternDeltas> deltas = collector.TakeDeltas();
    ASSERT_EQ(deltas.size(), patterns.size());
    for (size_t pi = 0; pi < patterns.size(); ++pi) {
      const auto post_lists = NaiveEvaluator(doc, patterns[pi]).SolutionNodes();
      ASSERT_EQ(post_lists.size(), pre[pi].size());
      for (size_t q = 0; q < post_lists.size(); ++q) {
        const std::set<uint32_t> post = StartSet(doc, post_lists[q]);
        std::set<uint32_t> expect_added, expect_removed;
        for (uint32_t s : post) {
          if (pre[pi][q].count(s) == 0) expect_added.insert(s);
        }
        for (uint32_t s : pre[pi][q]) {
          if (post.count(s) == 0) expect_removed.insert(s);
        }
        std::set<uint32_t> got_added, got_removed;
        uint32_t last = 0;
        for (const xml::Label& l : deltas[pi].added[q]) {
          EXPECT_GE(l.start, last);  // start-sorted, as ApplyUpdateBatch needs
          last = l.start;
          got_added.insert(l.start);
        }
        last = 0;
        for (const xml::Label& l : deltas[pi].removed[q]) {
          EXPECT_GE(l.start, last);
          last = l.start;
          got_removed.insert(l.start);
        }
        EXPECT_EQ(got_added, expect_added)
            << "seed " << seed << " pattern " << xpaths[pi] << " node " << q;
        EXPECT_EQ(got_removed, expect_removed)
            << "seed " << seed << " pattern " << xpaths[pi] << " node " << q;
      }
    }
  }
}

// ---- Engine::ApplyUpdates ---------------------------------------------------

/// The standard mutable-engine fixture: a document with enough structure for
/// //a//b//c to have matches on both sides of the canonical batch.
struct EngineFixture {
  explicit EngineFixture(Scheme scheme, const EngineOptions& options = {},
                         uint32_t gap = 8)
      : doc(MakeDoc("r(a(b(c) b) a(x(b(c))) b(c))")),
        path(TempPath("update_engine_" + std::to_string(++counter) + ".db")) {
    VJ_CHECK(doc.RelabelWithGap(gap).ok());
    CleanupStore(path);
    engine = std::make_unique<Engine>(&doc, path, options);
    v1 = engine->AddView("//a//b", scheme);
    v2 = engine->AddView("//c", scheme);
    query = MustParse("//a//b//c");
  }

  /// The canonical batch: graft a(b(c)) under the root, then drop the x
  /// subtree (which carries a b(c)). Both views see adds and removals.
  std::vector<UpdateOp> CanonicalOps() const {
    std::vector<UpdateOp> ops;
    UpdateOp insert;
    insert.kind = UpdateOp::Kind::kInsertSubtree;
    insert.target_tag = "r";
    insert.target_start = doc.NodeLabel(doc.Root()).start;
    xml::Document fragment = MakeDoc("a(b(c))");
    insert.subtree = xml::SpecFromDocument(fragment);
    ops.push_back(std::move(insert));
    UpdateOp del;
    del.kind = UpdateOp::Kind::kDeleteSubtree;
    del.target_tag = "x";
    del.target_start = doc.NodeLabel(FirstOfTag(doc, "x")).start;
    ops.push_back(std::move(del));
    return ops;
  }

  uint64_t OracleCount() const { return NaiveEvaluator(doc, query).Count(); }

  /// Order-independent fingerprint of the oracle's match set (same hashing
  /// as RunResult::result_hash).
  uint64_t OracleHash() const {
    tpq::HashingSink sink;
    NaiveEvaluator(doc, query).Evaluate(&sink);
    return sink.hash();
  }

  static int counter;
  xml::Document doc;
  std::string path;
  std::unique_ptr<Engine> engine;
  const MaterializedView* v1;
  const MaterializedView* v2;
  TreePattern query = MustParse("//c");
};
int EngineFixture::counter = 0;

class EngineUpdateSchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(EngineUpdateSchemeTest, MaintainedViewsMatchOracle) {
  EngineFixture fx(GetParam());
  ASSERT_GT(fx.OracleCount(), 0u);
  const uint64_t before = fx.OracleHash();

  auto result = fx.engine->ApplyUpdates(fx.CanonicalOps());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->applied, 2u);
  EXPECT_TRUE(result->failed.empty());
  EXPECT_FALSE(result->relabeled);
  EXPECT_GT(result->txn_epoch, 0u);
  EXPECT_EQ(result->quarantined, 0u);
  if (GetParam() == Scheme::kTuple) {
    // Tuples have no per-node delta form: both affected views rebuild.
    EXPECT_EQ(result->delta_maintained, 0u);
    EXPECT_EQ(result->fully_rebuilt, 2u);
  } else {
    EXPECT_EQ(result->delta_maintained, 2u);
    EXPECT_EQ(result->fully_rebuilt, 0u);
  }

  const uint64_t after = fx.OracleHash();
  EXPECT_NE(after, before);  // the batch genuinely moved the match set
  if (GetParam() != Scheme::kTuple) {
    // Execute through the (stale) view pointers: the planner follows the
    // replacement links to the freshly maintained epoch. The fingerprint
    // check catches a stale view the count cannot (the batch adds one match
    // and removes another, so the count alone stays put).
    RunResult r = fx.engine->Execute(fx.query, {fx.v1, fx.v2});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.match_count, fx.OracleCount());
    EXPECT_EQ(r.result_hash, after);
  } else {
    // T-scheme: compare the rebuilt view's stored content to the oracle.
    const MaterializedView* tip =
        fx.engine->catalog()->FindView("//a//b", Scheme::kTuple);
    ASSERT_NE(tip, nullptr);
    EXPECT_EQ(tip->MatchCount(),
              NaiveEvaluator(fx.doc, MustParse("//a//b")).Count());
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, EngineUpdateSchemeTest,
                         ::testing::Values(Scheme::kElement,
                                           Scheme::kLinkedElement,
                                           Scheme::kLinkedElementPartial,
                                           Scheme::kTuple),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           return storage::SchemeName(info.param);
                         });

TEST(EngineUpdateTest, BadOpsAreSkippedNotFatal) {
  EngineFixture fx(Scheme::kLinkedElement);
  std::vector<UpdateOp> ops = fx.CanonicalOps();
  UpdateOp bogus;
  bogus.kind = UpdateOp::Kind::kDeleteSubtree;
  bogus.target_tag = "zz";  // no such element type
  bogus.target_start = 12345;
  ops.insert(ops.begin(), std::move(bogus));

  auto result = fx.engine->ApplyUpdates(ops);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->applied, 2u);
  ASSERT_EQ(result->failed.size(), 1u);
  EXPECT_NE(result->failed[0].find("op 0"), std::string::npos)
      << result->failed[0];
  // The surviving ops still maintained the views correctly.
  RunResult r = fx.engine->Execute(fx.query, {fx.v1, fx.v2});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.match_count, fx.OracleCount());
}

// A batch the catalog refuses leaves the document as the last committed
// epoch describes it — in memory and in the paged document store — so a
// retry of the same batch applies it exactly once.
TEST(EngineUpdateTest, RefusedBatchLeavesDocumentUntouched) {
  for (core::DocMode mode : {core::DocMode::kMemory, core::DocMode::kDisk}) {
    SCOPED_TRACE(mode == core::DocMode::kDisk ? "disk doc mode"
                                              : "memory doc mode");
    xml::Document doc = MakeDoc("r(a(b(c)) a(b(c)) a(b(c)))");
    const std::string path = TempPath("update_refused_batch.db");
    CleanupStore(path);
    EngineOptions options;
    options.persistent = true;
    options.doc_mode = mode;
    Engine engine(&doc, path, options);
    const TreePattern query = MustParse("//a//b//c");
    const MaterializedView* view = engine.AddView(query, Scheme::kElement);
    auto answer = [&] {
      RunResult r = engine.Execute(query, {view});
      EXPECT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.match_count, NaiveEvaluator(doc, query).Count());
      return r.match_count;
    };
    ASSERT_EQ(answer(), 3u);

    UpdateOp del;
    del.kind = UpdateOp::Kind::kDeleteSubtree;
    del.target_tag = "a";
    del.target_start =
        doc.NodeLabel(doc.NodesOfTag(doc.FindTag("a"))[1]).start;
    const uint64_t revision = doc.revision();
    {
      ScopedFaultInjection fi;
      fi->ArmDiskBudget(0);
      auto refused = engine.ApplyUpdates({del});
      ASSERT_FALSE(refused.ok());
      EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
          << refused.status().ToString();
    }
    EXPECT_EQ(doc.revision(), revision);
    EXPECT_EQ(answer(), 3u);

    auto applied = engine.ApplyUpdates({del});
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied->applied, 1u);
    EXPECT_EQ(answer(), 2u);
    if (mode == core::DocMode::kDisk) {
      EXPECT_NE(engine.doc_store(), nullptr)
          << engine.doc_store_status().ToString();
    }
  }
}

TEST(EngineUpdateTest, GapExhaustionTriggersRelabelAndRebuild) {
  // gap = 1: the very first insert cannot fit and forces RelabelWithGap.
  EngineFixture fx(Scheme::kLinkedElement, {}, /*gap=*/1);
  auto result = fx.engine->ApplyUpdates(fx.CanonicalOps());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->relabeled);
  EXPECT_EQ(result->applied, 2u);
  EXPECT_EQ(result->delta_maintained, 0u);
  EXPECT_EQ(result->fully_rebuilt, 2u);  // a relabel rebuilds every view
  RunResult r = fx.engine->Execute(fx.query, {fx.v1, fx.v2});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.match_count, fx.OracleCount());
}

TEST(EngineUpdateTest, ConstDocumentEngineRejectsUpdates) {
  xml::Document doc = MakeDoc("r(a(b(c)))");
  const std::string path = TempPath("update_const_engine.db");
  CleanupStore(path);
  const xml::Document* const_doc = &doc;
  Engine engine(const_doc, path);
  auto result = engine.ApplyUpdates({});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineUpdateTest, PlanCacheInvalidatesOnEpochBump) {
  EngineFixture fx(Scheme::kLinkedElement);
  RunResult first = fx.engine->Execute(fx.query, {fx.v1, fx.v2});
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.plan.from_cache);
  RunResult second = fx.engine->Execute(fx.query, {fx.v1, fx.v2});
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.plan.from_cache);
  EXPECT_GE(fx.engine->plan_cache()->hits(), 1u);

  const uint64_t misses_before = fx.engine->plan_cache()->misses();
  auto updated = fx.engine->ApplyUpdates(fx.CanonicalOps());
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  ASSERT_GT(updated->txn_epoch, 0u);

  // The epoch moved, so the memoized plan is dead: the next run re-plans
  // (and re-plans against the replacement views, not the stale pointers).
  RunResult third = fx.engine->Execute(fx.query, {fx.v1, fx.v2});
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_FALSE(third.plan.from_cache);
  EXPECT_GT(fx.engine->plan_cache()->misses(), misses_before);
  EXPECT_EQ(third.match_count, fx.OracleCount());
}

// ---- Strict VIEWJOIN_UPDATE_BATCH_SIZE knob (util/env.h) --------------------

TEST(EngineUpdateEnvTest, BatchSizeCapRejectsOversizedBatches) {
  EngineFixture fx(Scheme::kLinkedElement);
  ScopedSetenv env("VIEWJOIN_UPDATE_BATCH_SIZE", "1");
  auto result = fx.engine->ApplyUpdates(fx.CanonicalOps());  // 2 ops
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("VIEWJOIN_UPDATE_BATCH_SIZE"),
            std::string::npos)
      << result.status().ToString();
}

TEST(EngineUpdateEnvTest, MalformedKnobsAreTypedErrorsNotDefaults) {
  EngineFixture fx(Scheme::kLinkedElement);
  for (const char* bad : {"abc", "12x", "-3", " 7"}) {
    ScopedSetenv env("VIEWJOIN_UPDATE_BATCH_SIZE", bad);
    auto result = fx.engine->ApplyUpdates(fx.CanonicalOps());
    ASSERT_FALSE(result.ok()) << "value '" << bad << "' was accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("VIEWJOIN_UPDATE_BATCH_SIZE"),
              std::string::npos)
        << result.status().ToString();
  }
  // The document was never touched by any of the rejected batches.
  EXPECT_EQ(fx.doc.revision(), 1u);  // the relabel only
}

// ---- Concurrent queries during update batches -------------------------------

// Sessions hammer the query while the main thread applies batches: every
// answer must be one of the documented snapshot states (pre-batch or
// post-batch counts), never a torn in-between, and never an error.
TEST(EngineUpdateTest, ConcurrentQueriesSeeConsistentSnapshots) {
  const std::string spec = "r(a(b(c) b) a(x(b(c))) a(b(c)) b(c))";
  xml::Document doc = MakeDoc(spec);
  ASSERT_TRUE(doc.RelabelWithGap(64).ok());
  // Mirror document: same spec, mutated the same way up front, to precompute
  // the full set of match counts a query may legally observe.
  xml::Document mirror = MakeDoc(spec);
  ASSERT_TRUE(mirror.RelabelWithGap(64).ok());

  const TreePattern query = MustParse("//a//b//c");
  xml::Document fragment = MakeDoc("a(b(c))");
  const xml::SubtreeSpec frag_spec = xml::SpecFromDocument(fragment);

  // Three batches, each grafting the fragment under a distinct parent.
  const xml::TagId a_tag = mirror.FindTag("a");
  std::vector<uint32_t> parent_starts;
  parent_starts.push_back(mirror.NodeLabel(mirror.Root()).start);
  for (size_t i = 0; i < 2 && i < mirror.NodesOfTag(a_tag).size(); ++i) {
    parent_starts.push_back(mirror.NodeLabel(mirror.NodesOfTag(a_tag)[i]).start);
  }

  std::set<uint64_t> allowed;
  allowed.insert(NaiveEvaluator(mirror, query).Count());
  for (uint32_t start : parent_starts) {
    xml::NodeId parent = mirror.FindByStart(
        start == mirror.NodeLabel(mirror.Root()).start ? mirror.FindTag("r")
                                                       : a_tag,
        start);
    ASSERT_NE(parent, xml::kInvalidNode);
    auto ins = mirror.InsertSubtree(frag_spec, parent);
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    allowed.insert(NaiveEvaluator(mirror, query).Count());
  }

  const std::string path = TempPath("update_concurrent.db");
  CleanupStore(path);
  Engine engine(&doc, path);
  const MaterializedView* v1 =
      engine.AddView("//a//b", Scheme::kLinkedElement);
  const MaterializedView* v2 = engine.AddView("//c", Scheme::kLinkedElement);

  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::atomic<bool> stop{false};
  auto reader = [&] {
    Engine::Session session(&engine);
    RunOptions run;
    run.cold_cache = false;
    int iterations = 0;
    while (!stop.load(std::memory_order_acquire) || iterations < 20) {
      RunResult r = session.Run(query, {v1, v2}, run);
      ++iterations;
      if (!r.ok) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("query failed: " + r.error);
        break;
      }
      if (allowed.count(r.match_count) == 0) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("torn answer: match_count " +
                           std::to_string(r.match_count));
        break;
      }
      if (iterations > 500) break;
    }
  };
  std::thread t1(reader), t2(reader);

  for (size_t b = 0; b < parent_starts.size(); ++b) {
    UpdateOp op;
    op.kind = UpdateOp::Kind::kInsertSubtree;
    op.target_tag = b == 0 ? "r" : "a";
    op.target_start = parent_starts[b];
    op.subtree = frag_spec;
    auto result = engine.ApplyUpdates({op});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->applied, 1u);
    EXPECT_FALSE(result->relabeled);
  }
  stop.store(true, std::memory_order_release);
  t1.join();
  t2.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  // Quiesced: the final answer is the final mirror state exactly.
  RunResult final_run = engine.Execute(query, {v1, v2});
  ASSERT_TRUE(final_run.ok) << final_run.error;
  EXPECT_EQ(final_run.match_count, NaiveEvaluator(doc, query).Count());
  EXPECT_EQ(final_run.match_count, NaiveEvaluator(mirror, query).Count());
}

// A query must pair the document, the document store and the views of one
// epoch. Each batch below inserts one a(b(c)) group and deletes another, so
// the match count is the same before and after it — but a query that
// resolved the previous epoch's view labels against the mutated document
// drops the deleted group's match and answers neither epoch. Every reply's
// (count, hash) must equal the naive oracle at some batch boundary.
TEST(EngineUpdateTest, ConcurrentDiskModeQueriesMatchAnEpochOracle) {
  constexpr int kGroups = 200;
  constexpr size_t kBatches = 24;
  std::string spec = "r(";
  for (int i = 0; i < kGroups; ++i) spec += "a(b(c)) ";
  spec += ")";
  xml::Document doc = MakeDoc(spec);
  ASSERT_TRUE(doc.RelabelWithGap(64).ok());
  xml::Document mirror = MakeDoc(spec);
  ASSERT_TRUE(mirror.RelabelWithGap(64).ok());

  const TreePattern query = MustParse("//a//b//c");
  const xml::SubtreeSpec frag_spec =
      xml::SpecFromDocument(MakeDoc("a(b(c))"));
  const xml::TagId r_tag = mirror.FindTag("r");
  const xml::TagId a_tag = mirror.FindTag("a");
  const uint32_t root_start = mirror.NodeLabel(mirror.Root()).start;

  // Batch b grafts a group after a[2b] and deletes a[2b+1], addressed by
  // pre-batch labels. The mirror applies the same calls in the same order,
  // so its NodeIds — and hence its match hashes — equal the engine's.
  std::vector<std::vector<UpdateOp>> batches;
  auto oracle = [&] {
    tpq::HashingSink sink;
    NaiveEvaluator(mirror, query).Evaluate(&sink);
    return std::make_pair(sink.count(), sink.hash());
  };
  std::set<std::pair<uint64_t, uint64_t>> allowed = {oracle()};
  std::vector<xml::NodeId> groups = mirror.NodesOfTag(a_tag);
  for (size_t b = 0; b < kBatches; ++b) {
    const xml::NodeId after = groups[2 * b];
    const xml::NodeId victim = groups[2 * b + 1];
    UpdateOp insert;
    insert.kind = UpdateOp::Kind::kInsertSubtree;
    insert.target_tag = "r";
    insert.target_start = root_start;
    insert.after_tag = "a";
    insert.after_start = mirror.NodeLabel(after).start;
    insert.subtree = frag_spec;
    UpdateOp remove;
    remove.kind = UpdateOp::Kind::kDeleteSubtree;
    remove.target_tag = "a";
    remove.target_start = mirror.NodeLabel(victim).start;
    batches.push_back({insert, remove});

    ASSERT_TRUE(mirror
                    .InsertSubtree(frag_spec,
                                   mirror.FindByStart(r_tag, root_start), after)
                    .ok());
    ASSERT_TRUE(mirror.DeleteSubtree(victim).ok());
    allowed.insert(oracle());
  }
  ASSERT_EQ(allowed.size(), kBatches + 1);  // equal counts, distinct hashes

  const std::string path = TempPath("update_concurrent_disk.db");
  CleanupStore(path);
  EngineOptions options;
  options.doc_mode = core::DocMode::kDisk;
  Engine engine(&doc, path, options);
  ASSERT_NE(engine.doc_store(), nullptr) << engine.doc_store_status().ToString();
  const MaterializedView* v1 =
      engine.AddView("//a//b", Scheme::kLinkedElement);
  const MaterializedView* v2 = engine.AddView("//c", Scheme::kLinkedElement);

  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> replies{0};
  auto reader = [&] {
    Engine::Session session(&engine);
    RunOptions run;
    run.algorithm = core::Algorithm::kViewJoin;
    while (!stop.load(std::memory_order_acquire)) {
      RunResult r = session.Run(query, {v1, v2}, run);
      replies.fetch_add(1, std::memory_order_relaxed);
      std::string problem;
      if (!r.ok) {
        problem = "query failed: " + r.error;
      } else if (allowed.count({r.match_count, r.result_hash}) == 0) {
        problem = "reply matches no epoch: match_count " +
                  std::to_string(r.match_count);
      }
      if (!problem.empty()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back(problem);
        return;
      }
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);
  for (const std::vector<UpdateOp>& batch : batches) {
    auto result = engine.ApplyUpdates(batch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->applied, 2u);
    EXPECT_FALSE(result->relabeled);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_GT(replies.load(), kBatches);

  RunResult final_run = engine.Execute(query, {v1, v2});
  ASSERT_TRUE(final_run.ok) << final_run.error;
  EXPECT_EQ(std::make_pair(final_run.match_count, final_run.result_hash),
            oracle());
}

// ---- Update crash matrix ----------------------------------------------------

struct UpdateCrashCase {
  CrashPoint point;
  Scheme scheme;
};

std::string UpdateCrashCaseName(
    const ::testing::TestParamInfo<UpdateCrashCase>& info) {
  std::string point = CrashPointName(info.param.point);
  for (char& c : point) {
    if (c == '-') c = '_';
  }
  return point + "_" + storage::SchemeName(info.param.scheme);
}

constexpr const char* kMatrixDocSpec = "r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))";

/// Applies the canonical matrix batch to `doc`: graft a(b(c)) under the
/// root, delete the x subtree. Sandwiches through `collector` when given.
void MutateMatrixDoc(xml::Document* doc, DeltaCollector* collector) {
  xml::Document fragment = MakeDoc("a(b(c))");
  xml::SubtreeSpec spec = xml::SpecFromDocument(fragment);
  if (collector != nullptr) collector->WillInsert(doc->Root());
  auto inserted = doc->InsertSubtree(spec, doc->Root());
  VJ_CHECK(inserted.ok()) << inserted.status().ToString();
  if (collector != nullptr) collector->DidInsert(*inserted);
  xml::NodeId x = FirstOfTag(*doc, "x");
  VJ_CHECK(x != xml::kInvalidNode);
  if (collector != nullptr) collector->WillDelete(x);
  VJ_CHECK(doc->DeleteSubtree(x).ok());
  if (collector != nullptr) collector->DidDelete();
}

class UpdateCrashMatrixTest : public ::testing::TestWithParam<UpdateCrashCase> {
};

TEST_P(UpdateCrashMatrixTest, ReopenLandsOnExactlyOneEpoch) {
  const UpdateCrashCase param = GetParam();
  const bool committed = param.point == CrashPoint::kCrashAfterEpochBump;
  const TreePattern p1 = MustParse("//a//b");
  const TreePattern p2 = MustParse("//c");
  const TreePattern query = MustParse("//a//b//c");
  const bool list_scheme = param.scheme != Scheme::kTuple;

  // Pre- and post-batch reference documents (the victim's own document is
  // mutated mid-protocol and serves neither comparison cleanly).
  xml::Document pre = MakeDoc(kMatrixDocSpec);
  ASSERT_TRUE(pre.RelabelWithGap(32).ok());
  xml::Document post = MakeDoc(kMatrixDocSpec);
  ASSERT_TRUE(post.RelabelWithGap(32).ok());
  MutateMatrixDoc(&post, nullptr);

  // Clean reference run: the same batch, committed without faults.
  uint64_t post_hash = 0, post_match_1 = 0;
  std::vector<uint32_t> post_lengths_1;
  {
    const std::string clean_path =
        TempPath("update_crash_clean_" +
                 UpdateCrashCaseName({param, 0}) + ".db");
    CleanupStore(clean_path);
    ViewCatalog clean(clean_path, 128, /*persistent=*/true);
    const MaterializedView* c1 = clean.Materialize(post, p1, param.scheme);
    const MaterializedView* c2 = clean.Materialize(post, p2, param.scheme);
    if (list_scheme) {
      post_hash = QueryHash(post, &clean, query, {c1, c2});
    } else {
      post_match_1 = c1->MatchCount();
    }
    for (size_t q = 0; q < p1.size(); ++q) {
      post_lengths_1.push_back(c1->ListLength(static_cast<int>(q)));
    }
    (void)c2;
    EXPECT_TRUE(clean.Close().ok());
  }

  const std::string path =
      TempPath("update_crash_" + UpdateCrashCaseName({param, 0}) + ".db");
  CleanupStore(path);

  uint64_t pre_hash = 0, pre_match_1 = 0, pre_epoch = 0;
  std::vector<uint32_t> pre_lengths_1;

  // The victim: two installed views, one update batch, a crash mid-protocol.
  {
    ViewCatalog victim(path, 128, /*persistent=*/true);
    xml::Document vic = MakeDoc(kMatrixDocSpec);
    ASSERT_TRUE(vic.RelabelWithGap(32).ok());
    const MaterializedView* v1 = victim.Materialize(vic, p1, param.scheme);
    const MaterializedView* v2 = victim.Materialize(vic, p2, param.scheme);
    pre_epoch = victim.epoch();
    if (list_scheme) {
      pre_hash = QueryHash(vic, &victim, query, {v1, v2});
    } else {
      pre_match_1 = v1->MatchCount();
    }
    for (size_t q = 0; q < p1.size(); ++q) {
      pre_lengths_1.push_back(v1->ListLength(static_cast<int>(q)));
    }

    std::vector<ViewCatalog::ViewUpdateSpec> specs(2);
    specs[0].view = v1;
    specs[1].view = v2;
    if (list_scheme) {
      DeltaCollector collector(&vic, {p1, p2});
      MutateMatrixDoc(&vic, &collector);
      std::vector<PatternDeltas> deltas = collector.TakeDeltas();
      specs[0].deltas.added = std::move(deltas[0].added);
      specs[0].deltas.removed = std::move(deltas[0].removed);
      specs[1].deltas.added = std::move(deltas[1].added);
      specs[1].deltas.removed = std::move(deltas[1].removed);
    } else {
      MutateMatrixDoc(&vic, nullptr);
      specs[0].full_rebuild = true;
      specs[1].full_rebuild = true;
    }

    ScopedFaultInjection fi;
    // Mid-delta-merge fires at the top of the nth per-view install: nth=2
    // leaves view 0 installed and view 1 missing — the half-merged state.
    fi->ArmCrashPoint(param.point,
                      param.point == CrashPoint::kCrashMidDeltaMerge ? 2 : 1);
    auto failed = victim.ApplyUpdateBatch(vic, specs);
    ASSERT_FALSE(failed.ok()) << CrashPointName(param.point);
    EXPECT_NE(failed.status().message().find("injected crash"),
              std::string::npos)
        << failed.status().ToString();
    EXPECT_EQ(fi->injected_crashes(), 1u);
    // Scope exit abandons the catalog with the mid-flight on-disk state.
  }

  // Offline fsck before recovery: a batch cut down before its commit record
  // is a crash artifact, never corruption; a committed one left nothing to
  // repair (its pages and records were durable before the crash).
  FsckCatalogReport before = FsckCatalog(path);
  EXPECT_FALSE(before.corrupt()) << storage::ToJson(before);
  EXPECT_EQ(before.repair_needed(), !committed) << storage::ToJson(before);
  EXPECT_EQ(before.epoch_regressions, 0u);
  EXPECT_GE(before.max_epoch, pre_epoch);
  if (!committed) {
    EXPECT_EQ(before.rolled_back_update_batches, 1u)
        << storage::ToJson(before);
  } else {
    EXPECT_EQ(before.rolled_back_update_batches, 0u)
        << storage::ToJson(before);
    EXPECT_GT(before.max_epoch, pre_epoch);
  }
  const uint64_t high_water = before.max_epoch;

  // Reopen: recovery must land exactly on one epoch — the pre-batch catalog
  // (crash before the commit record) or the post-batch one (after it).
  auto reopened = ViewCatalog::Open(path, 128);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ViewCatalog& catalog = **reopened;

  // Nothing but the store and its journal, either way.
  EXPECT_EQ(testing::SiblingFiles(path, "."),
            std::vector<std::string>{
                std::filesystem::path(path).filename().string() +
                ".manifest"});
  if (!committed) {
    EXPECT_EQ(catalog.recovery_report().rolled_back_update_batches, 1u);
  } else {
    EXPECT_EQ(catalog.recovery_report().rolled_back_update_batches, 0u);
  }

  const MaterializedView* r1 = catalog.FindView(p1.ToString(), param.scheme);
  const MaterializedView* r2 = catalog.FindView(p2.ToString(), param.scheme);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_TRUE(catalog.VerifyView(r1).ok());
  EXPECT_TRUE(catalog.VerifyView(r2).ok());

  if (committed) {
    // Post-batch epoch: answers equal the clean run over the post document.
    if (list_scheme) {
      EXPECT_EQ(QueryHash(post, &catalog, query, {r1, r2}), post_hash);
    } else {
      EXPECT_EQ(r1->MatchCount(), post_match_1);
    }
    for (size_t q = 0; q < p1.size(); ++q) {
      EXPECT_EQ(r1->ListLength(static_cast<int>(q)), post_lengths_1[q]);
    }
  } else {
    // Pre-batch epoch: the batch rolled back wholesale — not one view of it
    // survives, even when some install records landed before the crash.
    if (list_scheme) {
      EXPECT_EQ(QueryHash(pre, &catalog, query, {r1, r2}), pre_hash);
    } else {
      EXPECT_EQ(r1->MatchCount(), pre_match_1);
    }
    for (size_t q = 0; q < p1.size(); ++q) {
      EXPECT_EQ(r1->ListLength(static_cast<int>(q)), pre_lengths_1[q]);
    }
  }

  // Epochs never run backwards and are never reused: the next install mints
  // strictly above the pre-crash high-water mark, rolled-back records
  // included.
  const xml::Document& current = committed ? post : pre;
  const MaterializedView* fresh =
      catalog.Materialize(current, MustParse("//b"), param.scheme);
  EXPECT_GT(fresh->epoch(), high_water);
  EXPECT_TRUE(catalog.Close().ok());

  // A final reopen and fsck see a fully healed store.
  auto again = ViewCatalog::Open(path, 128);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->recovery_report().rolled_back_update_batches, 0u);
  EXPECT_NE((*again)->FindView("//b", param.scheme), nullptr);
  EXPECT_TRUE((*again)->Close().ok());
  FsckCatalogReport healed = FsckCatalog(path);
  EXPECT_TRUE(healed.clean()) << storage::ToJson(healed);
  EXPECT_EQ(healed.epoch_regressions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPointsAllSchemes, UpdateCrashMatrixTest,
    ::testing::Values(
        UpdateCrashCase{CrashPoint::kCrashMidDeltaMerge, Scheme::kElement},
        UpdateCrashCase{CrashPoint::kCrashMidDeltaMerge,
                        Scheme::kLinkedElement},
        UpdateCrashCase{CrashPoint::kCrashMidDeltaMerge,
                        Scheme::kLinkedElementPartial},
        UpdateCrashCase{CrashPoint::kCrashMidDeltaMerge, Scheme::kTuple},
        UpdateCrashCase{CrashPoint::kCrashBeforeEpochBump, Scheme::kElement},
        UpdateCrashCase{CrashPoint::kCrashBeforeEpochBump,
                        Scheme::kLinkedElement},
        UpdateCrashCase{CrashPoint::kCrashBeforeEpochBump,
                        Scheme::kLinkedElementPartial},
        UpdateCrashCase{CrashPoint::kCrashBeforeEpochBump, Scheme::kTuple},
        UpdateCrashCase{CrashPoint::kCrashAfterEpochBump, Scheme::kElement},
        UpdateCrashCase{CrashPoint::kCrashAfterEpochBump,
                        Scheme::kLinkedElement},
        UpdateCrashCase{CrashPoint::kCrashAfterEpochBump,
                        Scheme::kLinkedElementPartial},
        UpdateCrashCase{CrashPoint::kCrashAfterEpochBump, Scheme::kTuple}),
    UpdateCrashCaseName);

// ---- Write-once commits -----------------------------------------------------

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

// Every install and every update batch writes its pages once, to the pager
// file: the disk it is charged for is exactly what the pager file and the
// journal grew by, and no staging file outlives the commit.
TEST(WriteOnceTest, CommitsChargeExactlyPagerAndJournalGrowth) {
  const std::string path = TempPath("write_once.db");
  const std::string journal = path + ".manifest";
  CleanupStore(path);
  xml::Document doc = MakeDoc(kMatrixDocSpec);
  ASSERT_TRUE(doc.RelabelWithGap(32).ok());
  const TreePattern pattern = MustParse("//a//b");
  ViewCatalog catalog(path, 128, /*persistent=*/true);
  // The pager header is written at creation but may still sit in the stdio
  // buffer; flush it so it does not count as the first install's growth.
  ASSERT_TRUE(catalog.pager()->Sync().ok());

  ScopedFaultInjection fi;
  fi->ArmDiskBudget(uint64_t{1} << 40);
  auto expect_write_once = [&](const std::string& what,
                               const std::function<void()>& step) {
    const uint64_t budget = fi->disk_budget_remaining();
    const uint64_t bytes = FileBytes(path) + FileBytes(journal);
    step();
    const uint64_t grown = FileBytes(path) + FileBytes(journal) - bytes;
    EXPECT_GT(grown, 0u) << what;
    EXPECT_EQ(budget - fi->disk_budget_remaining(), grown) << what;
  };

  std::vector<const MaterializedView*> list_views;
  for (Scheme scheme : {Scheme::kElement, Scheme::kLinkedElement,
                        Scheme::kLinkedElementPartial, Scheme::kTuple}) {
    expect_write_once(std::string("install ") + storage::SchemeName(scheme),
                      [&] {
                        const MaterializedView* view =
                            catalog.Materialize(doc, pattern, scheme);
                        if (scheme != Scheme::kTuple) {
                          list_views.push_back(view);
                        }
                      });
  }

  DeltaCollector collector(&doc, {pattern});
  MutateMatrixDoc(&doc, &collector);
  std::vector<PatternDeltas> deltas = collector.TakeDeltas();
  std::vector<ViewCatalog::ViewUpdateSpec> specs(list_views.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].view = list_views[i];
    specs[i].deltas.added = deltas[0].added;
    specs[i].deltas.removed = deltas[0].removed;
  }
  ASSERT_FALSE(specs[0].deltas.empty());
  expect_write_once("update batch", [&] {
    auto applied = catalog.ApplyUpdateBatch(doc, specs);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied->delta_maintained, specs.size());
  });
  EXPECT_EQ(fi->injected_no_space_faults(), 0u);

  EXPECT_EQ(testing::SiblingFiles(path, "."),
            std::vector<std::string>{
                std::filesystem::path(path).filename().string() +
                ".manifest"});
}

// ---- Checkpoint compaction torn mid-write (satellite: compaction fix) ------

TEST(CheckpointCrashTest, TornCompactionPreservesOriginalJournal) {
  const std::string path = TempPath("update_compaction_crash.db");
  CleanupStore(path);
  xml::Document doc = MakeDoc(kMatrixDocSpec);
  ASSERT_TRUE(doc.RelabelWithGap(32).ok());
  const TreePattern query = MustParse("//a//b//c");
  uint64_t ref_hash = 0, epoch_before = 0;
  {
    ViewCatalog victim(path, 128, /*persistent=*/true);
    const MaterializedView* v1 =
        victim.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    const MaterializedView* v2 =
        victim.Materialize(doc, MustParse("//c"), Scheme::kLinkedElement);
    ref_hash = QueryHash(doc, &victim, query, {v1, v2});
    epoch_before = victim.epoch();

    ScopedFaultInjection fi;
    fi->ArmCrashPoint(CrashPoint::kCrashMidCompaction);
    util::Status compacted = victim.Checkpoint();
    ASSERT_FALSE(compacted.ok());
    EXPECT_NE(compacted.ToString().find("injected crash"), std::string::npos)
        << compacted.ToString();
    // The torn tmp stays; the original journal was never replaced.
    EXPECT_TRUE(FileExists(path + ".manifest.tmp"));
    EXPECT_TRUE(FileExists(path + ".manifest"));
  }

  // fsck: the journal replays fine (the tmp never became the journal), and
  // the tmp is flagged as a crash artifact.
  FsckCatalogReport report = FsckCatalog(path);
  EXPECT_FALSE(report.corrupt()) << storage::ToJson(report);
  EXPECT_TRUE(report.stale_checkpoint) << storage::ToJson(report);
  EXPECT_TRUE(report.repair_needed());
  EXPECT_EQ(report.last_epoch, epoch_before);
  EXPECT_EQ(report.view_count, 2u);
  EXPECT_EQ(report.epoch_regressions, 0u);

  // Reopen: both views, identical answers, epoch preserved.
  auto reopened = ViewCatalog::Open(path, 128);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ViewCatalog& catalog = **reopened;
  EXPECT_TRUE(catalog.recovery_report().stale_checkpoint_removed);
  EXPECT_FALSE(FileExists(path + ".manifest.tmp"));
  EXPECT_EQ(catalog.epoch(), epoch_before);
  const MaterializedView* r1 =
      catalog.FindView("//a//b", Scheme::kLinkedElement);
  const MaterializedView* r2 = catalog.FindView("//c", Scheme::kLinkedElement);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(QueryHash(doc, &catalog, query, {r1, r2}), ref_hash);

  // The post-recovery compaction succeeds, and epochs minted after it stay
  // strictly above the pre-compaction high-water mark (the kEpochMark
  // regression this test guards against).
  ASSERT_TRUE(catalog.Checkpoint().ok());
  const MaterializedView* fresh =
      catalog.Materialize(doc, MustParse("//b"), Scheme::kElement);
  EXPECT_GT(fresh->epoch(), epoch_before);
  EXPECT_TRUE(catalog.Close().ok());

  auto again = ViewCatalog::Open(path, 128);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_GE((*again)->epoch(), fresh->epoch());
  EXPECT_TRUE((*again)->Close().ok());
  FsckCatalogReport healed = FsckCatalog(path);
  EXPECT_EQ(healed.epoch_regressions, 0u);
  EXPECT_FALSE(healed.corrupt()) << storage::ToJson(healed);
}

// ---- fsck epoch reporting over applied update batches (satellite: fsck) ----

TEST(FsckUpdateTest, MaxEpochIsMonotoneAcrossUpdateBatches) {
  const std::string path = TempPath("update_fsck_epochs.db");
  CleanupStore(path);
  xml::Document doc = MakeDoc(kMatrixDocSpec);
  ASSERT_TRUE(doc.RelabelWithGap(32).ok());
  const TreePattern p1 = MustParse("//a//b");
  const TreePattern p2 = MustParse("//c");
  uint64_t txn_epoch = 0;
  {
    ViewCatalog catalog(path, 128, /*persistent=*/true);
    const MaterializedView* v1 = catalog.Materialize(doc, p1, Scheme::kElement);
    const MaterializedView* v2 = catalog.Materialize(doc, p2, Scheme::kElement);
    DeltaCollector collector(&doc, {p1, p2});
    MutateMatrixDoc(&doc, &collector);
    std::vector<PatternDeltas> deltas = collector.TakeDeltas();
    std::vector<ViewCatalog::ViewUpdateSpec> specs(2);
    specs[0].view = v1;
    specs[0].deltas.added = std::move(deltas[0].added);
    specs[0].deltas.removed = std::move(deltas[0].removed);
    specs[1].view = v2;
    specs[1].deltas.added = std::move(deltas[1].added);
    specs[1].deltas.removed = std::move(deltas[1].removed);
    auto applied = catalog.ApplyUpdateBatch(doc, specs);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    txn_epoch = applied->txn_epoch;
    ASSERT_GT(txn_epoch, 0u);
    EXPECT_TRUE(catalog.Close().ok());
  }
  FsckCatalogReport report = FsckCatalog(path);
  EXPECT_TRUE(report.clean()) << storage::ToJson(report);
  EXPECT_EQ(report.max_epoch, report.last_epoch);
  EXPECT_GT(report.max_epoch, txn_epoch);  // installs + commit minted above it
  EXPECT_EQ(report.epoch_regressions, 0u);
  // --json carries the monotonicity fields for CI gates.
  const std::string json = storage::ToJson(report);
  EXPECT_NE(json.find("\"max_epoch\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"epoch_regressions\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rolled_back_update_batches\""), std::string::npos)
      << json;
}

}  // namespace
}  // namespace viewjoin
