// Online hot backup, verified restore, and ENOSPC hardening. The flagship
// test takes a backup of an XMark engine WHILE an updater thread applies
// batches and a session thread queries, restores the image into a fresh
// directory, and asserts every Fig. 5 query x algorithm x scheme hashes
// identically to the pinned-epoch source. Around it: the offline
// create/verify/restore round trip, tamper detection, the
// crash-mid-backup-copy matrix point (source store byte-identical, torn
// image detectable), the ENOSPC write-site matrix (every injected kNoSpace
// surfaces as typed ResourceExhausted with no orphans — fsck-verified),
// the checkpoint-compaction ENOSPC regression (old journal intact and
// replayable), and the server-side idempotency token (a retried tokened
// update applies exactly once) plus the backup admin frame.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "bench/workloads.h"
#include "core/engine.h"
#include "data/xmark_generator.h"
#include "plan/operator.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "storage/backup.h"
#include "storage/fsck.h"
#include "storage/manifest.h"
#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "tests/test_util.h"
#include "tpq/pattern.h"
#include "util/fault_injection.h"
#include "util/status.h"
#include "xml/document.h"

namespace viewjoin {
namespace {

using bench::Combo;
using bench::ParseQuery;
using bench::QuerySpec;
using core::Engine;
using core::EngineOptions;
using core::RunOptions;
using core::RunResult;
using core::UpdateOp;
using storage::BackupReport;
using storage::ManifestJournal;
using storage::MaterializedView;
using storage::Pager;
using storage::Scheme;
using storage::ViewCatalog;
using testing::MakeDoc;
using testing::MustParse;
using tpq::TreePattern;
using util::CrashPoint;
using util::ScopedFaultInjection;
using util::StatusCode;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Removes a store's files (pager, manifest, sidecars) plus leftovers.
void CleanupStore(const std::string& path) {
  for (const char* suffix : {"", ".manifest", ".manifest.tmp", ".doc",
                             ".doc.manifest", ".spill"}) {
    std::remove((path + suffix).c_str());
  }
}

/// Removes a backup image directory and everything in it.
void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Whole-file read, for byte-identity assertions on the source store.
std::string FileBytes(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  return bytes;
}

/// Evaluates `query` over `views` through the plan layer's operator for
/// `algorithm`, against `catalog`'s pages. This is how a restored store is
/// queried without an Engine: the operator machinery is the same code the
/// engine interprets, so a hash match proves the restored pages serve every
/// algorithm, not just the one that wrote them.
RunResult EvaluateOnCatalog(const xml::Document& doc, ViewCatalog* catalog,
                            const TreePattern& query,
                            const std::vector<const MaterializedView*>& views,
                            core::Algorithm algorithm) {
  RunResult out;
  plan::Operator::Config config;
  config.doc = &doc;
  config.query = &query;
  config.views = views;
  config.pool = catalog->pool();
  std::unique_ptr<plan::Operator> op = plan::MakeOperator(algorithm, config);
  util::Status opened = op->Open();
  if (!opened.ok()) {
    out.error = opened.ToString();
    return out;
  }
  tpq::HashingSink sink;
  algo::QueryContext gov;
  op->Evaluate(&sink, &gov);
  op->Close();
  out.ok = true;
  out.match_count = sink.count();
  out.result_hash = sink.hash();
  return out;
}

// ---- Offline round trip ----------------------------------------------------

TEST(BackupRoundTripTest, CreateVerifyRestoreAndRefusals) {
  const std::string src = TempPath("bk_roundtrip.db");
  const std::string img = TempPath("bk_roundtrip_img");
  const std::string restored = TempPath("bk_roundtrip_restored.db");
  CleanupStore(src);
  CleanupStore(restored);
  RemoveTree(img);

  xml::Document doc = MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))");
  EngineOptions options;
  options.persistent = true;
  Engine engine(&doc, src, options);
  const MaterializedView* v1 = engine.AddView("//a//b", Scheme::kLinkedElement);
  const MaterializedView* v2 = engine.AddView("//c", Scheme::kLinkedElement);
  const TreePattern query = MustParse("//a//b//c");
  RunResult reference = engine.Execute(query, {v1, v2});
  ASSERT_TRUE(reference.ok) << reference.error;

  util::StatusOr<BackupReport> report = engine.CreateBackup(img);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->epoch, 0u);
  EXPECT_GT(report->view_page_count, 0u);
  EXPECT_GT(report->bytes_copied, 0u);
  EXPECT_FALSE(report->has_doc_store);  // memory doc-mode
  EXPECT_GE(report->files.size(), 2u);  // store + store.manifest
  EXPECT_TRUE(storage::IsBackupImageDir(img));
  EXPECT_FALSE(report->ToJson().empty());

  util::StatusOr<BackupReport> verified = storage::VerifyBackupImage(img);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified->epoch, report->epoch);
  EXPECT_EQ(verified->view_page_count, report->view_page_count);

  // A second backup into the same directory is refused, not overwritten.
  util::StatusOr<BackupReport> again = engine.CreateBackup(img);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);

  util::StatusOr<BackupReport> restored_report =
      storage::RestoreBackup(img, restored);
  ASSERT_TRUE(restored_report.ok()) << restored_report.status().ToString();

  // Restore refuses to clobber an existing destination.
  util::StatusOr<BackupReport> clobber = storage::RestoreBackup(img, restored);
  ASSERT_FALSE(clobber.ok());
  EXPECT_EQ(clobber.status().code(), StatusCode::kInvalidArgument);

  // The restored store recovers cleanly and answers from the restored pages.
  storage::FsckCatalogReport fsck = storage::FsckCatalog(restored);
  EXPECT_FALSE(fsck.corrupt());
  EXPECT_FALSE(fsck.repair_needed());
  auto opened = ViewCatalog::Open(restored, 64);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->epoch(), report->epoch);
  const MaterializedView* r1 =
      (*opened)->FindView(MustParse("//a//b").ToString(),
                          Scheme::kLinkedElement);
  const MaterializedView* r2 =
      (*opened)->FindView(MustParse("//c").ToString(),
                          Scheme::kLinkedElement);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  RunResult answer = EvaluateOnCatalog(doc, opened->get(), query, {r1, r2},
                                       core::Algorithm::kViewJoin);
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_EQ(answer.match_count, reference.match_count);
  EXPECT_EQ(answer.result_hash, reference.result_hash);
}

TEST(BackupRoundTripTest, VerifyDetectsTamperAndMissingMeta) {
  const std::string src = TempPath("bk_tamper.db");
  const std::string img = TempPath("bk_tamper_img");
  CleanupStore(src);
  RemoveTree(img);

  xml::Document doc = MakeDoc("r(a(b(c)) a(b(c)))");
  EngineOptions options;
  options.persistent = true;
  Engine engine(&doc, src, options);
  engine.AddView("//a//b", Scheme::kElement);
  util::StatusOr<BackupReport> report = engine.CreateBackup(img);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Flip one payload byte of the copied store: the image must fail both the
  // recorded-CRC check and restore, as corruption (not a crash artifact).
  const std::string store = img + "/" + storage::kBackupStoreName;
  {
    std::FILE* f = std::fopen(store.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, Pager::kHeaderSize + 100, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, Pager::kHeaderSize + 100, SEEK_SET), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  util::StatusOr<BackupReport> verified = storage::VerifyBackupImage(img);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kCorruption);
  util::StatusOr<BackupReport> restored =
      storage::RestoreBackup(img, TempPath("bk_tamper_restored.db"));
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);

  // Without backup.meta the directory is not an image at all (that is the
  // commit point a mid-backup crash never reaches).
  std::remove((img + "/" + storage::kBackupMetaName).c_str());
  EXPECT_FALSE(storage::IsBackupImageDir(img));
  util::StatusOr<BackupReport> headless = storage::VerifyBackupImage(img);
  ASSERT_FALSE(headless.ok());
  EXPECT_EQ(headless.status().code(), StatusCode::kNotFound);
}

// ---- Hot backup under concurrent load: the Fig. 5 differential -------------

// The backup races live update batches and session queries. The updater
// grafts subtrees of a tag ("zzz") that appears in no workload query or
// view, and never triggers a relabel — so the Fig. 5 match sets are
// invariant across every epoch the snapshot could pin, and the restored
// store must hash identically to the pre-update reference no matter which
// batch boundary the backup caught.
TEST(BackupDifferentialTest, HotBackupUnderLoadMatchesPinnedEpochOnFig5) {
  const std::string src = TempPath("bk_fig5.db");
  const std::string img = TempPath("bk_fig5_img");
  const std::string restored = TempPath("bk_fig5_restored.db");
  CleanupStore(src);
  CleanupStore(restored);
  RemoveTree(img);

  xml::Document doc = data::GenerateXmark({.scale = 0.08});
  ASSERT_TRUE(doc.RelabelWithGap(64).ok());
  EngineOptions options;
  options.persistent = true;
  Engine engine(&doc, src, options);

  struct Expected {
    std::string name;
    std::string label;
    TreePattern query;
    std::vector<std::string> view_patterns;
    Scheme scheme;
    core::Algorithm algorithm;
    uint64_t match_count = 0;
    uint64_t result_hash = 0;
  };
  std::vector<Expected> expectations;
  for (const QuerySpec& spec : bench::XmarkQueries()) {
    TreePattern query = ParseQuery(spec.xpath);
    std::vector<TreePattern> split = bench::PairViews(query);
    const std::vector<Combo> combos =
        spec.is_path ? bench::AllCombos() : bench::ListCombos();
    for (const Combo& combo : combos) {
      Expected e;
      e.name = spec.name;
      e.label = combo.Label();
      e.query = query;
      e.scheme = combo.scheme;
      e.algorithm = combo.algorithm;
      std::vector<const MaterializedView*> views;
      for (const TreePattern& pattern : split) {
        e.view_patterns.push_back(pattern.ToString());
        views.push_back(engine.AddView(pattern, combo.scheme));
      }
      RunOptions run;
      run.algorithm = combo.algorithm;
      run.cold_cache = false;
      RunResult reference = engine.Execute(query, views, run);
      ASSERT_TRUE(reference.ok)
          << spec.name << " " << combo.Label() << ": " << reference.error;
      e.match_count = reference.match_count;
      e.result_hash = reference.result_hash;
      expectations.push_back(std::move(e));
    }
  }
  const uint64_t epoch_before = engine.catalog()->epoch();

  // Concurrent load: an updater applying foreign-tag batches and a session
  // hammering the first workload query, both racing the backup copy.
  xml::Document fragment = MakeDoc("zzz(zzz)");
  const xml::SubtreeSpec frag_spec = xml::SpecFromDocument(fragment);
  const std::string root_tag = doc.TagName(doc.NodeTag(doc.Root()));
  const uint32_t root_start = doc.NodeLabel(doc.Root()).start;

  // Each batch grafts under a *distinct* parent so every parent's label gap
  // is consumed once: repeated first-child inserts under one node would
  // exhaust its gap and force a relabel, which rebuilds every view with new
  // labels and breaks the epoch-invariance this test depends on.
  struct Parent {
    std::string tag;
    uint32_t start;
  };
  std::vector<Parent> parents;
  parents.push_back({root_tag, root_start});
  for (const char* tag : {"people", "regions", "catgraph", "categories"}) {
    if (parents.size() >= 4) break;
    const xml::TagId id = doc.FindTag(tag);
    if (id == xml::kInvalidTag) continue;
    const auto& nodes = doc.NodesOfTag(id);
    if (nodes.empty()) continue;
    parents.push_back({tag, doc.NodeLabel(nodes.front()).start});
  }
  ASSERT_GE(parents.size(), 2u);

  std::atomic<bool> stop{false};
  std::vector<std::string> update_failures;
  std::thread updater([&] {
    for (size_t batch = 0; batch < parents.size(); ++batch) {
      UpdateOp op;
      op.kind = UpdateOp::Kind::kInsertSubtree;
      op.target_tag = parents[batch].tag;
      op.target_start = parents[batch].start;
      op.subtree = frag_spec;
      auto result = engine.ApplyUpdates({op});
      if (!result.ok()) {
        update_failures.push_back(result.status().ToString());
        return;
      }
      if (result->relabeled) {
        update_failures.push_back("batch triggered a relabel");
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::vector<std::string> query_failures;
  std::thread querier([&] {
    Engine::Session session(&engine);
    const Expected& e = expectations.front();
    std::vector<const MaterializedView*> views;
    for (const std::string& pattern : e.view_patterns) {
      views.push_back(engine.catalog()->FindView(pattern, e.scheme));
    }
    RunOptions run;
    run.algorithm = e.algorithm;
    run.cold_cache = false;
    int iterations = 0;
    while (!stop.load(std::memory_order_acquire) || iterations < 5) {
      RunResult r = session.Run(e.query, views, run);
      ++iterations;
      if (!r.ok) {
        query_failures.push_back(r.error);
        return;
      }
      if (r.match_count != e.match_count || r.result_hash != e.result_hash) {
        query_failures.push_back("live answer drifted under backup");
        return;
      }
      if (iterations > 300) return;
    }
  });

  util::StatusOr<BackupReport> report = engine.CreateBackup(img);
  stop.store(true, std::memory_order_release);
  updater.join();
  querier.join();
  for (const std::string& failure : update_failures) ADD_FAILURE() << failure;
  for (const std::string& failure : query_failures) ADD_FAILURE() << failure;
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->epoch, epoch_before);

  util::StatusOr<BackupReport> restored_report =
      storage::RestoreBackup(img, restored);
  ASSERT_TRUE(restored_report.ok()) << restored_report.status().ToString();
  storage::FsckCatalogReport fsck = storage::FsckCatalog(restored);
  EXPECT_FALSE(fsck.corrupt());
  EXPECT_FALSE(fsck.repair_needed());

  auto opened = ViewCatalog::Open(restored, 256);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->epoch(), report->epoch);
  EXPECT_FALSE((*opened)->recovery_report().journal_tail_truncated);
  EXPECT_EQ((*opened)->recovery_report().orphan_pages_truncated, 0u);

  for (const Expected& e : expectations) {
    std::vector<const MaterializedView*> views;
    for (const std::string& pattern : e.view_patterns) {
      const MaterializedView* view = (*opened)->FindView(pattern, e.scheme);
      ASSERT_NE(view, nullptr)
          << e.name << " " << e.label << ": view " << pattern
          << " missing from the restored catalog";
      views.push_back(view);
    }
    RunResult answer =
        EvaluateOnCatalog(doc, opened->get(), e.query, views, e.algorithm);
    ASSERT_TRUE(answer.ok) << e.name << " " << e.label << ": " << answer.error;
    EXPECT_EQ(answer.match_count, e.match_count) << e.name << " " << e.label;
    EXPECT_EQ(answer.result_hash, e.result_hash) << e.name << " " << e.label;
  }
}

// ---- Crash matrix: mid-backup-copy -----------------------------------------

TEST(BackupCrashTest, CrashMidCopyLeavesSourceUntouchedAndImageTorn) {
  const std::string src = TempPath("bk_crash.db");
  const std::string img = TempPath("bk_crash_img");
  const std::string img_retry = TempPath("bk_crash_img_retry");
  CleanupStore(src);
  RemoveTree(img);
  RemoveTree(img_retry);

  xml::Document doc = MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))");
  EngineOptions options;
  options.persistent = true;
  Engine engine(&doc, src, options);
  const MaterializedView* v1 = engine.AddView("//a//b", Scheme::kLinkedElement);
  const MaterializedView* v2 = engine.AddView("//c", Scheme::kLinkedElement);
  const TreePattern query = MustParse("//a//b//c");
  RunResult reference = engine.Execute(query, {v1, v2});
  ASSERT_TRUE(reference.ok) << reference.error;

  const std::string store_before = FileBytes(src);
  const std::string manifest_before = FileBytes(ManifestJournal::PathFor(src));
  ASSERT_FALSE(store_before.empty());
  ASSERT_FALSE(manifest_before.empty());

  {
    ScopedFaultInjection fi;
    fi->ArmCrashPoint(CrashPoint::kCrashMidBackupCopy);
    util::StatusOr<BackupReport> crashed = engine.CreateBackup(img);
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kIoError);
    EXPECT_NE(crashed.status().ToString().find("injected crash"),
              std::string::npos)
        << crashed.status().ToString();
    EXPECT_EQ(fi->injected_crashes(), 1u);
  }

  // The source store is byte-identical: backup is strictly read-only over
  // the live files, even when it dies mid-page.
  EXPECT_EQ(FileBytes(src), store_before);
  EXPECT_EQ(FileBytes(ManifestJournal::PathFor(src)), manifest_before);

  // The torn image is recognizable (no backup.meta commit point) and never
  // verifies as a backup.
  EXPECT_FALSE(FileExists(img + "/" + storage::kBackupMetaName));
  EXPECT_FALSE(storage::IsBackupImageDir(img));
  util::StatusOr<BackupReport> verified = storage::VerifyBackupImage(img);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kNotFound);

  // The engine keeps serving, and a fresh backup attempt succeeds.
  RunResult after = engine.Execute(query, {v1, v2});
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.result_hash, reference.result_hash);
  util::StatusOr<BackupReport> retried = engine.CreateBackup(img_retry);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_TRUE(storage::VerifyBackupImage(img_retry).ok());
}

// ---- ENOSPC hardening ------------------------------------------------------

// Satellite regression: an injected kNoSpace mid-checkpoint-compaction must
// leave the old journal byte-identical and replayable — compaction promises
// "the original journal is intact until the rename", and a full disk is one
// of the ways the rewrite dies.
TEST(EnospcTest, CheckpointCompactionEnospcLeavesOldJournalIntact) {
  xml::Document doc = MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))");
  const std::string path = TempPath("enospc_ckpt.db");
  CleanupStore(path);
  ViewCatalog catalog(path, 64, /*persistent=*/true);
  catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
  catalog.Materialize(doc, MustParse("//c"), Scheme::kElement);
  const std::string journal_path = ManifestJournal::PathFor(path);
  const std::string journal_before = FileBytes(journal_path);
  ASSERT_FALSE(journal_before.empty());

  {
    ScopedFaultInjection fi;
    fi->ArmDiskBudget(0);
    util::Status checkpointed = catalog.Checkpoint();
    ASSERT_FALSE(checkpointed.ok());
    EXPECT_EQ(checkpointed.code(), StatusCode::kResourceExhausted)
        << checkpointed.ToString();
    EXPECT_GE(fi->injected_no_space_faults(), 1u);
  }

  // Old journal untouched, no checkpoint tmp left behind, and the store
  // still replays: compaction failed clean.
  EXPECT_EQ(FileBytes(journal_path), journal_before);
  EXPECT_FALSE(FileExists(path + ".manifest.tmp"));

  // With space back, the same catalog compacts fine and reopens with both
  // views.
  EXPECT_TRUE(catalog.Checkpoint().ok());
  EXPECT_TRUE(catalog.Close().ok());
  auto opened = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->views().size(), 2u);
}

// Write-site matrix: with the free-space injector armed at several budgets,
// every failing operation — manifest appends, pager page appends (view
// installs and update batches) — must surface as a typed
// ResourceExhausted, leave no orphan files, and keep reads serving. fsck
// vouches for the store afterwards at every budget.
TEST(EnospcTest, WriteSiteMatrixFailsTypedWithNoOrphans) {
  xml::Document fragment = MakeDoc("a(b(c))");
  const xml::SubtreeSpec frag_spec = xml::SpecFromDocument(fragment);

  const uint64_t budgets[] = {0, Pager::kPhysicalPageSize,
                              8 * Pager::kPhysicalPageSize,
                              64 * Pager::kPhysicalPageSize};
  for (uint64_t budget : budgets) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    xml::Document doc = MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))");
    ASSERT_TRUE(doc.RelabelWithGap(64).ok());
    const std::string path = TempPath("enospc_matrix.db");
    CleanupStore(path);
    uint64_t no_space_seen = 0;
    {
      EngineOptions options;
      options.persistent = true;
      Engine engine(&doc, path, options);
      const MaterializedView* v1 =
          engine.AddView("//a//b", Scheme::kLinkedElement);
      const MaterializedView* v2 = engine.AddView("//c", Scheme::kLinkedElement);
      const TreePattern query = MustParse("//a//b//c");
      RunResult reference = engine.Execute(query, {v1, v2});
      ASSERT_TRUE(reference.ok) << reference.error;

      ScopedFaultInjection fi;
      fi->ArmDiskBudget(budget);

      // Pager append + manifest append site: a new view materialization.
      auto added = engine.TryAddView("//x//b", Scheme::kElement);
      if (!added.ok()) {
        EXPECT_EQ(added.status().code(), StatusCode::kResourceExhausted)
            << added.status().ToString();
      }
      // Update batch site: delta merge, doc mutation journaling, installs.
      UpdateOp op;
      op.kind = UpdateOp::Kind::kInsertSubtree;
      op.target_tag = "r";
      op.target_start = doc.NodeLabel(doc.Root()).start;
      op.subtree = frag_spec;
      auto updated = engine.ApplyUpdates({op});
      if (!updated.ok()) {
        EXPECT_EQ(updated.status().code(), StatusCode::kResourceExhausted)
            << updated.status().ToString();
      }
      no_space_seen = fi->injected_no_space_faults();

      // Reads keep serving through a full disk — degrade like corruption,
      // not crash. (The answer may legitimately include the batch if it
      // committed within budget; with budget 0 nothing committed.)
      RunResult under_pressure = engine.Execute(query, {v1, v2});
      ASSERT_TRUE(under_pressure.ok) << under_pressure.error;
      if (budget == 0) {
        EXPECT_FALSE(added.ok());
        EXPECT_FALSE(updated.ok());
        EXPECT_EQ(under_pressure.result_hash, reference.result_hash);
      }
      fi->DisarmDiskBudget();
    }
    if (budget == 0) {
      EXPECT_GE(no_space_seen, 1u);
    }

    // Nothing beside the store and its journal; fsck finds a clean store.
    EXPECT_EQ(testing::SiblingFiles(path, "."),
              std::vector<std::string>{
                  std::filesystem::path(path).filename().string() +
                  ".manifest"});
    storage::FsckCatalogReport fsck = storage::FsckCatalog(path);
    EXPECT_FALSE(fsck.corrupt());
    EXPECT_FALSE(fsck.repair_needed());
    auto opened = ViewCatalog::Open(path, 64);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  }
}

TEST(EnospcTest, BackupCreateEnospcLeavesNoPartialImage) {
  const std::string src = TempPath("enospc_backup.db");
  const std::string img = TempPath("enospc_backup_img");
  CleanupStore(src);
  RemoveTree(img);

  xml::Document doc = MakeDoc("r(a(b(c)) a(b(c)))");
  EngineOptions options;
  options.persistent = true;
  Engine engine(&doc, src, options);
  engine.AddView("//a//b", Scheme::kLinkedElement);

  {
    ScopedFaultInjection fi;
    fi->ArmDiskBudget(0);
    util::StatusOr<BackupReport> report = engine.CreateBackup(img);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted)
        << report.status().ToString();
  }

  // A failed backup cleans up after itself: no meta, no copied store — the
  // directory is reusable once space is back.
  EXPECT_FALSE(FileExists(img + "/" + storage::kBackupMetaName));
  EXPECT_FALSE(FileExists(img + "/" + std::string(storage::kBackupStoreName)));
  EXPECT_FALSE(storage::IsBackupImageDir(img));
  util::StatusOr<BackupReport> retried = engine.CreateBackup(img);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_TRUE(storage::VerifyBackupImage(img).ok());
}

// ---- Server: idempotency tokens and the backup admin frame -----------------

using server::BackupRequest;
using server::BackupResponse;
using server::Client;
using server::QueryRequest;
using server::QueryResponse;
using server::QueryServer;
using server::ServerOptions;
using server::StatusResponse;
using server::UpdateRequest;
using server::UpdateResponse;
using server::Verdict;

/// `groups` independent a(b(c)) subtrees under r: //a//b//c matches
/// `groups` times. Relabelled with a gap so inserts never trigger a
/// relabel (token tests address nodes by stable coordinates).
xml::Document GroupDoc(int groups) {
  xml::Document doc;
  doc.StartElement("r");
  for (int i = 0; i < groups; ++i) {
    doc.StartElement("a");
    doc.StartElement("b");
    doc.StartElement("c");
    doc.EndElement();
    doc.EndElement();
    doc.EndElement();
  }
  doc.EndElement();
  return doc;
}

struct ServerFixture {
  explicit ServerFixture(int groups, ServerOptions options = {},
                         const std::string& name = "backup_server.db")
      : doc(GroupDoc(groups)) {
    EXPECT_TRUE(doc.RelabelWithGap(64).ok());
    CleanupStore(TempPath(name));
    EngineOptions engine_options;
    engine_options.persistent = true;
    engine = std::make_unique<Engine>(&doc, TempPath(name), engine_options);
    server = std::make_unique<QueryServer>(engine.get(), options);
    util::Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~ServerFixture() {
    if (server != nullptr) server->Drain();
  }

  Client Connected() {
    Client client;
    util::Status status = client.Connect("127.0.0.1", server->port(), 5000);
    EXPECT_TRUE(status.ok()) << status.ToString();
    client.set_deadline_ms(20000);
    return client;
  }

  UpdateRequest InsertGroupRequest(const std::string& token) {
    UpdateRequest request;
    request.token = token;
    UpdateRequest::Op op;
    op.kind = 0;  // insert
    op.target_tag = "r";
    op.target_start = doc.NodeLabel(doc.Root()).start;
    op.fragment = "<a><b><c/></b></a>";
    request.ops.push_back(op);
    return request;
  }

  uint64_t QueryCount(Client& client) {
    QueryRequest request;
    request.query = "//a//b//c";
    request.views = {"//a//b", "//c"};
    request.scheme = "LE";
    request.algorithm = "VJ";
    util::StatusOr<QueryResponse> response = client.Query(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) return 0;
    EXPECT_EQ(response->verdict, Verdict::kOk) << response->error;
    return response->match_count;
  }

  xml::Document doc;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<QueryServer> server;
};

TEST(ServerIdempotencyTest, RetriedTokenedUpdateAppliesExactlyOnce) {
  ServerFixture fx(8, {}, "idem_once.db");
  Client client = fx.Connected();
  ASSERT_EQ(fx.QueryCount(client), 8u);

  UpdateRequest request = fx.InsertGroupRequest("token-A");
  util::StatusOr<UpdateResponse> first = client.Update(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->verdict, Verdict::kOk) << first->error;
  EXPECT_EQ(first->applied, 1u);
  EXPECT_FALSE(first->relabeled);

  // The "client retry after a lost response": same token, same batch. The
  // server replays the committed response instead of applying again.
  util::StatusOr<UpdateResponse> retry = client.Update(request);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->verdict, Verdict::kOk) << retry->error;
  EXPECT_EQ(retry->applied, first->applied);
  EXPECT_EQ(retry->txn_epoch, first->txn_epoch);
  EXPECT_EQ(fx.server->Snapshot().update_dedup_hits, 1u);
  EXPECT_EQ(fx.QueryCount(client), 9u);  // applied once, not twice

  // A fresh token is new work.
  util::StatusOr<UpdateResponse> second =
      client.Update(fx.InsertGroupRequest("token-B"));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->verdict, Verdict::kOk) << second->error;
  EXPECT_EQ(fx.QueryCount(client), 10u);
}

TEST(ServerIdempotencyTest, DedupWindowEvictsOldestToken) {
  ServerOptions options;
  options.update_dedup_window = 1;
  ServerFixture fx(4, options, "idem_window.db");
  Client client = fx.Connected();

  ASSERT_TRUE(client.Update(fx.InsertGroupRequest("tok-1")).ok());
  // tok-2 evicts tok-1 from the single-slot window...
  ASSERT_TRUE(client.Update(fx.InsertGroupRequest("tok-2")).ok());
  // ...so a replay of tok-1 is no longer recognized and applies again.
  util::StatusOr<UpdateResponse> replay =
      client.Update(fx.InsertGroupRequest("tok-1"));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->verdict, Verdict::kOk) << replay->error;
  EXPECT_EQ(fx.server->Snapshot().update_dedup_hits, 0u);
  EXPECT_EQ(fx.QueryCount(client), 7u);  // 4 + 3 applied inserts
}

TEST(ServerBackupTest, BackupFrameUsesConfiguredDirAndCountsInStatus) {
  const std::string img = TempPath("srv_backup_img");
  const std::string img2 = TempPath("srv_backup_img2");
  RemoveTree(img);
  RemoveTree(img2);
  ServerOptions options;
  options.backup_dir = img;
  ServerFixture fx(8, options, "srv_backup.db");
  Client client = fx.Connected();
  ASSERT_EQ(fx.QueryCount(client), 8u);  // materialize something to back up

  // "" = use the server's configured --backup-dir.
  util::StatusOr<BackupResponse> response = client.TriggerBackup("");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->verdict, Verdict::kOk) << response->error;
  EXPECT_EQ(response->directory, img);
  EXPECT_GT(response->epoch, 0u);
  EXPECT_GT(response->view_pages, 0u);
  EXPECT_GT(response->bytes_copied, 0u);
  ASSERT_TRUE(storage::VerifyBackupImage(img).ok());

  // An explicit destination overrides the configured one.
  util::StatusOr<BackupResponse> explicit_dir = client.TriggerBackup(img2);
  ASSERT_TRUE(explicit_dir.ok()) << explicit_dir.status().ToString();
  ASSERT_EQ(explicit_dir->verdict, Verdict::kOk) << explicit_dir->error;
  EXPECT_EQ(explicit_dir->directory, img2);

  // Re-backup into an existing image is a typed failure the status surfaces.
  util::StatusOr<BackupResponse> refused = client.TriggerBackup(img);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->verdict, Verdict::kError);
  EXPECT_FALSE(refused->error.empty());

  StatusResponse status = fx.server->Snapshot();
  EXPECT_EQ(status.backups_completed, 2u);
  EXPECT_EQ(status.backups_failed, 1u);
  EXPECT_FALSE(status.last_backup_error.empty());
}

TEST(ServerBackupTest, BackupWithoutAnyDirIsTypedAndDrainRefusesBackups) {
  ServerFixture fx(4, {}, "srv_backup_nodir.db");
  BackupResponse none = fx.server->TriggerBackup("");
  EXPECT_EQ(none.verdict, Verdict::kError);
  EXPECT_NE(none.error.find("no backup directory"), std::string::npos)
      << none.error;

  EXPECT_TRUE(fx.server->Drain());
  BackupResponse draining =
      fx.server->TriggerBackup(TempPath("srv_backup_late_img"));
  EXPECT_EQ(draining.verdict, Verdict::kShuttingDown);
}

// ---- Wire round trips for the new frames and fields ------------------------

TEST(BackupWireTest, UpdateTokenRoundTripsAndOversizedTokenIsMalformed) {
  UpdateRequest in;
  in.tenant = "t";
  in.token = "retry-token-0123456789abcdef";
  UpdateRequest::Op op;
  op.kind = 0;
  op.target_tag = "r";
  op.target_start = 7;
  op.fragment = "<a/>";
  in.ops.push_back(op);

  std::string payload = server::EncodeUpdateRequest(in);
  UpdateRequest out;
  ASSERT_TRUE(server::DecodeUpdateRequest(payload, &out).ok());
  EXPECT_EQ(out.token, in.token);
  EXPECT_EQ(out.ops.size(), 1u);

  in.token.assign(129, 'x');
  std::string oversized = server::EncodeUpdateRequest(in);
  UpdateRequest rejected;
  util::Status decoded = server::DecodeUpdateRequest(oversized, &rejected);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.ToString().find("token"), std::string::npos)
      << decoded.ToString();
}

TEST(BackupWireTest, BackupFramesRoundTrip) {
  BackupRequest request;
  request.dest_dir = "/backups/nightly";
  std::string payload = server::EncodeBackupRequest(request);
  ASSERT_EQ(*server::PeekType(payload), server::MsgType::kBackupRequest);
  BackupRequest decoded_request;
  ASSERT_TRUE(server::DecodeBackupRequest(payload, &decoded_request).ok());
  EXPECT_EQ(decoded_request.dest_dir, request.dest_dir);

  BackupResponse response;
  response.verdict = Verdict::kOk;
  response.directory = "/backups/nightly";
  response.epoch = 42;
  response.view_pages = 17;
  response.bytes_copied = 123456;
  response.server_ms = 3.5;
  std::string response_payload = server::EncodeBackupResponse(response);
  ASSERT_EQ(*server::PeekType(response_payload),
            server::MsgType::kBackupResponse);
  BackupResponse decoded_response;
  ASSERT_TRUE(
      server::DecodeBackupResponse(response_payload, &decoded_response).ok());
  EXPECT_EQ(decoded_response.verdict, Verdict::kOk);
  EXPECT_EQ(decoded_response.directory, response.directory);
  EXPECT_EQ(decoded_response.epoch, 42u);
  EXPECT_EQ(decoded_response.view_pages, 17u);
  EXPECT_EQ(decoded_response.bytes_copied, 123456u);
  EXPECT_DOUBLE_EQ(decoded_response.server_ms, 3.5);
}

TEST(BackupWireTest, StatusResponseCarriesBackupAndDedupCounters) {
  StatusResponse in;
  in.backups_completed = 3;
  in.backups_failed = 1;
  in.update_dedup_hits = 5;
  in.resource_exhausted = 2;
  in.last_backup_error = "disk full";
  std::string payload = server::EncodeStatusResponse(in);
  StatusResponse out;
  ASSERT_TRUE(server::DecodeStatusResponse(payload, &out).ok());
  EXPECT_EQ(out.backups_completed, 3u);
  EXPECT_EQ(out.backups_failed, 1u);
  EXPECT_EQ(out.update_dedup_hits, 5u);
  EXPECT_EQ(out.resource_exhausted, 2u);
  EXPECT_EQ(out.last_backup_error, "disk full");
}

}  // namespace
}  // namespace viewjoin
