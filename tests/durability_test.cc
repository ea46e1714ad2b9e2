// Crash safety of the view store. The crash matrix simulates kill -9 at
// every instant of the journaled install protocol (data synced / journal
// record torn), reopens the store, and asserts recovery leaves exactly the
// committed catalog: no files beside the pager file and its journal, no
// uncommitted pages, identical query answers, and the interrupted view
// re-queued for rebuilding. Around the matrix: manifest journal torn-tail
// vs. bit-rot handling, refusal of text and foreign-version journals, the
// integrity scrubber (detect + heal, alone and under concurrent batch
// queries), close-time flush surfacing, and the offline fsck/repair
// pipeline.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "algo/query_binding.h"
#include "algo/twig_stack.h"
#include "core/engine.h"
#include "storage/fsck.h"
#include "storage/manifest.h"
#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "storage/scrubber.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace viewjoin {
namespace {

using core::Engine;
using storage::FsckCatalog;
using storage::FsckCatalogReport;
using storage::ManifestJournal;
using storage::MaterializedView;
using storage::Pager;
using storage::RecoveryReport;
using storage::RepairCatalog;
using storage::Scheme;
using storage::Scrubber;
using storage::ViewCatalog;
using testing::MakeDoc;
using testing::MustParse;
using tpq::TreePattern;
using util::CrashPoint;
using util::CrashPointName;
using util::ScopedFaultInjection;
using util::StatusCode;
using util::WriteFault;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

/// Removes the store's files plus a checkpoint tmp a previous (failed) test
/// run may have parked in the shared temp directory.
void CleanupStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  std::remove((path + ".manifest.tmp").c_str());
}

/// What testing::SiblingFiles(path, ".") holds for a store with no
/// leftovers: its manifest journal alone.
std::vector<std::string> JournalOnly(const std::string& path) {
  return {std::filesystem::path(path).filename().string() + ".manifest"};
}

/// Fingerprints the answer of `query` evaluated over `views` in `catalog`.
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

xml::Document CrashDoc() {
  return MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))");
}

// ---- Crash matrix ----------------------------------------------------------

struct CrashCase {
  CrashPoint point;
  Scheme scheme;
};

std::string CrashCaseName(const ::testing::TestParamInfo<CrashCase>& info) {
  std::string point = CrashPointName(info.param.point);
  for (char& c : point) {
    if (c == '-') c = '_';
  }
  return point + "_" + storage::SchemeName(info.param.scheme);
}

class CrashMatrixTest : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashMatrixTest, ReopenAfterCrashMatchesCleanRun) {
  const CrashCase param = GetParam();
  xml::Document doc = CrashDoc();
  const TreePattern base_query = MustParse("//c");
  const std::string target = "//a//b";

  // Reference run, no faults: the target view's metadata and the base
  // query's answer over a store where both installs committed.
  const std::string clean_path =
      TempPath(std::string("crash_clean_") + CrashCaseName({param, 0}) + ".db");
  CleanupStore(clean_path);
  uint64_t ref_match = 0, ref_size = 0, ref_hash = 0;
  {
    ViewCatalog clean(clean_path, 64, /*persistent=*/true);
    const MaterializedView* base =
        clean.Materialize(doc, base_query, Scheme::kLinkedElement);
    const MaterializedView* built =
        clean.Materialize(doc, MustParse(target), param.scheme);
    ref_match = built->MatchCount();
    ref_size = built->SizeBytes();
    ref_hash = QueryHash(doc, &clean, base_query, {base});
  }

  const std::string path =
      TempPath(std::string("crash_") + CrashCaseName({param, 0}) + ".db");
  CleanupStore(path);

  // The victim store: one committed view, then a crash mid-way through
  // installing the second. kCrashMidJournal arms the *second* journal append
  // (the install commit record) — tearing the Begin instead would roll the
  // whole operation back before it left any trace.
  {
    ViewCatalog victim(path, 64, /*persistent=*/true);
    victim.Materialize(doc, base_query, Scheme::kLinkedElement);
    ScopedFaultInjection fi;
    fi->ArmCrashPoint(param.point,
                      param.point == CrashPoint::kCrashMidJournal ? 2 : 1);
    auto failed = victim.TryMaterialize(doc, MustParse(target), param.scheme);
    ASSERT_FALSE(failed.ok()) << CrashPointName(param.point);
    EXPECT_NE(failed.status().message().find("injected crash"),
              std::string::npos)
        << failed.status().ToString();
    EXPECT_EQ(fi->injected_crashes(), 1u);
    // The catalog object goes out of scope with the on-disk mid-flight state
    // a real crash would leave; recovery gets no help from this process.
  }

  // Reopen: recovery rolls the store back to the last committed state.
  auto reopened = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(reopened.ok()) << CrashPointName(param.point) << ": "
                             << reopened.status().ToString();
  ViewCatalog& catalog = **reopened;

  EXPECT_EQ(testing::SiblingFiles(path, "."), JournalOnly(path))
      << CrashPointName(param.point);
  const RecoveryReport& recovery = catalog.recovery_report();
  ASSERT_EQ(recovery.pending_rebuild.size(), 1u) << CrashPointName(param.point);
  EXPECT_EQ(recovery.pending_rebuild[0].first, target);
  EXPECT_EQ(recovery.pending_rebuild[0].second, param.scheme);
  if (param.point == CrashPoint::kCrashAfterDataSync) {
    // Data reached the file but the commit record did not: the uncommitted
    // pages are rolled back, not adopted.
    EXPECT_GT(recovery.orphan_pages_truncated, 0u);
  }

  // Only the committed view survived, and it still answers identically.
  ASSERT_EQ(catalog.views().size(), 1u) << CrashPointName(param.point);
  const MaterializedView* base = catalog.views()[0].get();
  EXPECT_EQ(base->pattern().ToString(), "//c");
  EXPECT_TRUE(catalog.VerifyView(base).ok());
  EXPECT_EQ(QueryHash(doc, &catalog, base_query, {base}), ref_hash);

  // Re-materializing the rolled-back view converges to the clean run.
  auto rebuilt = catalog.TryMaterialize(doc, MustParse(target), param.scheme);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ((*rebuilt)->MatchCount(), ref_match);
  EXPECT_EQ((*rebuilt)->SizeBytes(), ref_size);
  EXPECT_TRUE(catalog.VerifyView(*rebuilt).ok());
  EXPECT_TRUE(catalog.Close().ok());

  // The rebuild itself committed: a second reopen sees both views.
  auto again = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->views().size(), 2u);
  EXPECT_TRUE((*again)->recovery_report().pending_rebuild.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllPointsAllSchemes, CrashMatrixTest,
    ::testing::Values(
        CrashCase{CrashPoint::kCrashAfterDataSync, Scheme::kElement},
        CrashCase{CrashPoint::kCrashAfterDataSync, Scheme::kLinkedElement},
        CrashCase{CrashPoint::kCrashAfterDataSync,
                  Scheme::kLinkedElementPartial},
        CrashCase{CrashPoint::kCrashAfterDataSync, Scheme::kTuple},
        CrashCase{CrashPoint::kCrashMidJournal, Scheme::kElement},
        CrashCase{CrashPoint::kCrashMidJournal, Scheme::kLinkedElement},
        CrashCase{CrashPoint::kCrashMidJournal, Scheme::kLinkedElementPartial},
        CrashCase{CrashPoint::kCrashMidJournal, Scheme::kTuple}),
    CrashCaseName);

// ---- Manifest journal edge cases -------------------------------------------

TEST(ManifestJournalTest, TornTailIsRecoveredNotFatal) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("torn_tail.db");
  CleanupStore(path);
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    catalog.Materialize(doc, MustParse("//c"), Scheme::kElement);
  }
  // A crash mid-append: a length prefix promising more bytes than exist.
  {
    std::FILE* f = std::fopen((path + ".manifest").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint32_t length = 100;
    std::fwrite(&length, sizeof(length), 1, f);
    const uint8_t type = 2;
    std::fwrite(&type, 1, 1, f);
    std::fwrite("partial", 1, 7, f);
    std::fclose(f);
  }
  auto opened = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE((*opened)->recovery_report().journal_tail_truncated);
  EXPECT_EQ((*opened)->views().size(), 2u);
  EXPECT_TRUE((*opened)->recovery_report().pending_rebuild.empty());
  EXPECT_TRUE((*opened)->Close().ok());
  // The tail was truncated away on the first open: the second is clean.
  auto again = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE((*again)->recovery_report().journal_tail_truncated);
}

TEST(ManifestJournalTest, MidFileCorruptionIsFatal) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("journal_rot.db");
  CleanupStore(path);
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    catalog.Materialize(doc, MustParse("//c"), Scheme::kElement);
  }
  // Flip one byte inside the first record's payload (past the 16-byte
  // journal header and the record's own length/type prefix). A *complete*
  // record failing its CRC is bit rot, not a crash: replay must refuse.
  {
    std::FILE* f = std::fopen((path + ".manifest").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 16 + 5 + 2, SEEK_SET), 0);
    int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, 16 + 5 + 2, SEEK_SET), 0);
    std::fputc(byte ^ 0x40, f);
    std::fclose(f);
  }
  auto opened = ViewCatalog::Open(path, 64);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
}

TEST(ManifestJournalTest, TextManifestIsRefused) {
  // A "VIEWJOINCAT" plain-text manifest predates the journal, a v1 journal
  // header names a list encoding no writer emits any more, and a list whose
  // format byte is 0 holds fixed-size records no reader decodes. No store in
  // any of these formats exists, so none gets a converter: Open refuses them
  // typed and fsck reports them corrupt.
  struct Input {
    const char* name;
    const char* expected_message;
  };
  const Input inputs[] = {{"text", "bad or truncated header"},
                          {"v1-header", "header fails validation"},
                          {"fixed-list", "does not decode"}};
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    xml::Document doc = CrashDoc();
    std::string path = TempPath(std::string("refused_") + input.name + ".db");
    CleanupStore(path);
    {
      ViewCatalog catalog(path, 64, /*persistent=*/true);
      catalog.Materialize(doc, MustParse("//a//b"), Scheme::kElement);
      ASSERT_TRUE(catalog.Close().ok());
    }
    const std::string journal = path + ".manifest";
    if (std::string(input.name) == "text") {
      std::FILE* f = std::fopen(journal.c_str(), "w");
      ASSERT_NE(f, nullptr);
      std::fputs("VIEWJOINCAT 1 1\nV 0 //a//b\nM 1 12 0\nG 1 1\nL 2\n", f);
      std::fclose(f);
    } else if (std::string(input.name) == "fixed-list") {
      // The install record's first element list says format 0, with the
      // record CRC recomputed: it frames and checksums fine, only the
      // format is one no reader handles.
      std::FILE* f = std::fopen(journal.c_str(), "r+b");
      ASSERT_NE(f, nullptr);
      std::vector<uint8_t> bytes(1 << 16);
      bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
      bool patched = false;
      for (size_t pos = 16; pos + 5 <= bytes.size() && !patched;) {
        uint32_t len;
        std::memcpy(&len, &bytes[pos], 4);
        uint8_t* payload = &bytes[pos + 5];
        if (bytes[pos + 4] ==
            static_cast<uint8_t>(storage::ManifestRecordType::kInstall)) {
          // epoch, scheme, pattern, three counters and page_count_after;
          // then the empty tuple list (26 bytes), the list count, and the
          // first list's page, count and layout (17 bytes).
          uint16_t pattern_len;
          std::memcpy(&pattern_len, payload + 9, 2);
          const size_t format_at = 39 + pattern_len + 26 + 4 + 17;
          ASSERT_EQ(payload[format_at], 1);
          payload[format_at] = 0;
          const uint32_t crc = util::Crc32(&bytes[pos + 4], len + 1);
          std::memcpy(payload + len, &crc, 4);
          patched = true;
        }
        pos += 5 + len + 4;
      }
      ASSERT_TRUE(patched);
      ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
      std::fclose(f);
    } else {
      // Version 1 with a header CRC that matches it: only the version is
      // wrong, so the refusal cannot come from the checksum.
      std::FILE* f = std::fopen(journal.c_str(), "r+b");
      ASSERT_NE(f, nullptr);
      uint8_t header[16];
      ASSERT_EQ(std::fread(header, 1, sizeof(header), f), sizeof(header));
      const uint32_t version = 1;
      std::memcpy(header + 8, &version, 4);
      const uint32_t crc = util::Crc32(header, 12);
      std::memcpy(header + 12, &crc, 4);
      ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
      ASSERT_EQ(std::fwrite(header, 1, sizeof(header), f), sizeof(header));
      std::fclose(f);
    }
    auto opened = ViewCatalog::Open(path, 64);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
    EXPECT_NE(opened.status().message().find(input.expected_message),
              std::string::npos)
        << opened.status().ToString();

    FsckCatalogReport report = FsckCatalog(path);
    EXPECT_EQ(report.manifest_status.code(), StatusCode::kCorruption);
    EXPECT_TRUE(report.corrupt());
    EXPECT_FALSE(report.clean());
    // The command-line verdict: exit 1 (corrupt), not 0 and not an empty OK.
    const std::string command =
        std::string(VJ_FSCK_BIN) + " --quiet " + path;
    int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 1) << command;
  }
}

TEST(ManifestJournalTest, CheckpointSurvivesHeaderShortWrite) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("ckpt_short.db");
  CleanupStore(path);
  ViewCatalog catalog(path, 64, /*persistent=*/true);
  catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
  {
    ScopedFaultInjection fi;
    fi->ArmHeaderWriteFault(WriteFault::kShortWrite, 1);
    util::Status checkpointed = catalog.Checkpoint();
    EXPECT_FALSE(checkpointed.ok());
  }
  // The failed checkpoint must not have replaced the live journal: the store
  // reopens with the view intact (and no stray checkpoint tmp file).
  EXPECT_TRUE(catalog.Close().ok());
  struct stat st;
  EXPECT_NE(::stat((path + ".manifest.tmp").c_str(), &st), 0);
  auto opened = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->views().size(), 1u);
}

TEST(ManifestJournalTest, EpochResumesAcrossReopen) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("epoch_resume.db");
  CleanupStore(path);
  uint64_t epoch_before = 0;
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    catalog.Materialize(doc, MustParse("//c"), Scheme::kElement);
    epoch_before = catalog.epoch();
    EXPECT_GE(epoch_before, 2u);
  }
  auto opened = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(opened.ok());
  // Plan-cache keys stay monotone across the restart: the epoch counter
  // resumes at (not below) the last journaled epoch, and new installs
  // advance it further.
  EXPECT_EQ((*opened)->epoch(), epoch_before);
  auto added =
      (*opened)->TryMaterialize(doc, MustParse("//b//c"), Scheme::kElement);
  ASSERT_TRUE(added.ok());
  EXPECT_GT((*opened)->epoch(), epoch_before);
  EXPECT_EQ((*added)->epoch(), (*opened)->epoch());
}

// ---- Close-time flush surfacing --------------------------------------------

TEST(CloseTest, FlushFailureSurfacesThroughCatalogClose) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("close_flush.db");
  CleanupStore(path);
  ViewCatalog catalog(path, 64, /*persistent=*/true);
  catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
  ScopedFaultInjection fi;
  fi->ArmFlushFault(1);
  util::Status closed = catalog.Close();
  ASSERT_FALSE(closed.ok());
  EXPECT_NE(closed.message().find("flush"), std::string::npos)
      << closed.ToString();
  // The verdict is latched, not swallowed: repeat closes and the pager's own
  // accessor keep reporting it.
  EXPECT_FALSE(catalog.Close().ok());
  EXPECT_FALSE(catalog.pager()->LastFlushStatus().ok());
}

// ---- Scrubber ---------------------------------------------------------------

TEST(ScrubberTest, DetectsQuarantinesAndHealsCorruptView) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("scrub_heal.db");
  Engine engine(&doc, path);
  const MaterializedView* ab =
      engine.AddView("//a//b", Scheme::kLinkedElement);
  const MaterializedView* c = engine.AddView("//c", Scheme::kLinkedElement);
  TreePattern query = MustParse("//a//b//c");
  core::RunResult clean = engine.Execute(query, {ab, c});
  ASSERT_TRUE(clean.ok) << clean.error;

  // Rot one of ab's pages behind the pool's back (checksum made stale by an
  // injected bit flip), then drop caches so nothing shields the disk state.
  {
    ScopedFaultInjection fi;
    fi->ArmWriteFault(WriteFault::kBitFlip, 1);
    std::vector<uint8_t> zeros(Pager::kPageSize, 0);
    ASSERT_TRUE(engine.catalog()
                    ->pager()
                    ->WritePage(ab->list(0).first_page, zeros.data())
                    .ok());
  }
  engine.catalog()->DropCaches();

  // One synchronous full pass: the scrubber (not a query) finds the rot,
  // quarantines the view and heals it through the engine's healer.
  uint32_t scanned = engine.scrubber()->Step(100000);
  EXPECT_GT(scanned, 0u);
  storage::ScrubStats stats = engine.scrubber()->stats();
  EXPECT_GE(stats.corrupt_pages, 1u);
  EXPECT_EQ(stats.views_quarantined, 1u);
  EXPECT_EQ(stats.views_healed, 1u);
  EXPECT_EQ(stats.heal_failures, 0u);
  EXPECT_TRUE(engine.catalog()->IsQuarantined(ab));
  ASSERT_NE(engine.catalog()->ReplacementFor(ab), nullptr);

  // Queries arriving after the proactive heal never see the bad pages: the
  // planner redirects to the replacement and the run is NOT degraded.
  core::RunResult result = engine.Execute(query, {ab, c});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.result_hash, clean.result_hash);
  EXPECT_EQ(result.match_count, clean.match_count);
  EXPECT_FALSE(result.degraded);
  EXPECT_TRUE(result.quarantined_views.empty());
  // Scrub counters ride along in the result for --explain.
  EXPECT_EQ(result.scrub.views_healed, 1u);
  EXPECT_GE(result.scrub.pages_scanned, static_cast<uint64_t>(scanned));
}

TEST(ScrubberTest, StepResumesAcrossBudgetedCalls) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("scrub_budget.db");
  Engine engine(&doc, path);
  engine.AddView("//a//b", Scheme::kLinkedElement);
  engine.AddView("//c", Scheme::kLinkedElement);
  engine.AddView("//a//b//c", Scheme::kTuple);

  // Tiny budget: many steps per pass, with the cursor carrying across calls.
  uint64_t passes_before = engine.scrubber()->stats().full_passes;
  uint32_t total = 0;
  for (int i = 0; i < 1000 && engine.scrubber()->stats().full_passes ==
                                  passes_before;
       ++i) {
    total += engine.scrubber()->Step(1);
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(engine.scrubber()->stats().full_passes, passes_before + 1);
  EXPECT_EQ(engine.scrubber()->stats().corrupt_pages, 0u);
}

TEST(ScrubberTest, BackgroundScrubWithConcurrentBatchQueries) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("scrub_batch.db");
  core::EngineOptions options;
  Engine engine(&doc, path, options);
  const MaterializedView* ab =
      engine.AddView("//a//b", Scheme::kLinkedElement);
  const MaterializedView* c = engine.AddView("//c", Scheme::kLinkedElement);
  TreePattern query = MustParse("//a//b//c");
  core::RunResult clean = engine.Execute(query, {ab, c});
  ASSERT_TRUE(clean.ok);

  // A fast background scrubber races real batch traffic over healthy views:
  // every query must stay clean and bit-identical (this is the tsan target
  // for scrubber-vs-query interleavings).
  engine.scrubber()->Start(std::chrono::milliseconds(1), 16);
  EXPECT_TRUE(engine.scrubber()->running());
  for (int round = 0; round < 5; ++round) {
    std::vector<core::BatchQuery> batch(8);
    for (core::BatchQuery& q : batch) {
      q.query = &query;
      q.views = {ab, c};
    }
    core::BatchOptions batch_options;
    batch_options.threads = 4;
    std::vector<core::RunResult> results =
        engine.ExecuteBatch(batch, batch_options);
    for (const core::RunResult& r : results) {
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.result_hash, clean.result_hash);
    }
  }
  engine.scrubber()->Stop();
  EXPECT_FALSE(engine.scrubber()->running());
  EXPECT_EQ(engine.scrubber()->stats().views_quarantined, 0u);
}

// ---- fsck / repair ----------------------------------------------------------

TEST(FsckCatalogTest, CleanStoreReportsClean) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("fsck_clean.db");
  CleanupStore(path);
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    catalog.Materialize(doc, MustParse("//c"), Scheme::kElement);
  }
  FsckCatalogReport report = FsckCatalog(path);
  EXPECT_TRUE(report.clean()) << report.manifest_status.ToString();
  EXPECT_FALSE(report.corrupt());
  EXPECT_FALSE(report.repair_needed());
  EXPECT_EQ(report.view_count, 2u);
  EXPECT_EQ(report.quarantined_count, 0u);
  EXPECT_GE(report.last_epoch, 2u);
  EXPECT_GT(report.durable_page_count, 0u);
}

TEST(FsckCatalogTest, CrashArtifactsAreFlaggedAndRepaired) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("fsck_repair.db");
  CleanupStore(path);
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//c"), Scheme::kLinkedElement);
    ScopedFaultInjection fi;
    fi->ArmCrashPoint(CrashPoint::kCrashAfterDataSync);
    auto failed =
        catalog.TryMaterialize(doc, MustParse("//a//b"), Scheme::kElement);
    ASSERT_FALSE(failed.ok());
  }
  FsckCatalogReport before = FsckCatalog(path);
  EXPECT_FALSE(before.clean());
  EXPECT_FALSE(before.corrupt());
  EXPECT_TRUE(before.repair_needed());
  EXPECT_GT(before.orphan_pages, 0u);
  EXPECT_FALSE(before.stale_checkpoint);
  EXPECT_EQ(before.pending_rebuild, 1u);
  EXPECT_EQ(before.corrupt_durable_pages, 0u);

  auto repaired = RepairCatalog(path);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_GT(repaired->orphan_pages_truncated, 0u);
  EXPECT_FALSE(repaired->stale_checkpoint_removed);
  ASSERT_EQ(repaired->pending_rebuild.size(), 1u);
  EXPECT_EQ(repaired->pending_rebuild[0].first, "//a//b");

  FsckCatalogReport after = FsckCatalog(path);
  EXPECT_TRUE(after.clean()) << after.manifest_status.ToString();
  EXPECT_EQ(after.view_count, 1u);
}

TEST(FsckCatalogTest, RottenDurablePageIsCorruptNotRepairable) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("fsck_rot.db");
  CleanupStore(path);
  storage::PageId victim_page = 0;
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    const MaterializedView* view =
        catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    victim_page = view->list(0).first_page;
    ScopedFaultInjection fi;
    fi->ArmWriteFault(WriteFault::kBitFlip, 1);
    std::vector<uint8_t> zeros(Pager::kPageSize, 0);
    ASSERT_TRUE(catalog.pager()->WritePage(victim_page, zeros.data()).ok());
  }
  FsckCatalogReport report = FsckCatalog(path);
  EXPECT_TRUE(report.corrupt());
  EXPECT_GE(report.corrupt_durable_pages, 1u);
  EXPECT_FALSE(report.clean());
}

// ---- Machine-readable fsck (vj_fsck --json) --------------------------------

TEST(FsckJsonTest, CatalogVerdictsTrackTheReport) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("fsck_json.db");
  CleanupStore(path);
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    ASSERT_TRUE(catalog.Close().ok());
  }
  std::string json = storage::ToJson(FsckCatalog(path));
  EXPECT_NE(json.find("\"clean\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"corrupt\": false"), std::string::npos);
  EXPECT_NE(json.find("\"repair_needed\": false"), std::string::npos);
  EXPECT_NE(json.find("\"view_count\": 1"), std::string::npos);

  // Tear the journal tail (crash artifact): the verdicts must flip to
  // repairable, and the specific finding must be named.
  {
    std::FILE* f = std::fopen((path + ".manifest").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint32_t length = 100;
    std::fwrite(&length, sizeof(length), 1, f);
    std::fclose(f);
  }
  json = storage::ToJson(FsckCatalog(path));
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"corrupt\": false"), std::string::npos);
  EXPECT_NE(json.find("\"repair_needed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"journal_tail_torn\": true"), std::string::npos);
}

TEST(FsckJsonTest, BarePagerReportEscapesStringsAndListsBadPages) {
  storage::FsckReport report;
  report.file_status = util::Status::Ok();
  report.page_count = 3;
  report.bad_pages.push_back(
      {1, util::Status::Corruption("bad \"footer\"\n")});
  std::string json = storage::ToJson(report);
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"page_count\": 3"), std::string::npos);
  EXPECT_NE(json.find("{\"page\": 1, \"error\": "), std::string::npos);
  // Quotes and newlines inside statuses arrive escaped, not raw.
  EXPECT_NE(json.find("\\\"footer\\\"\\n"), std::string::npos) << json;
}

}  // namespace
}  // namespace viewjoin
