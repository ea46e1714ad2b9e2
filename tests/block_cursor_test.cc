// Block-at-a-time cursor tests: the SIMD scan kernels against scalar
// references, the overflow-safe gallop helper, the delta codec round trip,
// randomized differential checks of delta and memory cursors against
// the naive evaluator's solution lists, the wide-fan-out materialization guard,
// abort soundness of the skip primitives, and fsck's verification of the
// compressed list format in view catalogs and document stores.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/document_store.h"
#include "storage/fsck.h"
#include "storage/list_codec.h"
#include "storage/list_search.h"
#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "storage/simd_scan.h"
#include "storage/stored_list.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/rng.h"

namespace viewjoin {
namespace {

using storage::BufferPool;
using storage::EntryIndex;
using storage::GallopLowerBound;
using storage::GallopResult;
using storage::kNullEntry;
using storage::ListCursor;
using storage::MaterializedView;
using storage::Pager;
using storage::RecordLayout;
using storage::Scheme;
using storage::SeekOutcome;
using storage::StoredList;
using storage::ViewCatalog;
using testing::MustParse;
using xml::Label;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// ---- SIMD scan kernels ------------------------------------------------------

TEST(SimdScanTest, MatchesScalarReferenceOnRandomInputs) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    // Sizes straddle the vector width and its tail-handling boundaries.
    uint32_t n = rng.Uniform(70);
    std::vector<uint32_t> values(n);
    for (uint32_t& value : values) value = rng.Uniform(1000);
    uint32_t bound = rng.Uniform(1100);
    uint32_t first_ge = n;
    for (uint32_t i = 0; i < n; ++i) {
      if (values[i] >= bound) {
        first_ge = i;
        break;
      }
    }
    EXPECT_EQ(storage::simd::FirstGe(values.data(), n, bound), first_ge);

    std::sort(values.begin(), values.end());
    uint32_t lower = static_cast<uint32_t>(
        std::lower_bound(values.begin(), values.end(), bound) -
        values.begin());
    uint32_t upper = static_cast<uint32_t>(
        std::upper_bound(values.begin(), values.end(), bound) -
        values.begin());
    EXPECT_EQ(storage::simd::LowerBoundGe(values.data(), n, bound), lower);
    EXPECT_EQ(storage::simd::LowerBoundGt(values.data(), n, bound), upper);
  }
}

TEST(SimdScanTest, ExtremeValuesNeedNoSignedShortcuts) {
  // Values above INT32_MAX break sign-compare SIMD tricks unless the
  // unsigned bias is applied; sentinel bounds must also behave.
  std::vector<uint32_t> values = {5, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFEu,
                                  0xFFFFFFFFu};
  EXPECT_EQ(storage::simd::FirstGe(values.data(), 5, 0x80000000u), 2u);
  EXPECT_EQ(storage::simd::FirstGe(values.data(), 5, 0xFFFFFFFFu), 4u);
  EXPECT_EQ(storage::simd::FirstGt(values.data(), 5, 0xFFFFFFFFu), 5u);
  EXPECT_EQ(storage::simd::FirstGt(values.data(), 5, 0u), 0u);
  EXPECT_EQ(storage::simd::LowerBoundGe(values.data(), 5, 0xFFFFFFFFu), 4u);
  EXPECT_EQ(storage::simd::LowerBoundGt(values.data(), 5, 0xFFFFFFFFu), 5u);
}

// ---- Overflow-safe gallop ---------------------------------------------------

TEST(GallopTest, ProbePositionsCannotOverflowNearUint32Max) {
  // A naive `lo + step` gallop wraps once step doubles past the uint32
  // range and either loops forever or probes garbage positions. The helper
  // must land exactly, in O(log) probes, over an index space this large.
  constexpr uint32_t kSize = 0xFFFFFFF0u;
  constexpr uint32_t kTarget = 0xFFFFFFE7u;
  auto below = [](uint32_t i) { return i < kTarget; };
  uint64_t probes = 0;
  auto count = [&probes] {
    ++probes;
    return false;
  };
  GallopResult r = GallopLowerBound(0, kSize, below, count);
  EXPECT_EQ(r.pos, kTarget);
  EXPECT_FALSE(r.aborted);
  EXPECT_LT(probes, 80u);

  // Starting just under the target: one doubling already overshoots kSize.
  probes = 0;
  r = GallopLowerBound(kTarget - 3, kSize, below, count);
  EXPECT_EQ(r.pos, kTarget);
  EXPECT_FALSE(r.aborted);

  // Target at the very end and past-the-end starts.
  auto all_below = [](uint32_t) { return true; };
  EXPECT_EQ(GallopLowerBound(0, kSize, all_below, count).pos, kSize);
  EXPECT_EQ(GallopLowerBound(kSize, kSize, all_below, count).pos, kSize);
}

TEST(GallopTest, AbortStopsImmediatelyWithAProvenBound) {
  constexpr uint32_t kTarget = 100000;
  auto below = [](uint32_t i) { return i < kTarget; };
  for (uint64_t budget : {1u, 2u, 3u, 5u, 9u}) {
    uint64_t probes = 0;
    auto limited = [&] { return ++probes > budget; };
    GallopResult r = GallopLowerBound(0, 1u << 20, below, limited);
    ASSERT_TRUE(r.aborted) << "budget " << budget;
    EXPECT_LE(probes, budget + 1);
    // The returned position must not skip past any entry >= the target:
    // every index below it tested (or provably is) below.
    EXPECT_LE(r.pos, kTarget);
  }
}

// ---- Delta codec ------------------------------------------------------------

/// Builds a random flat record blob with sorted label-0 starts,
/// occasional duplicate starts, and pointers mixing nulls, self-area
/// references, and far jumps — the shapes the zigzag encoder must survive.
std::vector<uint8_t> RandomRecords(util::Rng* rng, uint32_t count,
                                   const RecordLayout& layout) {
  std::vector<uint8_t> bytes;
  bytes.reserve(static_cast<size_t>(count) * layout.RecordSize());
  uint32_t start = rng->Uniform(100);
  for (uint32_t i = 0; i < count; ++i) {
    // Tuple records may open before the previous record's later labels:
    // go backwards sometimes to exercise negative deltas.
    uint32_t record_start = start;
    for (uint32_t k = 0; k < layout.label_count; ++k) {
      uint32_t s = record_start + rng->Uniform(50);
      uint32_t e = s + rng->Uniform(1000);
      uint32_t level = rng->Uniform(64);
      for (uint32_t field : {s, e, level}) {
        bytes.insert(bytes.end(), reinterpret_cast<uint8_t*>(&field),
                     reinterpret_cast<uint8_t*>(&field) + 4);
      }
    }
    for (uint32_t p = 0; p < layout.PointerSlots(); ++p) {
      uint32_t ptr = rng->Uniform(4) == 0 ? kNullEntry : rng->Uniform(count);
      bytes.insert(bytes.end(), reinterpret_cast<uint8_t*>(&ptr),
                   reinterpret_cast<uint8_t*>(&ptr) + 4);
    }
    start += rng->Uniform(30);
  }
  return bytes;
}

TEST(DeltaCodecTest, RoundTripsEveryLayout) {
  util::Rng rng(11);
  std::vector<RecordLayout> layouts(4);
  layouts[0] = {1, false, 0};  // E
  layouts[1] = {1, true, 0};   // LE, leaf (no child pointers)
  layouts[2] = {1, true, 3};   // LE, three pc/ad children
  layouts[3] = {4, false, 0};  // tuple, arity 4
  for (const RecordLayout& layout : layouts) {
    for (uint32_t count : {1u, 7u, 1000u, 5000u}) {
      std::vector<uint8_t> blob = RandomRecords(&rng, count, layout);
      auto encoded = storage::EncodeDeltaList(blob.data(), count, layout);
      ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
      ASSERT_EQ(encoded->page_first_entry.size(), encoded->pages.size());
      ASSERT_EQ(encoded->page_first_start.size(), encoded->pages.size());
      EXPECT_EQ(encoded->page_first_entry.front(), 0u);

      const uint32_t record_size = layout.RecordSize();
      for (size_t p = 0; p < encoded->pages.size(); ++p) {
        uint32_t first = encoded->page_first_entry[p];
        uint32_t next = p + 1 < encoded->pages.size()
                            ? encoded->page_first_entry[p + 1]
                            : count;
        uint32_t records = next - first;
        std::vector<uint32_t> starts(records * layout.label_count);
        std::vector<uint32_t> ends(starts.size());
        std::vector<uint32_t> levels(starts.size());
        std::vector<uint32_t> pointers(records * layout.PointerSlots());
        ASSERT_TRUE(storage::DecodeDeltaPage(
                        encoded->pages[p].data(), layout, first, records,
                        starts.data(), ends.data(), levels.data(),
                        layout.has_pointers ? pointers.data() : nullptr)
                        .ok());
        for (uint32_t r = 0; r < records; ++r) {
          const uint8_t* rec = blob.data() +
                               static_cast<size_t>(first + r) * record_size;
          for (uint32_t k = 0; k < layout.label_count; ++k) {
            uint32_t s, e, level;
            std::memcpy(&s, rec + 12 * k, 4);
            std::memcpy(&e, rec + 12 * k + 4, 4);
            std::memcpy(&level, rec + 12 * k + 8, 4);
            ASSERT_EQ(starts[r * layout.label_count + k], s);
            ASSERT_EQ(ends[r * layout.label_count + k], e);
            ASSERT_EQ(levels[r * layout.label_count + k], level);
          }
          for (uint32_t pt = 0; pt < layout.PointerSlots(); ++pt) {
            uint32_t expected;
            std::memcpy(&expected,
                        rec + 12 * layout.label_count + 4 * pt, 4);
            ASSERT_EQ(pointers[r * layout.PointerSlots() + pt], expected);
          }
        }
        if (records > 0) {
          EXPECT_EQ(encoded->page_first_start[p], starts[0]);
        }
      }
    }
  }
}

TEST(DeltaCodecTest, GarbagePageIsRejectedNotMisdecoded) {
  RecordLayout layout{1, true, 1};
  std::vector<uint8_t> page(Pager::kPageSize, 0);
  std::vector<uint32_t> scratch(4096);
  // All-zero page: record count 0 disagrees with any expected count.
  EXPECT_FALSE(storage::DecodeDeltaPage(page.data(), layout, 0, 5,
                                        scratch.data(), scratch.data(),
                                        scratch.data(), scratch.data())
                   .ok());
  // A varint whose continuation bits never end must be rejected, not read
  // past the page.
  std::fill(page.begin(), page.end(), 0x80);
  page[0] = 1;  // record_count = 1
  page[1] = 0;
  page[2] = 0;  // flags = 0
  page[3] = 0;
  EXPECT_FALSE(storage::DecodeDeltaPage(page.data(), layout, 0, 1,
                                        scratch.data(), scratch.data(),
                                        scratch.data(), scratch.data())
                   .ok());
}

// ---- Differential: pager and memory cursors against the oracle --------------

struct CursorStore {
  std::unique_ptr<ViewCatalog> catalog;
  const MaterializedView* view = nullptr;
};

CursorStore BuildStore(const xml::Document& doc, const char* path,
                       Scheme scheme) {
  CursorStore store;
  store.catalog = std::make_unique<ViewCatalog>(TempPath(path), 128);
  store.view = store.catalog->Materialize(doc, MustParse("//a//b"), scheme);
  return store;
}

TEST(BlockCursorTest, DeltaAndMemoryCursorsAgreeWithOracle) {
  util::Rng rng(23);
  for (uint64_t seed : {1u, 2u, 3u}) {
    util::Rng doc_rng(seed);
    xml::Document doc =
        testing::RandomDoc(&doc_rng, 3000, {"a", "b", "c"});
    for (Scheme scheme :
         {Scheme::kLinkedElement, Scheme::kLinkedElementPartial}) {
      CursorStore delta = BuildStore(doc, "diff_delta.db", scheme);

      // Reference labels: the naive evaluator's b solutions, in document
      // order. Reference following pointers, brute force: the first later
      // entry starting after this one ends (LE_p drops adjacent targets).
      const tpq::TreePattern view_pattern = MustParse("//a//b");
      const std::vector<std::vector<xml::NodeId>> solutions =
          tpq::NaiveEvaluator(doc, view_pattern).SolutionNodes();
      std::vector<Label> labels;
      for (xml::NodeId node : solutions[1]) {
        labels.push_back(doc.NodeLabel(node));
      }
      const uint32_t n = static_cast<uint32_t>(labels.size());
      ASSERT_GT(n, 0u);
      ASSERT_EQ(delta.view->list(1).count, n);
      std::vector<EntryIndex> follows(n, kNullEntry);
      for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = i + 1; j < n; ++j) {
          if (labels[j].start > labels[i].end) {
            follows[i] = j;
            break;
          }
        }
        if (scheme == Scheme::kLinkedElementPartial && follows[i] == i + 1) {
          follows[i] = kNullEntry;
        }
      }

      auto never = [](uint32_t) { return false; };
      {
        ListCursor cursor(&delta.view->list(1), delta.catalog->pool());
        // The memory-backed cursor participates in the label differential.
        ListCursor mem(labels.data(), n);

        // Sequential labels + pointers.
        for (uint32_t i = 0; i < n; ++i, cursor.Next()) {
          ASSERT_EQ(cursor.LabelAt(), labels[i]) << "entry " << i;
          ASSERT_EQ(cursor.Following(), follows[i]);
        }

        // Random FindFirstStart probes, strict and non-strict, from random
        // cursor positions, with ck-charge units matching the probe count.
        for (int t = 0; t < 40; ++t) {
          uint32_t from = rng.Uniform(n + 1);
          uint32_t bound =
              t % 5 == 0
                  ? labels[rng.Uniform(n)].start
                  : static_cast<uint32_t>(
                        rng.Uniform(2 * doc.NodeCount() + 2));
          bool strict = (t & 1) != 0;
          uint32_t expected = from;
          while (expected < n &&
                 (strict ? labels[expected].start <= bound
                         : labels[expected].start < bound)) {
            ++expected;
          }
          cursor.Seek(from);
          uint64_t probes = 0;
          uint64_t charged = 0;
          SeekOutcome out = cursor.FindFirstStart(
              bound, strict, &probes, [&](uint32_t c) {
                charged += c;
                return false;
              });
          ASSERT_FALSE(out.aborted);
          ASSERT_EQ(out.pos, expected)
              << "from " << from << " bound " << bound << " strict "
              << strict;
          ASSERT_EQ(cursor.index(), from) << "FindFirstStart must not move";
          // Governance accounting pins: every probe charged, exactly once.
          ASSERT_EQ(charged, probes);
          mem.Seek(from);
          uint64_t mem_probes = 0;
          ASSERT_EQ(mem.FindFirstStart(bound, strict, &mem_probes, never).pos,
                    expected);
        }

        // SkipEndsBelow / SkipStartsBelow land on the same entries.
        for (int t = 0; t < 40; ++t) {
          uint32_t from = rng.Uniform(n + 1);
          uint32_t bound =
              static_cast<uint32_t>(rng.Uniform(2 * doc.NodeCount() + 2));
          uint32_t expect_end = from;
          while (expect_end < n && labels[expect_end].end < bound) {
            ++expect_end;
          }
          cursor.Seek(from);
          uint64_t scanned = 0;
          ASSERT_FALSE(
              cursor.SkipEndsBelow(bound, /*one_block=*/false, &scanned,
                                   never));
          ASSERT_EQ(cursor.index(), expect_end);
          ASSERT_EQ(scanned, expect_end - from)
              << "every passed entry is counted";

          uint32_t expect_start = from;
          while (expect_start < n && labels[expect_start].start < bound) {
            ++expect_start;
          }
          cursor.Seek(from);
          scanned = 0;
          ASSERT_FALSE(cursor.SkipStartsBelow(bound, /*strict=*/false,
                                              &scanned, never));
          ASSERT_EQ(cursor.index(), expect_start);
          ASSERT_EQ(scanned, expect_start - from);
        }
      }
    }
  }
}

// ---- Wide fan-out guard -----------------------------------------------------

TEST(FanOutGuardTest, RecordWiderThanPageIsATypedError) {
  // 1025 pc-children make an LE record whose worst-case encoding (5 bytes
  // per field) is wider than a page, so no page could hold it. This must
  // surface as InvalidArgument at materialization, not as a page overrun.
  xml::Document doc = testing::MakeDoc("r(x)");
  tpq::TreePattern wide;
  int root = wide.AddNode("r", -1, tpq::Axis::kDescendant);
  for (int i = 0; i < 1025; ++i) {
    wide.AddNode("c" + std::to_string(i), root, tpq::Axis::kChild);
  }
  ViewCatalog catalog(TempPath("fanout.db"), 16);
  auto result = catalog.TryMaterialize(doc, wide, Scheme::kLinkedElement);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("fan-out"), std::string::npos)
      << result.status().ToString();
}

// ---- Abort soundness --------------------------------------------------------

TEST(FindFirstStartAbortTest, CutShortSeeksNeverSkipLiveEntries) {
  util::Rng doc_rng(31);
  xml::Document doc = testing::RandomDoc(&doc_rng, 4000, {"a", "b"});
  CursorStore store = BuildStore(doc, "abort_seek.db", Scheme::kLinkedElement);
  const StoredList* list = &store.view->list(1);
  const uint32_t n = list->count;
  ASSERT_GT(n, 100u);
  ListCursor probe(list, store.catalog->pool());
  std::vector<Label> labels(n);
  for (uint32_t i = 0; i < n; ++i, probe.Next()) labels[i] = probe.LabelAt();
  const uint32_t bound = labels[n - 2].start;
  uint32_t true_pos = 0;
  while (true_pos < n && labels[true_pos].start < bound) ++true_pos;

  // Probe count of the uncut search; any budget below it must abort.
  uint64_t total = 0;
  {
    ListCursor cursor(list, store.catalog->pool());
    SeekOutcome full = cursor.FindFirstStart(
        bound, /*strict=*/false, &total, [](uint32_t) { return false; });
    ASSERT_FALSE(full.aborted);
    ASSERT_EQ(full.pos, true_pos);
    ASSERT_GE(total, 2u) << "list too small to cut a search short";
  }
  for (uint64_t budget = 0; budget < total; ++budget) {
    ListCursor cursor(list, store.catalog->pool());
    uint64_t probes = 0;
    uint64_t charges = 0;
    SeekOutcome out =
        cursor.FindFirstStart(bound, /*strict=*/false, &probes,
                              [&](uint32_t) { return ++charges > budget; });
    ASSERT_TRUE(out.aborted) << "budget " << budget;
    // Sound: the conservative landing position never passes an entry the
    // full search would have returned.
    EXPECT_LE(out.pos, true_pos) << "budget " << budget;
  }
}

// ---- fsck of the compressed format -----------------------------------------

TEST(FsckDeltaTest, VerifiesCompressedListsAndFlagsLyingPayloads) {
  std::string path = TempPath("fsck_delta.db");
  util::Rng doc_rng(41);
  xml::Document doc = testing::RandomDoc(&doc_rng, 3000, {"a", "b"});
  storage::PageId victim;
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    const MaterializedView* view =
        catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    victim = view->list(0).first_page;
    ASSERT_TRUE(catalog.Close().ok());
  }
  storage::FsckCatalogReport clean = storage::FsckCatalog(path);
  EXPECT_TRUE(clean.clean()) << storage::ToJson(clean);
  EXPECT_GE(clean.compressed_lists_checked, 2u);  // both lists are delta
  EXPECT_TRUE(clean.bad_compressed_lists.empty());

  // Overwrite one compressed page with checksum-valid zeros: the page scan
  // passes, only the varint-level verification can catch it.
  {
    Pager pager(path, Pager::Mode::kReopen);
    ASSERT_TRUE(pager.init_status().ok());
    std::vector<uint8_t> zeros(Pager::kPageSize, 0);
    ASSERT_TRUE(pager.WritePage(victim, zeros.data()).ok());
  }
  storage::FsckCatalogReport lying = storage::FsckCatalog(path);
  EXPECT_TRUE(lying.pager.bad_pages.empty())
      << "corruption must be below the checksum layer for this test";
  ASSERT_FALSE(lying.bad_compressed_lists.empty());
  EXPECT_TRUE(lying.corrupt()) << storage::ToJson(lying);
  EXPECT_NE(storage::ToJson(lying).find("bad_compressed_lists"),
            std::string::npos);

  // The same lie in a document store's tag list: fsck decodes doc-store
  // pages with the same list check, and the command line reports a corrupt
  // base document (exit 4).
  const std::string doc_path = TempPath("fsck_delta.doc");
  {
    auto store = storage::DocumentStore::BuildFromDocument(doc_path, doc, {});
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    victim = (*store)->ListOfTag((*store)->FindTag("b"))->first_page;
  }
  EXPECT_TRUE(storage::FsckDocumentStore(doc_path).clean());
  {
    Pager pager(doc_path, Pager::Mode::kReopen);
    ASSERT_TRUE(pager.init_status().ok());
    std::vector<uint8_t> zeros(Pager::kPageSize, 0);
    ASSERT_TRUE(pager.WritePage(victim, zeros.data()).ok());
  }
  storage::FsckDocStoreReport doc_report =
      storage::FsckDocumentStore(doc_path);
  EXPECT_TRUE(doc_report.pager.bad_pages.empty());
  ASSERT_FALSE(doc_report.bad_lists.empty());
  EXPECT_TRUE(doc_report.corrupt()) << storage::ToJson(doc_report);
  const std::string command =
      std::string(VJ_FSCK_BIN) + " --doc --quiet " + doc_path;
  int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << command;
  EXPECT_EQ(WEXITSTATUS(status), 4) << command;
}

}  // namespace
}  // namespace viewjoin
