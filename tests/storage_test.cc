#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>

#include "storage/buffer_pool.h"
#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "storage/stored_list.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"

namespace viewjoin {
namespace {

using storage::BufferPool;
using storage::EntryIndex;
using storage::kNullEntry;
using storage::ListCursor;
using storage::MaterializedView;
using storage::Pager;
using storage::Scheme;
using storage::ViewCatalog;
using testing::MakeDoc;
using testing::MustParse;
using xml::Label;
using xml::NodeId;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(PagerTest, WriteReadRoundTrip) {
  Pager pager(TempPath("pager_rt.db"));
  std::vector<uint8_t> page(Pager::kPageSize);
  storage::PageId a = *pager.AllocatePage();
  storage::PageId b = *pager.AllocatePage();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  for (size_t i = 0; i < page.size(); ++i) page[i] = static_cast<uint8_t>(i);
  pager.WritePage(b, page.data());
  std::fill(page.begin(), page.end(), 0);
  pager.WritePage(a, page.data());
  std::vector<uint8_t> out(Pager::kPageSize);
  pager.ReadPage(b, out.data());
  EXPECT_EQ(out[7], 7);
  EXPECT_EQ(pager.stats().pages_read, 1u);
  EXPECT_EQ(pager.stats().pages_written, 2u);
}

/// Writes `pages` pages whose first byte is the page id (mod 256).
void FillPages(Pager* pager, int pages) {
  std::vector<uint8_t> page(Pager::kPageSize, 0);
  for (int i = 0; i < pages; ++i) {
    storage::PageId id = *pager->AllocatePage();
    page[0] = static_cast<uint8_t>(i);
    pager->WritePage(id, page.data());
  }
}

TEST(BufferPoolTest, CachesAndEvictsLru) {
  Pager pager(TempPath("pool_lru.db"));
  FillPages(&pager, 4);
  // One shard so the pool behaves as one exact global LRU.
  BufferPool pool(&pager, 2, /*shards=*/1);
  ASSERT_EQ(pool.shard_count(), 1u);
  EXPECT_EQ(pool.GetPage(0).data()[0], 0);
  EXPECT_EQ(pool.GetPage(1).data()[0], 1);
  EXPECT_EQ(pool.GetPage(0).data()[0], 0);  // hit
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 2u);
  pool.GetPage(2);  // evicts page 1 (LRU)
  uint64_t version = pool.eviction_version();
  EXPECT_GT(version, 0u);
  pool.GetPage(0);  // still cached
  EXPECT_EQ(pool.hits(), 2u);
  pool.GetPage(1);  // miss again
  EXPECT_EQ(pool.misses(), 4u);
}

TEST(BufferPoolTest, ShardCountRoundsToPowerOfTwoWithinCapacity) {
  Pager pager(TempPath("pool_shards.db"));
  FillPages(&pager, 1);
  BufferPool six(&pager, 64, /*shards=*/6);
  EXPECT_EQ(six.shard_count(), 4u);  // floor to a power of two
  BufferPool tiny(&pager, 3);        // default 8 shards, capped by capacity
  EXPECT_EQ(tiny.shard_count(), 2u);
  BufferPool one(&pager, 1);
  EXPECT_EQ(one.shard_count(), 1u);
}

TEST(BufferPoolTest, CapacityZeroIsRejected) {
  Pager pager(TempPath("pool_zero.db"));
  FillPages(&pager, 1);
  BufferPool pool(&pager, 0);
  BufferPool::PinnedPage pin;
  util::Status status = pool.Fetch(0, &pin);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(pin.valid());
  // The infallible spelling latches the error and hands back poison.
  BufferPool::PinnedPage poison = pool.GetPage(0);
  ASSERT_TRUE(poison.valid());
  EXPECT_EQ(poison.data()[0], 0xFF);
  EXPECT_EQ(pool.error().code(), util::StatusCode::kInvalidArgument);
}

TEST(BufferPoolTest, PinHeldPageSurvivesEvictionPressure) {
  Pager pager(TempPath("pool_pin.db"));
  FillPages(&pager, 16);
  BufferPool pool(&pager, 2, /*shards=*/1);
  BufferPool::PinnedPage held = pool.GetPage(3);
  ASSERT_TRUE(held.valid());
  const uint8_t* data = held.data();
  // Thrash far past capacity; the pinned frame must neither move nor vanish.
  for (int round = 0; round < 3; ++round) {
    for (storage::PageId p = 0; p < 16; ++p) {
      if (p != 3) EXPECT_EQ(pool.GetPage(p).data()[0], p);
    }
  }
  EXPECT_GT(pool.eviction_version(), 0u);
  EXPECT_EQ(held.data(), data);
  EXPECT_EQ(held.data()[0], 3);
  // Copying re-pins: the copy keeps the frame alive after the original dies.
  BufferPool::PinnedPage copy = held;
  held.Release();
  for (storage::PageId p = 0; p < 16; ++p) pool.GetPage(p);
  EXPECT_EQ(copy.data()[0], 3);
}

TEST(BufferPoolTest, ConcurrentOverlappingFetches) {
  Pager pager(TempPath("pool_conc.db"));
  constexpr int kPages = 32;
  FillPages(&pager, kPages);
  // Tiny per-shard capacity so threads race on eviction constantly.
  BufferPool pool(&pager, 4, /*shards=*/4);
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        storage::PageId page =
            static_cast<storage::PageId>((i * 7 + t * 13) % kPages);
        BufferPool::PinnedPage pin = pool.GetPage(page);
        if (!pin.valid() || pin.data()[0] != static_cast<uint8_t>(page)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(pool.error().ok());
  EXPECT_EQ(pool.hits() + pool.misses(),
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(BufferPoolTest, ErrorScopeIsolatesLatchesPerThread) {
  Pager pager(TempPath("pool_scope.db"));
  FillPages(&pager, 4);
  BufferPool pool(&pager, 4);
  constexpr storage::PageId kBadPage = 999;  // beyond the file
  std::atomic<bool> faulting_saw_error{false};
  std::atomic<bool> clean_saw_error{false};
  std::thread faulting([&] {
    BufferPool::ErrorScope scope(&pool);
    for (int i = 0; i < 100; ++i) pool.GetPage(i % 4);
    pool.GetPage(kBadPage);
    faulting_saw_error =
        !scope.error().ok() && scope.error_page() == kBadPage;
  });
  std::thread clean([&] {
    BufferPool::ErrorScope scope(&pool);
    for (int i = 0; i < 100; ++i) pool.GetPage(i % 4);
    clean_saw_error = !scope.error().ok();
  });
  faulting.join();
  clean.join();
  EXPECT_TRUE(faulting_saw_error.load());
  EXPECT_FALSE(clean_saw_error.load());
  // Scoped faults never leak into the pool-global latch.
  EXPECT_TRUE(pool.error().ok());
  // Without a scope the same fault latches globally; Clear() resets it.
  pool.GetPage(kBadPage);
  EXPECT_FALSE(pool.error().ok());
  EXPECT_EQ(pool.error_page(), kBadPage);
  pool.Clear();
  EXPECT_TRUE(pool.error().ok());
  EXPECT_EQ(pool.error_page(), storage::kInvalidPage);
}

class MaterializeTest : public ::testing::Test {
 protected:
  // Document with recursive 'a' nesting and multi-match nodes.
  MaterializeTest()
      : doc_(MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))")),
        catalog_(TempPath("mat.db"), 64) {}

  xml::Document doc_;
  ViewCatalog catalog_;
};

TEST_F(MaterializeTest, ElementSchemeListsAreSolutionNodes) {
  tpq::TreePattern v = MustParse("//a//b//c");
  const MaterializedView* view = catalog_.Materialize(doc_, v, Scheme::kElement);
  tpq::NaiveEvaluator eval(doc_, v);
  std::vector<std::vector<NodeId>> expected = eval.SolutionNodes();
  for (size_t q = 0; q < v.size(); ++q) {
    ListCursor cursor(&view->list(static_cast<int>(q)), catalog_.pool());
    ASSERT_EQ(cursor.size(), expected[q].size());
    for (size_t i = 0; !cursor.AtEnd(); cursor.Next(), ++i) {
      EXPECT_EQ(cursor.LabelAt(), doc_.NodeLabel(expected[q][i]));
    }
    EXPECT_EQ(view->ListLength(static_cast<int>(q)), expected[q].size());
  }
  EXPECT_EQ(view->PointerCount(), 0u);
  EXPECT_EQ(view->SizeBytes(), 12u * (view->ListLength(0) +
                                      view->ListLength(1) +
                                      view->ListLength(2)));
}

TEST_F(MaterializeTest, TupleSchemeMatchesSortedMatches) {
  tpq::TreePattern v = MustParse("//a//b");
  const MaterializedView* view = catalog_.Materialize(doc_, v, Scheme::kTuple);
  std::vector<tpq::Match> matches = tpq::NaiveEvaluator(doc_, v).Collect();
  tpq::SortMatches(&matches);
  ASSERT_EQ(view->MatchCount(), matches.size());
  ListCursor cursor(&view->tuple_list(), catalog_.pool());
  uint32_t prev_start = 0;
  for (size_t t = 0; !cursor.AtEnd(); cursor.Next(), ++t) {
    EXPECT_EQ(cursor.LabelAt(0), doc_.NodeLabel(matches[t][0]));
    EXPECT_EQ(cursor.LabelAt(1), doc_.NodeLabel(matches[t][1]));
    EXPECT_GE(cursor.LabelAt(0).start, prev_start);  // composite key order
    prev_start = cursor.LabelAt(0).start;
  }
}

TEST_F(MaterializeTest, TupleSchemeDuplicatesRecurringNodes) {
  // With recursive 'a's, one b can occur in several (a,b) tuples while the
  // element lists stay duplicate-free — the paper's core redundancy point.
  tpq::TreePattern v = MustParse("//a//b");
  const MaterializedView* tuple = catalog_.Materialize(doc_, v, Scheme::kTuple);
  const MaterializedView* element =
      catalog_.Materialize(doc_, v, Scheme::kElement);
  EXPECT_GT(tuple->MatchCount(),
            static_cast<uint64_t>(element->ListLength(1)));
}

TEST_F(MaterializeTest, LinkedElementPointersAreCorrect) {
  tpq::TreePattern v = MustParse("//a//b");
  const MaterializedView* view =
      catalog_.Materialize(doc_, v, Scheme::kLinkedElement);
  ListCursor a_cursor(&view->list(0), catalog_.pool());
  ListCursor b_cursor(&view->list(1), catalog_.pool());

  std::vector<Label> a_labels;
  for (a_cursor.Reset(); !a_cursor.AtEnd(); a_cursor.Next()) {
    a_labels.push_back(a_cursor.LabelAt());
  }
  std::vector<Label> b_labels;
  for (b_cursor.Reset(); !b_cursor.AtEnd(); b_cursor.Next()) {
    b_labels.push_back(b_cursor.LabelAt());
  }

  for (EntryIndex i = 0; i < a_labels.size(); ++i) {
    a_cursor.Seek(i);
    // Following: first entry starting after this one ends.
    EntryIndex follow = a_cursor.Following();
    EntryIndex expect_follow = kNullEntry;
    for (EntryIndex j = i + 1; j < a_labels.size(); ++j) {
      if (a_labels[j].start > a_labels[i].end) {
        expect_follow = j;
        break;
      }
    }
    EXPECT_EQ(follow, expect_follow) << "entry " << i;
    // Descendant: next entry iff nested.
    EntryIndex desc = a_cursor.Descendant();
    if (i + 1 < a_labels.size() && a_labels[i + 1].start < a_labels[i].end) {
      EXPECT_EQ(desc, i + 1);
    } else {
      EXPECT_EQ(desc, kNullEntry);
    }
    // Child pointer: first b entry inside this a.
    EntryIndex child = a_cursor.Child(0);
    ASSERT_NE(child, kNullEntry);
    EXPECT_GT(b_labels[child].start, a_labels[i].start);
    EXPECT_LT(b_labels[child].end, a_labels[i].end);
    for (EntryIndex j = 0; j < child; ++j) {
      EXPECT_FALSE(b_labels[j].start > a_labels[i].start &&
                   b_labels[j].end < a_labels[i].end)
          << "child pointer skipped an earlier descendant";
    }
  }
}

TEST_F(MaterializeTest, PcChildPointerRespectsLevels) {
  tpq::TreePattern v = MustParse("//b/c");
  const MaterializedView* view =
      catalog_.Materialize(doc_, v, Scheme::kLinkedElement);
  ListCursor b_cursor(&view->list(0), catalog_.pool());
  ListCursor c_cursor(&view->list(1), catalog_.pool());
  for (b_cursor.Reset(); !b_cursor.AtEnd(); b_cursor.Next()) {
    EntryIndex child = b_cursor.Child(0);
    ASSERT_NE(child, kNullEntry);
    c_cursor.Seek(child);
    EXPECT_EQ(c_cursor.LabelAt().level, b_cursor.LabelAt().level + 1);
  }
}

TEST_F(MaterializeTest, PartialSchemeDropsAdjacentPointers) {
  tpq::TreePattern v = MustParse("//a//b");
  const MaterializedView* full =
      catalog_.Materialize(doc_, v, Scheme::kLinkedElement);
  const MaterializedView* partial =
      catalog_.Materialize(doc_, v, Scheme::kLinkedElementPartial);
  EXPECT_LT(partial->PointerCount(), full->PointerCount());
  EXPECT_LT(partial->SizeBytes(), full->SizeBytes());
  // LE_p never materializes descendant pointers (always adjacent) and only
  // keeps following pointers that jump at least two entries.
  ListCursor cursor(&partial->list(0), catalog_.pool());
  for (cursor.Reset(); !cursor.AtEnd(); cursor.Next()) {
    EXPECT_EQ(cursor.Descendant(), kNullEntry);
    EntryIndex follow = cursor.Following();
    if (follow != kNullEntry) {
      EXPECT_GT(follow, cursor.index() + 1);
    }
    // Child pointers always survive.
    EXPECT_NE(cursor.Child(0), kNullEntry);
  }
}

TEST_F(MaterializeTest, SchemeSizeOrdering) {
  // E is smallest; LE_p smaller than LE (paper Table IV).
  tpq::TreePattern v = MustParse("//a//b//c");
  uint64_t e = catalog_.Materialize(doc_, v, Scheme::kElement)->SizeBytes();
  uint64_t le = catalog_.Materialize(doc_, v, Scheme::kLinkedElement)->SizeBytes();
  uint64_t lep =
      catalog_.Materialize(doc_, v, Scheme::kLinkedElementPartial)->SizeBytes();
  EXPECT_LT(e, lep);
  EXPECT_LE(lep, le);
}

TEST_F(MaterializeTest, EmptyViewHasEmptyLists) {
  tpq::TreePattern v = MustParse("//a//zzz");
  const MaterializedView* view =
      catalog_.Materialize(doc_, v, Scheme::kLinkedElement);
  EXPECT_EQ(view->ListLength(0), 0u);
  EXPECT_EQ(view->ListLength(1), 0u);
  ListCursor cursor(&view->list(0), catalog_.pool());
  EXPECT_TRUE(cursor.AtEnd());
}

TEST(MaterializeLargeTest, MultiPageListsReadBackCorrectly) {
  // Enough nodes to span several pages per list.
  xml::Document doc;
  doc.StartElement("root");
  for (int i = 0; i < 2000; ++i) {
    doc.StartElement("a");
    doc.StartElement("b");
    doc.EndElement();
    doc.EndElement();
  }
  doc.EndElement();
  ViewCatalog catalog(TempPath("mat_large.db"), 4);  // tiny pool forces evictions
  tpq::TreePattern v = MustParse("//a/b");
  const MaterializedView* view =
      catalog.Materialize(doc, v, Scheme::kLinkedElement);
  ASSERT_EQ(view->ListLength(0), 2000u);
  ListCursor cursor(&view->list(0), catalog.pool());
  uint32_t prev = 0;
  ListCursor b_cursor(&view->list(1), catalog.pool());
  for (cursor.Reset(); !cursor.AtEnd(); cursor.Next()) {
    Label label = cursor.LabelAt();
    EXPECT_GT(label.start, prev);
    prev = label.start;
    EntryIndex child = cursor.Child(0);
    b_cursor.Seek(child);
    EXPECT_EQ(b_cursor.LabelAt().level, label.level + 1);
  }
  EXPECT_GT(catalog.pool()->eviction_version(), 0u);
}

}  // namespace
}  // namespace viewjoin
