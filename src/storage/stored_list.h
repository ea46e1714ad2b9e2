#ifndef VIEWJOIN_STORAGE_STORED_LIST_H_
#define VIEWJOIN_STORAGE_STORED_LIST_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/list_search.h"
#include "storage/pager.h"
#include "storage/simd_scan.h"
#include "util/check.h"
#include "xml/label.h"

namespace viewjoin::storage {

/// Index of an entry within a stored list; the on-disk encoding of the LE
/// scheme's child/descendant/following pointers. Entry indexes convert
/// to/from the paper's (page number, byte offset) pairs arithmetically since
/// records are fixed-size and never span pages.
using EntryIndex = uint32_t;

inline constexpr EntryIndex kNullEntry = 0xFFFFFFFFu;

/// On-disk record layouts (all little-endian uint32 fields):
///
///  element record  : start, end, level                          (12 bytes)
///  LE record       : start, end, level, following, descendant,
///                    child[0..m)                                (20 + 4m)
///  tuple record    : n consecutive element records              (12n)
///
/// `following`/`descendant`/`child[k]` hold an EntryIndex into the pointed
/// list or kNullEntry.
struct RecordLayout {
  uint32_t label_count = 1;   // 1 for element/LE lists, n for tuple lists
  bool has_pointers = false;  // true for LE / LE_p lists
  uint32_t child_count = 0;   // number of child pointers (LE only)

  uint32_t RecordSize() const {
    return 12 * label_count + (has_pointers ? 8 + 4 * child_count : 0);
  }
  uint32_t PointerSlots() const {
    return has_pointers ? 2 + child_count : 0;
  }
};

/// Physical encoding of a list's pages.
enum class ListFormat : uint8_t {
  kFixed = 0,  // fixed-size records at arithmetic offsets (original format)
  kDelta = 1,  // prefix/delta varint pages (list_codec.h) + page directory
};

/// Metadata of one immutable list stored in a pager file. Created by the
/// materializer; read through ListCursor.
///
/// kFixed lists locate entries arithmetically (PageOf/OffsetOf). kDelta
/// pages hold a variable number of whole records, so they carry a page
/// directory: `page_first_entry[p]` is the entry index of page p's first
/// record. Both formats may carry `page_first_start` fence keys (the first
/// record's start label per page), which let seeks gallop across pages
/// without touching them.
struct StoredList {
  PageId first_page = kInvalidPage;
  uint32_t count = 0;
  RecordLayout layout;
  ListFormat format = ListFormat::kFixed;
  std::vector<uint32_t> page_first_entry;  // kDelta only
  std::vector<uint32_t> page_first_start;  // fence keys

  uint32_t RecordsPerPage() const {
    VJ_DCHECK(layout.RecordSize() != 0 &&
              layout.RecordSize() <= Pager::kPageSize);
    return static_cast<uint32_t>(Pager::kPageSize) / layout.RecordSize();
  }
  /// Page/offset of an entry — the paper's pointer representation.
  PageId PageOf(EntryIndex i) const {
    VJ_DCHECK(format == ListFormat::kFixed);
    return first_page + i / RecordsPerPage();
  }
  uint32_t OffsetOf(EntryIndex i) const {
    VJ_DCHECK(format == ListFormat::kFixed);
    return (i % RecordsPerPage()) * layout.RecordSize();
  }
  uint32_t PageSpan() const {
    if (format == ListFormat::kDelta) {
      return static_cast<uint32_t>(page_first_entry.size());
    }
    if (count == 0) return 0;
    return (count + RecordsPerPage() - 1) / RecordsPerPage();
  }
  /// Zero-based page holding entry `i`.
  uint32_t PageIndexOf(EntryIndex i) const {
    if (format == ListFormat::kFixed) return i / RecordsPerPage();
    // Last directory slot with first_entry <= i.
    uint32_t p = simd::LowerBoundGt(
        page_first_entry.data(),
        static_cast<uint32_t>(page_first_entry.size()), i);
    VJ_DCHECK(p > 0);
    return p - 1;
  }
  EntryIndex FirstEntryOfPage(uint32_t p) const {
    if (format == ListFormat::kFixed) return p * RecordsPerPage();
    return page_first_entry[p];
  }
  uint32_t RecordsOnPage(uint32_t p) const {
    EntryIndex first = FirstEntryOfPage(p);
    EntryIndex next = p + 1 < PageSpan() ? FirstEntryOfPage(p + 1) : count;
    return next - first;
  }
};

/// Result of a non-moving skip search (FindFirstStart).
struct SeekOutcome {
  EntryIndex pos = 0;
  bool aborted = false;
};

/// A decoded page of a block-capable cursor, as struct-of-arrays spans.
/// Arrays are record-major, strided by label_count. Valid until the cursor
/// decodes another block or is destroyed.
struct BlockView {
  EntryIndex first = 0;  // entry index of the block's first record
  uint32_t count = 0;    // records in the block
  const uint32_t* starts = nullptr;
  const uint32_t* ends = nullptr;
  const uint32_t* levels = nullptr;
};

/// Cursor over a StoredList. Provides sequential Next() and random Seek()
/// (how pointer jumps land). The cursor reads by block: it holds a *pin* on
/// the page of its current entry — so the page cannot be evicted (and its
/// pointer never dangles) while the cursor sits on it, even when other
/// queries thrash the shared pool concurrently — and decodes that page into
/// per-cursor struct-of-arrays scratch, serving LabelAt/pointer reads and
/// the galloping/SIMD skip primitives from the decoded arrays. Fixed-format
/// pages decode lazily per field (sparse point reads go straight to the
/// pinned page); delta pages decode whole (varints have no random access).
/// A page that fails to read (the pool's poison page, 0xFF-filled) or fails
/// delta decode yields sentinel records — 0xFFFFFFFF labels, null pointers.
///
/// A second, memory-backed mode wraps a plain label array instead of a pager
/// list: the base-document fallback streams the document's own tag lists
/// through the same cursor interface, so TwigStack runs unchanged when the
/// view store is unavailable. Memory mode carries no pointers.
///
/// The skip primitives take a checkpoint hook `ck(n)` — charge `n` entries
/// of governance work, return true to abort (see QueryContext::CheckpointN)
/// — and count their probe/scan work into caller-provided counters so
/// EXPLAIN stats stay exact however a skip is executed.
class ListCursor {
 public:
  ListCursor() = default;
  ListCursor(const StoredList* list, BufferPool* pool)
      : list_(list), pool_(pool) {}
  /// Memory-backed cursor over `count` labels (no storage behind it).
  ListCursor(const xml::Label* labels, uint32_t count)
      : mem_labels_(labels), mem_count_(count) {}

  bool valid() const { return list_ != nullptr || mem_labels_ != nullptr; }
  bool AtEnd() const { return index_ >= size(); }
  EntryIndex index() const { return index_; }
  uint32_t size() const {
    return list_ != nullptr ? list_->count : mem_count_;
  }
  const StoredList& list() const { return *list_; }

  void Reset() {
    index_ = 0;
    pin_.Release();
    block_.valid = false;  // the decoded block's page is no longer pinned
  }

  void Next() { ++index_; }

  /// Random access (pointer dereference target).
  void Seek(EntryIndex i) { index_ = i; }

  /// Label of the current record's `k`-th label (k = 0 for element/LE lists).
  xml::Label LabelAt(uint32_t k = 0) const {
    if (mem_labels_ != nullptr) {
      VJ_DCHECK(!AtEnd());
      return mem_labels_[index_];
    }
    EnsureBlock(index_, 0);
    if ((block_.fields & kLabelFields) != kLabelFields) {
      // Undecoded fixed page: read the one record directly until the page
      // has seen enough traffic to be worth de-interleaving.
      if (block_.point_reads < kDecodeAfterPointReads) {
        ++block_.point_reads;
        uint32_t off = index_ - block_.first;
        return {FixedFieldAt(off, 12 * k), FixedFieldAt(off, 12 * k + 4),
                FixedFieldAt(off, 12 * k + 8)};
      }
      EnsureBlock(index_, kLabelFields);
    }
    uint32_t slot = (index_ - block_.first) * list_->layout.label_count + k;
    return {block_.starts[slot], block_.ends[slot], block_.levels[slot]};
  }

  EntryIndex Following() const { return PointerAt(0); }
  EntryIndex Descendant() const { return PointerAt(1); }
  EntryIndex Child(uint32_t k) const { return PointerAt(2 + k); }

  /// True for pager-backed cursors, which decode whole pages — callers may
  /// then batch via CurrentBlock() instead of per-entry reads.
  bool block_capable() const { return list_ != nullptr; }

  /// Decoded block containing the current entry (block-capable only).
  BlockView CurrentBlock() const {
    VJ_DCHECK(block_capable() && !AtEnd());
    EnsureBlock(index_, kLabelFields);
    return {block_.first, block_.count, block_.starts.data(),
            block_.ends.data(), block_.levels.data()};
  }

  /// First position >= index() whose start is >= `bound` (or > `bound` when
  /// `strict`), or size() when none. Does not move the cursor. Requires a
  /// single-label list (starts are sorted in document order). Probe reads
  /// are added to `*probes`; `ck` runs per probe/decoded block.
  template <typename Ck>
  SeekOutcome FindFirstStart(uint32_t bound, bool strict, uint64_t* probes,
                             Ck&& ck) const {
    VJ_DCHECK(mem_labels_ != nullptr || list_->layout.label_count == 1);
    if (strict) {
      if (bound == 0xFFFFFFFFu) return {size(), false};
      ++bound;  // first start > old bound == first start >= bound+1
    }
    if (index_ >= size()) return {size(), false};
    if (list_ != nullptr && !list_->page_first_start.empty()) {
      return FindFirstStartBlocks(bound, probes, ck);
    }
    // Entry-level gallop: memory-backed cursors and lists without fences.
    auto below = [&](EntryIndex i) { return StartAt(i) < bound; };
    auto on_probe = [&] {
      ++*probes;
      return ck(1);
    };
    GallopResult r = GallopLowerBound(index_, size(), below, on_probe);
    return {r.pos, r.aborted};
  }

  /// Advances until the current entry's end is >= `bound` or the list ends,
  /// skipping entries that can no longer join (their region closed before
  /// `bound`). Ends are not sorted, so this is a forward scan — SIMD within
  /// decoded blocks. Every passed entry is added to `*scanned` and charged
  /// through `ck`. With `one_block`, stops at the first block boundary
  /// (memory mode: after one entry) so callers that must re-check pruned
  /// LE_p pointers keep their step-and-revalidate behavior. Returns true
  /// if `ck` aborted.
  template <typename Ck>
  bool SkipEndsBelow(uint32_t bound, bool one_block, uint64_t* scanned,
                     Ck&& ck) {
    VJ_DCHECK(mem_labels_ != nullptr || list_->layout.label_count == 1);
    if (list_ != nullptr) {
      while (index_ < size()) {
        EnsureBlock(index_, 0);
        uint32_t offset = index_ - block_.first;
        if ((block_.fields & kEndsField) == 0 &&
            block_.point_reads < kDecodeAfterPointReads) {
          // Undecoded fixed page: step directly off the page first. Most
          // pointer-jump landing zones qualify within a few entries, and
          // de-interleaving a whole page for them costs more than it saves.
          // Sustained traffic trips the decode.
          bool stopped = false;
          uint32_t passed = 0;
          while (offset < block_.count &&
                 block_.point_reads < kDecodeAfterPointReads) {
            ++block_.point_reads;
            if (FixedFieldAt(offset, 4) >= bound) {
              stopped = true;
              break;
            }
            ++offset;
            ++passed;
          }
          *scanned += passed;
          index_ = block_.first + offset;
          if (ck(passed > 0 ? passed : 1)) return true;
          if (stopped) return false;
          if (offset >= block_.count) {
            if (one_block) return false;
            continue;
          }
        }
        EnsureBlock(index_, kEndsField);
        offset = index_ - block_.first;
        uint32_t pos = offset + simd::FirstGe(block_.ends.data() + offset,
                                              block_.count - offset, bound);
        uint32_t passed = pos - offset;
        *scanned += passed;
        index_ = block_.first + pos;
        if (ck(passed > 0 ? passed : 1)) return true;
        if (pos < block_.count || one_block) return false;
      }
      return false;
    }
    // Memory mode: per-entry steps, per-entry checkpoints.
    while (index_ < size() && EndAt(index_) < bound) {
      ++index_;
      ++*scanned;
      if (ck(1)) return true;
      if (one_block) return false;
    }
    return false;
  }

  /// Advances until the current entry's start is >= `bound` (or > when
  /// `strict`) or the list ends. Unlike FindFirstStart this *walks* —
  /// touching every page and counting every passed entry into `*scanned` —
  /// preserving the sequential-I/O cost profile of pointerless (E) scans
  /// while still vectorizing within decoded blocks. Returns true if `ck`
  /// aborted.
  template <typename Ck>
  bool SkipStartsBelow(uint32_t bound, bool strict, uint64_t* scanned,
                       Ck&& ck) {
    VJ_DCHECK(mem_labels_ != nullptr || list_->layout.label_count == 1);
    if (strict) {
      if (bound == 0xFFFFFFFFu) {
        *scanned += size() - index_;
        bool aborted = ck(size() - index_);
        index_ = size();
        return aborted;
      }
      ++bound;
    }
    if (list_ != nullptr) {
      while (index_ < size()) {
        EnsureBlock(index_, 0);
        uint32_t offset = index_ - block_.first;
        if ((block_.fields & kStartsField) == 0 &&
            block_.point_reads < kDecodeAfterPointReads) {
          // Same landing-zone fast path as SkipEndsBelow: probe the fixed
          // page directly until the adaptive threshold trips a decode.
          bool stopped = false;
          uint32_t passed = 0;
          while (offset < block_.count &&
                 block_.point_reads < kDecodeAfterPointReads) {
            ++block_.point_reads;
            if (FixedFieldAt(offset, 0) >= bound) {
              stopped = true;
              break;
            }
            ++offset;
            ++passed;
          }
          *scanned += passed;
          index_ = block_.first + offset;
          if (ck(passed > 0 ? passed : 1)) return true;
          if (stopped) return false;
          if (offset >= block_.count) continue;
        }
        EnsureBlock(index_, kStartsField);
        offset = index_ - block_.first;
        uint32_t pos = offset + simd::LowerBoundGe(block_.starts.data() + offset,
                                                   block_.count - offset, bound);
        uint32_t passed = pos - offset;
        *scanned += passed;
        index_ = block_.first + pos;
        if (ck(passed > 0 ? passed : 1)) return true;
        if (pos < block_.count) return false;
      }
      return false;
    }
    while (index_ < size() && StartAt(index_) < bound) {
      ++index_;
      ++*scanned;
      if (ck(1)) return true;
    }
    return false;
  }

 private:
  /// Which SoA arrays of the current block hold decoded data. Delta pages
  /// decode everything in one pass (varints have no random access); fixed
  /// pages decode *lazily per field* — a pointer-jump landing that reads two
  /// labels must not pay for de-interleaving a whole page of records.
  enum BlockField : uint32_t {
    kStartsField = 1,
    kEndsField = 2,
    kLevelsField = 4,
    kPointersField = 8,
    kLabelFields = kStartsField | kEndsField | kLevelsField,
    kAllBlockFields = kLabelFields | kPointersField,
  };

  /// Point reads served straight off an undecoded fixed page before the
  /// cursor decodes it: sparse landings (pointer chasing) stay cheap, while
  /// a page that sees sustained traffic (sequential scans, repeated seeks)
  /// trips the decode and amortizes it over the rest of the page.
  static constexpr uint32_t kDecodeAfterPointReads = 16;

  struct Block {
    bool valid = false;      // first/count/pin describe the current page
    uint32_t fields = 0;     // BlockField bitmask of decoded arrays
    uint32_t point_reads = 0;  // direct reads on this page so far
    EntryIndex first = 0;
    uint32_t count = 0;
    std::vector<uint32_t> starts;    // label_count-strided, record-major
    std::vector<uint32_t> ends;
    std::vector<uint32_t> levels;
    std::vector<uint32_t> pointers;  // PointerSlots()-strided
  };

  /// Makes block_ describe (and pin_ hold) the page containing entry `i`,
  /// with at least the `wanted` BlockField arrays decoded. Landing on a
  /// delta page decodes everything; landing on a fixed page decodes nothing
  /// until a field is wanted. No-op when already satisfied.
  void EnsureBlock(EntryIndex i, uint32_t wanted) const;

  /// Queues background fetches for the pages after `page` (a page index
  /// within the list), up to the pool's read-ahead depth and clamped to the
  /// list's page span. Tracks the furthest page already queued so a cursor
  /// grinding through one page does not re-enqueue its successors.
  void MaybeReadAhead(uint32_t page) const;

  /// One uint32 field of the record at `offset` within the current *fixed*
  /// block, read straight off the pinned page (`byte_off` is the field's
  /// offset within the record). The undecoded point-read path.
  uint32_t FixedFieldAt(uint32_t offset, uint32_t byte_off) const {
    uint32_t value;
    std::memcpy(&value,
                pin_.data() +
                    static_cast<size_t>(offset) * list_->layout.RecordSize() +
                    byte_off,
                4);
    return value;
  }

  /// Fence-directed seek: gallop page fences, then binary-search one block.
  template <typename Ck>
  SeekOutcome FindFirstStartBlocks(uint32_t bound, uint64_t* probes,
                                   Ck&& ck) const {
    const uint32_t pages = list_->PageSpan();
    const uint32_t* fences = list_->page_first_start.data();
    const uint32_t from_page = list_->PageIndexOf(index_);
    // First page whose fence key is >= bound; the answer is on that page's
    // predecessor (its tail can still reach bound) or is its first entry.
    auto below = [&](uint32_t p) { return fences[p] < bound; };
    auto on_probe = [&] {
      ++*probes;
      return ck(1);
    };
    GallopResult fence = GallopLowerBound(from_page, pages, below, on_probe);
    if (fence.aborted) {
      // Pages before fence.pos-1 are wholly below the bound (their last
      // entry precedes the next fence key), so this seek skips only dead
      // entries even though the search was cut short.
      EntryIndex safe = fence.pos > from_page
                            ? list_->FirstEntryOfPage(fence.pos - 1)
                            : index_;
      return {std::max(index_, safe), true};
    }
    uint32_t page = fence.pos > from_page ? fence.pos - 1 : from_page;
    EnsureBlock(list_->FirstEntryOfPage(page), 0);
    ++*probes;  // the block's binary search touches one page
    if (ck(1)) return {std::max(index_, block_.first), true};
    uint32_t pos;
    if ((block_.fields & kStartsField) != 0) {
      pos = simd::LowerBoundGe(block_.starts.data(), block_.count, bound);
    } else {
      // Undecoded fixed page: a log2(n) strided binary search beats
      // de-interleaving the page for a single seek; repeated seeks against
      // the same page accumulate point reads and trip the decode.
      uint32_t lo = 0;
      uint32_t hi = block_.count;
      while (lo < hi) {
        uint32_t mid = lo + (hi - lo) / 2;
        if (FixedFieldAt(mid, 0) < bound) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      pos = lo;
      block_.point_reads += 8;  // ~the search's probe count
      if (block_.point_reads >= kDecodeAfterPointReads) {
        EnsureBlock(block_.first, kStartsField);
      }
    }
    EntryIndex found = pos < block_.count
                           ? block_.first + pos
                           : (page + 1 < pages
                                  ? list_->FirstEntryOfPage(page + 1)
                                  : size());
    return {std::max(index_, found), false};
  }

  /// Random-access field reads that do not move the cursor (probe reads).
  uint32_t StartAt(EntryIndex i) const;
  uint32_t EndAt(EntryIndex i) const;

  EntryIndex PointerAt(uint32_t slot) const {
    VJ_DCHECK(list_ != nullptr && list_->layout.has_pointers);
    EnsureBlock(index_, 0);
    if ((block_.fields & kPointersField) == 0) {
      // Fixed pages never SoA-decode pointers: each is read at most a
      // couple of times per record, so the direct read always wins.
      return FixedFieldAt(index_ - block_.first,
                          12 * list_->layout.label_count + 4 * slot);
    }
    uint32_t idx =
        (index_ - block_.first) * list_->layout.PointerSlots() + slot;
    return block_.pointers[idx];
  }

  const StoredList* list_ = nullptr;
  BufferPool* pool_ = nullptr;
  const xml::Label* mem_labels_ = nullptr;
  uint32_t mem_count_ = 0;
  EntryIndex index_ = 0;
  mutable BufferPool::PinnedPage pin_;
  mutable Block block_;
  mutable uint32_t prefetch_edge_ = 0;  // pages below this were already queued
};

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_STORED_LIST_H_
