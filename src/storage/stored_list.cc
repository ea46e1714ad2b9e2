#include "storage/stored_list.h"

#include <algorithm>

#include "storage/list_codec.h"

namespace viewjoin::storage {

bool ListInRange(const StoredList& list, uint32_t pages) {
  if (list.count == 0) return true;
  if (!CheckLayoutFitsPage(list.layout).ok()) return false;
  const size_t span = list.page_first_entry.size();
  if (span == 0 || list.page_first_start.size() != span ||
      list.page_first_entry.front() != 0 ||
      list.page_first_entry.back() >= list.count) {
    return false;
  }
  for (size_t p = 1; p < span; ++p) {
    if (list.page_first_entry[p] <= list.page_first_entry[p - 1] ||
        list.page_first_start[p] < list.page_first_start[p - 1]) {
      return false;
    }
  }
  return list.first_page != kInvalidPage && list.first_page < pages &&
         span <= pages - list.first_page;
}

void ListCursor::EnsureBlock(EntryIndex i) const {
  VJ_DCHECK(list_ != nullptr && i < list_->count);
  if (block_.valid && i >= block_.first && i < block_.first + block_.count) {
    return;
  }
  const RecordLayout& layout = list_->layout;
  const uint32_t slots = layout.PointerSlots();
  const uint32_t page = list_->PageIndexOf(i);
  block_.first = list_->FirstEntryOfPage(page);
  block_.count = list_->RecordsOnPage(page);
  block_.valid = true;
  pin_ = pool_->GetPage(list_->first_page + page);
  MaybeReadAhead(page);
  const uint32_t n = block_.count;
  block_.starts.resize(static_cast<size_t>(n) * layout.label_count);
  block_.ends.resize(static_cast<size_t>(n) * layout.label_count);
  block_.levels.resize(static_cast<size_t>(n) * layout.label_count);
  block_.pointers.resize(static_cast<size_t>(n) * slots);
  bool ok = DecodeDeltaPage(pin_.data(), layout, block_.first, n,
                            block_.starts.data(), block_.ends.data(),
                            block_.levels.data(),
                            slots > 0 ? block_.pointers.data() : nullptr)
                .ok();
  if (!ok) {
    // Failed decode (a poison page, or a torn/corrupt one): present sentinel
    // records. Cursors keep working; the sentinel labels join nothing and
    // the catalog's checksum/scrub machinery owns the actual fault handling.
    std::fill(block_.starts.begin(), block_.starts.end(), 0xFFFFFFFFu);
    std::fill(block_.ends.begin(), block_.ends.end(), 0xFFFFFFFFu);
    std::fill(block_.levels.begin(), block_.levels.end(), 0u);
    std::fill(block_.pointers.begin(), block_.pointers.end(), kNullEntry);
  }
}

void ListCursor::MaybeReadAhead(uint32_t page) const {
  const size_t depth = pool_->read_ahead_depth();
  if (depth == 0) return;
  const uint32_t pages = list_->PageSpan();
  uint32_t end = page + 1 + static_cast<uint32_t>(depth);
  if (end > pages) end = pages;
  for (uint32_t p = std::max(page + 1, prefetch_edge_); p < end; ++p) {
    pool_->Prefetch(list_->first_page + p);
  }
  if (end > prefetch_edge_) prefetch_edge_ = end;
}

uint32_t ListCursor::StartAt(EntryIndex i) const {
  if (mem_labels_ != nullptr) return mem_labels_[i].start;
  EnsureBlock(i);
  return block_.starts[(i - block_.first) * list_->layout.label_count];
}

uint32_t ListCursor::EndAt(EntryIndex i) const {
  if (mem_labels_ != nullptr) return mem_labels_[i].end;
  EnsureBlock(i);
  return block_.ends[(i - block_.first) * list_->layout.label_count];
}

}  // namespace viewjoin::storage
