#include "storage/stored_list.h"

#include <algorithm>
#include <cstring>

#include "storage/list_codec.h"

namespace viewjoin::storage {

void ListCursor::EnsureBlock(EntryIndex i, uint32_t wanted) const {
  VJ_DCHECK(list_ != nullptr && i < list_->count);
  const RecordLayout& layout = list_->layout;
  const uint32_t slots = layout.PointerSlots();
  if (!(block_.valid && i >= block_.first && i < block_.first + block_.count)) {
    // Land on the page holding `i`. Fixed pages decode nothing yet; delta
    // pages decode everything (varints have no random access).
    const uint32_t page = list_->PageIndexOf(i);
    block_.first = list_->FirstEntryOfPage(page);
    block_.count = list_->RecordsOnPage(page);
    block_.fields = 0;
    block_.point_reads = 0;
    block_.valid = true;
    pin_ = pool_->GetPage(list_->first_page + page);
    MaybeReadAhead(page);
    if (list_->format == ListFormat::kDelta) {
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
        // Failed delta decode (torn/corrupt page): present sentinel records,
        // mirroring what a poison page yields under the fixed format.
        // Cursors keep working; the sentinel labels join nothing and the
        // catalog's checksum/scrub machinery owns the actual fault handling.
        std::fill(block_.starts.begin(), block_.starts.end(), 0xFFFFFFFFu);
        std::fill(block_.ends.begin(), block_.ends.end(), 0xFFFFFFFFu);
        std::fill(block_.levels.begin(), block_.levels.end(), 0u);
        std::fill(block_.pointers.begin(), block_.pointers.end(), kNullEntry);
      }
      block_.fields = kAllBlockFields;
      return;
    }
  }
  uint32_t missing = wanted & ~block_.fields;
  if (missing == 0) return;
  // De-interleave the requested field classes of the fixed page into their
  // SoA arrays — one strided pass per array, only for arrays actually
  // wanted. A poison page (pool read failure) is 0xFF-filled, which these
  // passes faithfully decode into 0xFFFFFFFF sentinels.
  const uint8_t* payload = pin_.data();
  const uint32_t record_size = layout.RecordSize();
  const uint32_t n = block_.count;
  const size_t label_values = static_cast<size_t>(n) * layout.label_count;
  for (uint32_t field = kStartsField; field <= kLevelsField; field <<= 1) {
    if ((missing & field) == 0) continue;
    std::vector<uint32_t>& out = field == kStartsField ? block_.starts
                                 : field == kEndsField ? block_.ends
                                                       : block_.levels;
    const uint32_t base =
        field == kStartsField ? 0u : field == kEndsField ? 4u : 8u;
    out.resize(label_values);
    for (uint32_t r = 0; r < n; ++r) {
      const uint8_t* rec = payload + static_cast<size_t>(r) * record_size;
      for (uint32_t k = 0; k < layout.label_count; ++k) {
        std::memcpy(&out[r * layout.label_count + k], rec + 12 * k + base, 4);
      }
    }
  }
  if ((missing & kPointersField) != 0 && slots > 0) {
    block_.pointers.resize(static_cast<size_t>(n) * slots);
    for (uint32_t r = 0; r < n; ++r) {
      const uint8_t* rec = payload + static_cast<size_t>(r) * record_size;
      for (uint32_t s = 0; s < slots; ++s) {
        std::memcpy(&block_.pointers[r * slots + s],
                    rec + 12 * layout.label_count + 4 * s, 4);
      }
    }
  }
  block_.fields |= wanted;
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
  EnsureBlock(i, 0);
  if ((block_.fields & kStartsField) != 0) {
    return block_.starts[(i - block_.first) * list_->layout.label_count];
  }
  return FixedFieldAt(i - block_.first, 0);
}

uint32_t ListCursor::EndAt(EntryIndex i) const {
  if (mem_labels_ != nullptr) return mem_labels_[i].end;
  EnsureBlock(i, 0);
  if ((block_.fields & kEndsField) != 0) {
    return block_.ends[(i - block_.first) * list_->layout.label_count];
  }
  return FixedFieldAt(i - block_.first, 4);
}

}  // namespace viewjoin::storage
