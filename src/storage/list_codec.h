#ifndef VIEWJOIN_STORAGE_LIST_CODEC_H_
#define VIEWJOIN_STORAGE_LIST_CODEC_H_

#include <cstdint>
#include <vector>

#include "storage/stored_list.h"
#include "util/status.h"

namespace viewjoin::storage {

/// Prefix/delta varint codec for list pages — the one on-page format of
/// every stored list (view lists and document-store tag lists alike).
///
/// Page payload layout (within the pager's 4096-byte logical page):
///
///   u16 record_count | u16 flags (reserved, 0)
///   then per record, per label k in [0, label_count):
///     varint zigzag(start - prev_start)   prev_start resets to 0 per page
///     varint (end - start)                region labels have end >= start
///     varint level
///   then, if the layout has pointers, per slot (follow, desc, child[0..m)):
///     varint 0                            for kNullEntry
///     varint zigzag(ptr - record_index)+1 otherwise (pointers land near
///                                         their origin, so deltas are small)
///
/// `prev_start` threads through *all* labels on the page in stream order
/// (across records and across a tuple's intra-record labels), resetting at
/// each page boundary so any page decodes independently. Starts are
/// document-ordered across records but a tuple's later labels can precede
/// the next record's first label, hence zigzag rather than unsigned deltas.
///
/// Records never span pages; a page holds a variable number of whole
/// records, so delta lists carry a page directory (first entry index + first
/// start per page) in the StoredList metadata for random access.

/// One encoded list: page payloads (each exactly Pager::kPageSize bytes)
/// plus the per-page directory.
struct DeltaEncoded {
  std::vector<std::vector<uint8_t>> pages;
  std::vector<uint32_t> page_first_entry;  // entry index of each page's first record
  std::vector<uint32_t> page_first_start;  // label 0 start of that record (fence key)
};

/// The record-width guard: InvalidArgument (naming the pattern fan-out)
/// when one worst-case record of `layout` could not fit a page. Wide
/// fan-out patterns grow LE records by one child pointer per pc/ad child.
util::Status CheckLayoutFitsPage(const RecordLayout& layout);

/// Streaming encoder: records arrive one at a time and each page is handed
/// back as soon as the next record no longer fits it, so a long list is
/// encoded holding one page rather than the whole list. The page directory
/// accumulates as pages open.
class DeltaListEncoder {
 public:
  /// `layout` must pass CheckLayoutFitsPage.
  explicit DeltaListEncoder(const RecordLayout& layout) : layout_(layout) {}

  /// Appends record number count() (one flat record of the layout). Returns
  /// true when the open page had to be closed first; it is then in *closed.
  bool Add(const uint8_t* rec, std::vector<uint8_t>* closed);
  /// Closes the open page into *closed; false when it holds no record.
  bool Finish(std::vector<uint8_t>* closed);

  uint32_t count() const { return count_; }
  const std::vector<uint32_t>& page_first_entry() const { return first_entry_; }
  const std::vector<uint32_t>& page_first_start() const { return first_start_; }

 private:
  void ClosePage(std::vector<uint8_t>* closed);

  RecordLayout layout_;
  std::vector<uint8_t> body_;     // encoded records of the open page
  std::vector<uint8_t> scratch_;  // one speculatively encoded record
  uint32_t page_records_ = 0;
  uint32_t prev_start_ = 0;
  uint32_t count_ = 0;
  std::vector<uint32_t> first_entry_;
  std::vector<uint32_t> first_start_;
};

/// Encodes `count` records of the materializer's flat blob into delta
/// pages. Fails with CheckLayoutFitsPage's error.
util::StatusOr<DeltaEncoded> EncodeDeltaList(const uint8_t* records,
                                             uint32_t count,
                                             const RecordLayout& layout);

/// Decodes one delta page into struct-of-arrays scratch. `starts`/`ends`/
/// `levels` receive label_count * expected_records values (record-major);
/// `pointers` receives (2 + child_count) * expected_records entry indexes
/// when the layout has pointers (pass nullptr otherwise). `first_entry` is
/// the page's first record index (pointer deltas are relative to absolute
/// record indexes). Corruption when the payload disagrees with
/// `expected_records` or a varint runs past the page.
util::Status DecodeDeltaPage(const uint8_t* payload, const RecordLayout& layout,
                       uint32_t first_entry, uint32_t expected_records,
                       uint32_t* starts, uint32_t* ends, uint32_t* levels,
                       uint32_t* pointers);

/// Worst-case encoded size of one record — the page-fit guard bound.
uint32_t MaxEncodedRecordSize(const RecordLayout& layout);

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_LIST_CODEC_H_
