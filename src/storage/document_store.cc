#include "storage/document_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "storage/list_codec.h"
#include "storage/manifest.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "xml/parser.h"

namespace viewjoin::storage {
namespace {

/// One parsed element, complete once its closing tag was seen — the unit
/// the spill runs are made of.
struct DocRecord {
  uint32_t tag = 0;
  uint32_t start = 0;
  uint32_t end = 0;
  uint32_t level = 0;
};

/// (tag, start) — the merge order that groups records into per-tag sorted
/// lists. Starts are unique, so the order is total.
bool TagOrder(const DocRecord& a, const DocRecord& b) {
  return a.tag != b.tag ? a.tag < b.tag : a.start < b.start;
}

std::string RunPath(const std::string& path, size_t run) {
  return path + ".run" + std::to_string(run);
}

/// Writes one sorted run to disk. Typed failure: a full disk (real ENOSPC or
/// the injected budget) is kResourceExhausted, so the build aborts as
/// resource exhaustion rather than corruption; a failed run never survives
/// on disk.
util::Status WriteRun(const std::string& run_path,
                      const std::vector<DocRecord>& recs) {
  if (util::FaultInjector::Global().OnDiskCharge(recs.size() *
                                                 sizeof(DocRecord))) {
    return util::Status::ResourceExhausted(
        "cannot write spill run " + run_path +
        ": no space left on device (injected)");
  }
  std::FILE* f = std::fopen(run_path.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::IoError("cannot create spill run " + run_path + ": " +
                                 std::strerror(errno));
  }
  errno = 0;
  size_t wrote = std::fwrite(recs.data(), sizeof(DocRecord), recs.size(), f);
  bool ok = wrote == recs.size() && std::fflush(f) == 0;
  int err = errno;
  std::fclose(f);
  if (!ok) {
    std::remove(run_path.c_str());
    if (err == ENOSPC) {
      return util::Status::ResourceExhausted("cannot write spill run " +
                                             run_path +
                                             ": no space left on device");
    }
    return util::Status::IoError("cannot write spill run " + run_path);
  }
  return util::Status::Ok();
}

/// Buffered sequential reader over one spill run.
class RunReader {
 public:
  static constexpr size_t kBatch = 512;  // records per refill (8 KiB)

  bool Open(const std::string& run_path) {
    file_ = std::fopen(run_path.c_str(), "rb");
    if (file_ == nullptr) return false;
    Refill();
    return true;
  }
  ~RunReader() {
    if (file_ != nullptr) std::fclose(file_);
  }

  bool exhausted() const { return pos_ >= buf_.size(); }
  const DocRecord& Peek() const { return buf_[pos_]; }
  void Next() {
    ++pos_;
    if (pos_ >= buf_.size() && !eof_) Refill();
  }

 private:
  void Refill() {
    buf_.resize(kBatch);
    size_t got = std::fread(buf_.data(), sizeof(DocRecord), kBatch, file_);
    buf_.resize(got);
    pos_ = 0;
    if (got < kBatch) eof_ = true;
  }

  std::FILE* file_ = nullptr;
  std::vector<DocRecord> buf_;
  size_t pos_ = 0;
  bool eof_ = false;
};

/// Merged record stream in TagOrder: either a single sorted in-memory
/// vector (no spill happened) or a k-way merge over sorted run files.
class RecordSource {
 public:
  /// In-memory source; `recs` must already be sorted by TagOrder.
  explicit RecordSource(const std::vector<DocRecord>* recs) : mem_(recs) {}

  /// Run-file source. `ok()` is false when a run failed to open.
  RecordSource(const std::string& path, size_t runs) {
    readers_.resize(runs);
    for (size_t r = 0; r < runs; ++r) {
      if (!readers_[r].Open(RunPath(path, r))) {
        ok_ = false;
        return;
      }
    }
  }

  bool ok() const { return ok_; }

  const DocRecord* Next() {
    if (mem_ != nullptr) {
      return mem_pos_ < mem_->size() ? &(*mem_)[mem_pos_++] : nullptr;
    }
    RunReader* best = nullptr;
    for (RunReader& r : readers_) {
      if (r.exhausted()) continue;
      if (best == nullptr || TagOrder(r.Peek(), best->Peek())) best = &r;
    }
    if (best == nullptr) return nullptr;
    current_ = best->Peek();
    best->Next();
    return &current_;
  }

 private:
  const std::vector<DocRecord>* mem_ = nullptr;
  size_t mem_pos_ = 0;
  std::vector<RunReader> readers_;
  DocRecord current_;
  bool ok_ = true;
};

/// ParseHandler that labels elements exactly as xml::Document does (same
/// position counter, same level convention, same first-seen tag interning)
/// and spills complete records into sorted runs under a memory budget.
class StoreBuilder : public xml::ParseHandler {
 public:
  StoreBuilder(const std::string& path, size_t budget_bytes) : path_(path) {
    // At least one page's worth of records per run keeps run counts sane
    // even under adversarially tiny budgets.
    size_t floor_records = Pager::kPageSize / sizeof(DocRecord);
    budget_records_ = std::max(budget_bytes / sizeof(DocRecord), floor_records);
  }

  bool StartElement(std::string_view name) override {
    DocRecord record;
    record.tag = Intern(name);
    record.start = next_pos_++;
    record.level = static_cast<uint32_t>(open_.size()) + 1;
    open_.push_back(record);
    return true;
  }

  bool EndElement() override {
    DocRecord record = open_.back();
    open_.pop_back();
    record.end = next_pos_++;
    buffer_.push_back(record);
    if (buffer_.size() >= budget_records_) return Spill();
    return true;
  }

  bool Text() override {
    ++next_pos_;
    return true;
  }

  /// True when a spill write failed (the abort reason when the parse stops);
  /// spill_status() carries the typed reason (ENOSPC vs generic I/O).
  bool spill_failed() const { return !spill_status_.ok(); }
  const util::Status& spill_status() const { return spill_status_; }
  size_t run_count() const { return runs_; }
  std::vector<std::string>& tag_names() { return tag_names_; }
  std::unordered_map<std::string, xml::TagId>& tag_ids() { return tag_ids_; }

  /// With runs on disk, flushes the in-memory tail as the final run, so
  /// TagSource() merges runs only.
  util::Status FinishInput() {
    if (runs_ > 0 && !buffer_.empty()) {
      if (!Spill()) return spill_status_;
    }
    return util::Status::Ok();
  }

  /// Everything parsed, in TagOrder. Call after FinishInput().
  std::unique_ptr<RecordSource> TagSource() {
    if (runs_ == 0) {
      std::sort(buffer_.begin(), buffer_.end(), TagOrder);
      return std::make_unique<RecordSource>(&buffer_);
    }
    return std::make_unique<RecordSource>(path_, runs_);
  }

  /// Removes every run file this builder created (idempotent).
  void RemoveRuns() {
    for (size_t r = 0; r < runs_; ++r) std::remove(RunPath(path_, r).c_str());
  }

 private:

  xml::TagId Intern(std::string_view name) {
    auto it = tag_ids_.find(std::string(name));
    if (it != tag_ids_.end()) return it->second;
    xml::TagId id = static_cast<xml::TagId>(tag_names_.size());
    tag_names_.emplace_back(name);
    tag_ids_.emplace(tag_names_.back(), id);
    return id;
  }

  /// Writes the buffer as one sorted run, then drops it. Returning false
  /// aborts the parse (ParseHandler contract).
  bool Spill() {
    std::sort(buffer_.begin(), buffer_.end(), TagOrder);
    spill_status_ = WriteRun(RunPath(path_, runs_), buffer_);
    if (!spill_status_.ok()) return false;
    ++runs_;
    buffer_.clear();
    return true;
  }

  std::string path_;
  size_t budget_records_;
  std::vector<DocRecord> buffer_;
  size_t runs_ = 0;
  util::Status spill_status_ = util::Status::Ok();

  std::vector<std::string> tag_names_;
  std::unordered_map<std::string, xml::TagId> tag_ids_;
  std::vector<DocRecord> open_;
  uint32_t next_pos_ = 1;
};

void EncodeLabelRecord(uint8_t* out, uint32_t start, uint32_t end,
                       uint32_t level) {
  std::memcpy(out, &start, 4);
  std::memcpy(out + 4, &end, 4);
  std::memcpy(out + 8, &level, 4);
}

}  // namespace

DocumentStore::~DocumentStore() {
  // The pool's read-ahead thread (if any) must stop before the pager goes.
  if (pool_ != nullptr) pool_->SetReadAhead(0);
}

util::Status DocumentStore::AttachPool(size_t pool_pages) {
  if (pool_pages == 0) {
    return util::Status::InvalidArgument(
        "document store: pool_pages must be >= 1");
  }
  pool_ = std::make_unique<BufferPool>(pager_.get(), pool_pages);
  return util::Status::Ok();
}

const StoredList* DocumentStore::ListOfTag(xml::TagId tag) const {
  if (tag >= lists_.size()) return &empty_list_;
  return &lists_[tag];
}

xml::TagId DocumentStore::FindTag(std::string_view name) const {
  auto it = tag_ids_.find(std::string(name));
  return it == tag_ids_.end() ? xml::kInvalidTag : it->second;
}

IoStats DocumentStore::Stats() const {
  IoStats stats = pager_->stats();
  stats.pool_hits = pool_->hits();
  stats.pool_misses = pool_->misses();
  stats.prefetch_issued = pool_->prefetch_issued();
  stats.prefetch_hits = pool_->prefetch_hits();
  stats.prefetch_wasted = pool_->prefetch_wasted();
  return stats;
}

void DocumentStore::ResetStats() {
  pager_->ResetStats();
  pool_->ResetStats();
}

namespace {

/// Encodes the (tag, start)-ordered stream into per-tag delta list pages,
/// one page written as soon as it fills, then commits the TOC. Shared by
/// the streaming and from-document builds.
util::Status EmitStore(const std::string& path, Pager* pager,
                       const std::vector<std::string>& tag_names,
                       RecordSource& tag_source,
                       std::vector<StoredList>* lists) {
  const RecordLayout label_layout{1, false, 0};
  lists->assign(tag_names.size(), StoredList{});
  for (StoredList& l : *lists) l.layout = label_layout;
  if (!tag_source.ok()) {
    return util::Status::IoError("document store: spill run unreadable");
  }

  std::vector<uint8_t> page;
  auto write_page = [&]() -> util::Status {
    auto id = pager->AllocatePage();
    if (!id.ok()) return id.status();
    return pager->WritePage(*id, page.data());
  };
  DeltaListEncoder encoder(label_layout);
  xml::TagId current = xml::kInvalidTag;
  auto close_tag = [&]() -> util::Status {
    if (current == xml::kInvalidTag) return util::Status::Ok();
    if (encoder.Finish(&page)) {
      util::Status s = write_page();
      if (!s.ok()) return s;
    }
    StoredList& list = (*lists)[current];
    list.count = encoder.count();
    list.page_first_entry = encoder.page_first_entry();
    list.page_first_start = encoder.page_first_start();
    return util::Status::Ok();
  };
  uint8_t rec_bytes[12];
  for (const DocRecord* rec = tag_source.Next(); rec != nullptr;
       rec = tag_source.Next()) {
    if (rec->tag != current) {
      util::Status s = close_tag();
      if (!s.ok()) return s;
      current = rec->tag;
      VJ_CHECK(current < lists->size());
      (*lists)[current].first_page = pager->page_count();
      encoder = DeltaListEncoder(label_layout);
    }
    EncodeLabelRecord(rec_bytes, rec->start, rec->end, rec->level);
    if (encoder.Add(rec_bytes, &page)) {
      util::Status s = write_page();
      if (!s.ok()) return s;
    }
  }
  util::Status s = close_tag();
  if (!s.ok()) return s;

  // Durability barrier, then the atomic commit point: data before TOC.
  s = pager->Sync();
  if (!s.ok()) return s;

  std::vector<ManifestViewRecord> records;
  records.reserve(tag_names.size());
  uint64_t epoch = 0;
  uint32_t pages_so_far = 0;
  for (size_t t = 0; t < tag_names.size(); ++t) {
    const StoredList& list = (*lists)[t];
    ManifestViewRecord rec;
    rec.epoch = ++epoch;
    rec.scheme = 0;  // Scheme::kElement — plain label lists
    rec.pattern = tag_names[t];
    rec.match_count = list.count;
    rec.size_bytes = static_cast<uint64_t>(list.PageSpan()) * Pager::kPageSize;
    pages_so_far = list.first_page == kInvalidPage
                       ? pages_so_far
                       : list.first_page + list.PageSpan();
    rec.page_count_after = pages_so_far;
    rec.list_lengths = {list.count};
    rec.lists = {list};
    records.push_back(std::move(rec));
  }
  return ManifestJournal::WriteCheckpoint(ManifestJournal::PathFor(path),
                                          records, {}, epoch);
}

}  // namespace

util::StatusOr<std::unique_ptr<DocumentStore>> DocumentStore::BuildFromText(
    const std::string& path, std::string_view xml, const Options& options) {
  // A stale TOC must never describe the file we are about to truncate.
  std::remove(ManifestJournal::PathFor(path).c_str());

  auto store = std::unique_ptr<DocumentStore>(new DocumentStore());
  store->path_ = path;
  store->pager_ = std::make_unique<Pager>(path, Pager::Mode::kPersist);
  if (!store->pager_->init_status().ok()) return store->pager_->init_status();

  StoreBuilder builder(path, options.parse_budget_bytes);
  xml::StreamResult parsed = xml::ParseStream(xml, &builder);
  auto abort = [&](util::Status status)
      -> util::StatusOr<std::unique_ptr<DocumentStore>> {
    builder.RemoveRuns();
    store->pager_->Close();
    std::remove(path.c_str());
    return status;
  };
  if (!parsed.ok) {
    if (builder.spill_failed()) {
      return abort(builder.spill_status());
    }
    return abort(util::Status::InvalidArgument(
        "parse error at offset " + std::to_string(parsed.error_offset) + ": " +
        parsed.error));
  }
  util::Status s = builder.FinishInput();
  if (!s.ok()) return abort(s);

  store->tag_names_ = std::move(builder.tag_names());
  store->tag_ids_ = std::move(builder.tag_ids());
  s = EmitStore(path, store->pager_.get(), store->tag_names_,
                *builder.TagSource(), &store->lists_);
  builder.RemoveRuns();
  if (!s.ok()) {
    store->pager_->Close();
    std::remove(path.c_str());
    std::remove(ManifestJournal::PathFor(path).c_str());
    return s;
  }
  s = store->AttachPool(options.pool_pages);
  if (!s.ok()) return s;
  return store;
}

util::StatusOr<std::unique_ptr<DocumentStore>> DocumentStore::Build(
    const std::string& path, const std::string& xml_path,
    const Options& options) {
  std::remove(ManifestJournal::PathFor(path).c_str());

  auto store = std::unique_ptr<DocumentStore>(new DocumentStore());
  store->path_ = path;
  store->pager_ = std::make_unique<Pager>(path, Pager::Mode::kPersist);
  if (!store->pager_->init_status().ok()) return store->pager_->init_status();

  StoreBuilder builder(path, options.parse_budget_bytes);
  xml::StreamResult parsed = xml::ParseFileStream(xml_path, &builder);
  auto abort = [&](util::Status status)
      -> util::StatusOr<std::unique_ptr<DocumentStore>> {
    builder.RemoveRuns();
    store->pager_->Close();
    std::remove(path.c_str());
    return status;
  };
  if (!parsed.ok) {
    if (builder.spill_failed()) {
      return abort(builder.spill_status());
    }
    if (parsed.error.rfind("cannot open file", 0) == 0) {
      return abort(util::Status::NotFound(parsed.error));
    }
    return abort(util::Status::InvalidArgument(
        "parse error at offset " + std::to_string(parsed.error_offset) + ": " +
        parsed.error));
  }
  util::Status s = builder.FinishInput();
  if (!s.ok()) return abort(s);

  store->tag_names_ = std::move(builder.tag_names());
  store->tag_ids_ = std::move(builder.tag_ids());
  s = EmitStore(path, store->pager_.get(), store->tag_names_,
                *builder.TagSource(), &store->lists_);
  builder.RemoveRuns();
  if (!s.ok()) {
    store->pager_->Close();
    std::remove(path.c_str());
    std::remove(ManifestJournal::PathFor(path).c_str());
    return s;
  }
  s = store->AttachPool(options.pool_pages);
  if (!s.ok()) return s;
  return store;
}

util::StatusOr<std::unique_ptr<DocumentStore>> DocumentStore::BuildFromDocument(
    const std::string& path, const xml::Document& doc, const Options& options) {
  std::remove(ManifestJournal::PathFor(path).c_str());

  auto store = std::unique_ptr<DocumentStore>(new DocumentStore());
  store->path_ = path;
  store->pager_ = std::make_unique<Pager>(path, Pager::Mode::kPersist);
  if (!store->pager_->init_status().ok()) return store->pager_->init_status();

  store->tag_names_.reserve(doc.TagCount());
  for (xml::TagId t = 0; t < doc.TagCount(); ++t) {
    store->tag_names_.push_back(doc.TagName(t));
    store->tag_ids_.emplace(store->tag_names_.back(), t);
  }

  // The document's per-tag streams are already sorted by start and hold
  // live nodes only: concatenated by tag they are the (tag, start) stream.
  std::vector<DocRecord> tag_stream;
  tag_stream.reserve(doc.LiveNodeCount());
  for (xml::TagId t = 0; t < doc.TagCount(); ++t) {
    for (xml::NodeId n : doc.NodesOfTag(t)) {
      const xml::Label& l = doc.NodeLabel(n);
      tag_stream.push_back(DocRecord{t, l.start, l.end, l.level});
    }
  }
  RecordSource source(&tag_stream);
  util::Status s = EmitStore(path, store->pager_.get(), store->tag_names_,
                             source, &store->lists_);
  if (!s.ok()) {
    store->pager_->Close();
    std::remove(path.c_str());
    std::remove(ManifestJournal::PathFor(path).c_str());
    return s;
  }
  s = store->AttachPool(options.pool_pages);
  if (!s.ok()) return s;
  return store;
}

util::StatusOr<std::unique_ptr<DocumentStore>> DocumentStore::Open(
    const std::string& path, const Options& options) {
  auto replay = ManifestJournal::Replay(ManifestJournal::PathFor(path));
  if (!replay.ok()) return replay.status();

  auto store = std::unique_ptr<DocumentStore>(new DocumentStore());
  store->path_ = path;
  store->pager_ = std::make_unique<Pager>(path, Pager::Mode::kReopen);
  if (!store->pager_->init_status().ok()) return store->pager_->init_status();
  const uint32_t page_count = store->pager_->page_count();

  for (const ManifestViewRecord& rec : replay->installed) {
    if (rec.lists.size() != 1) {
      return util::Status::Corruption(
          "document store record '" + rec.pattern + "' must hold one list");
    }
    const StoredList& list = rec.lists[0];
    if (!ListInRange(list, page_count)) {
      return util::Status::Corruption(
          "document store list '" + rec.pattern +
          "' has a malformed page directory or points past the pager file");
    }
    xml::TagId id = static_cast<xml::TagId>(store->tag_names_.size());
    if (!store->tag_ids_.emplace(rec.pattern, id).second) {
      return util::Status::Corruption("document store repeats tag '" +
                                      rec.pattern + "'");
    }
    store->tag_names_.push_back(rec.pattern);
    store->lists_.push_back(list);
  }
  util::Status s = store->AttachPool(options.pool_pages);
  if (!s.ok()) return s;
  return store;
}

}  // namespace viewjoin::storage
