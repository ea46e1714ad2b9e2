#include "storage/fsck.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "storage/list_codec.h"
#include "storage/manifest.h"

namespace viewjoin::storage {

FsckReport FsckPagerFile(const std::string& path) {
  FsckReport report;
  Pager pager(path, Pager::Mode::kReadOnly);
  report.file_status = pager.init_status();
  if (!report.file_status.ok()) return report;
  report.page_count = pager.page_count();
  std::vector<uint8_t> page(Pager::kPageSize);
  for (PageId id = 0; id < report.page_count; ++id) {
    util::Status status = pager.VerifyPage(id, page.data());
    if (!status.ok()) report.bad_pages.emplace_back(id, status);
  }
  return report;
}

namespace {

/// "list q spans [first, first+span) past durable prefix <n>" or empty.
void CheckViewRanges(const ManifestViewRecord& record, uint32_t durable,
                     std::vector<std::string>* bad) {
  auto check = [&](const StoredList& list, const char* what) {
    if (list.count == 0) return;
    if (list.first_page >= durable ||
        list.PageSpan() > durable - list.first_page) {
      bad->push_back("epoch " + std::to_string(record.epoch) + " (" +
                     record.pattern + "): " + what + " spans pages [" +
                     std::to_string(list.first_page) + ", " +
                     std::to_string(list.first_page + list.PageSpan()) +
                     ") past durable prefix " + std::to_string(durable));
    }
  };
  for (size_t q = 0; q < record.lists.size(); ++q) {
    check(record.lists[q], ("list " + std::to_string(q)).c_str());
  }
  check(record.tuple_list, "tuple list");
}

/// Verifies one stored list end to end: directory invariants, then a full
/// decode of every page with record counts and fence keys cross-checked
/// against the directory, and — with `sorted`, for element lists, which
/// hold distinct elements in document order — strictly increasing starts.
/// `pager` is the read-only page source; pages that fail their checksum are
/// skipped here (the page scan already reported them). Findings are
/// appended as "epoch <e> (<pattern>): <what> <problem>".
void CheckDeltaList(Pager& pager, const ManifestViewRecord& record,
                    const StoredList& list, const std::string& what,
                    bool sorted, std::vector<std::string>* bad) {
  auto report = [&](const std::string& problem) {
    bad->push_back("epoch " + std::to_string(record.epoch) + " (" +
                   record.pattern + "): " + what + " " + problem);
  };
  const size_t pages = list.page_first_entry.size();
  if (pages == 0 || list.page_first_entry.front() != 0 ||
      list.page_first_entry.back() >= list.count ||
      list.page_first_start.size() != pages) {
    report("has an inconsistent page directory");
    return;
  }
  for (size_t p = 1; p < pages; ++p) {
    if (list.page_first_entry[p] <= list.page_first_entry[p - 1] ||
        list.page_first_start[p] < list.page_first_start[p - 1]) {
      report("has a non-monotone page directory at slot " + std::to_string(p));
      return;
    }
  }
  const RecordLayout& layout = list.layout;
  if (!CheckLayoutFitsPage(layout).ok()) {
    report("has a record layout no page can hold");
    return;
  }
  std::vector<uint8_t> page(Pager::kPageSize);
  std::vector<uint32_t> starts, ends, levels, pointers;
  bool have_prev = false;
  uint32_t prev_start = 0;
  for (uint32_t p = 0; p < pages; ++p) {
    if (!pager.VerifyPage(list.first_page + p, page.data()).ok()) {
      have_prev = false;  // cannot order-check across a hole
      continue;
    }
    const uint32_t first = list.page_first_entry[p];
    const uint32_t expected = list.RecordsOnPage(p);
    starts.assign(static_cast<size_t>(expected) * layout.label_count, 0);
    ends.assign(starts.size(), 0);
    levels.assign(starts.size(), 0);
    pointers.assign(static_cast<size_t>(expected) * layout.PointerSlots(), 0);
    util::Status decoded = DecodeDeltaPage(
        page.data(), layout, first, expected, starts.data(), ends.data(),
        levels.data(), layout.has_pointers ? pointers.data() : nullptr);
    if (!decoded.ok()) {
      report("page " + std::to_string(p) + " fails delta decode: " +
             decoded.ToString());
      return;
    }
    if (starts[0] != list.page_first_start[p]) {
      report("page " + std::to_string(p) + " first start " +
             std::to_string(starts[0]) + " disagrees with fence key " +
             std::to_string(list.page_first_start[p]));
      return;
    }
    if (!sorted) continue;
    for (uint32_t r = 0; r < expected; ++r) {
      if (have_prev && starts[r] <= prev_start) {
        report("starts not strictly increasing at page " + std::to_string(p) +
               " record " + std::to_string(r));
        return;
      }
      prev_start = starts[r];
      have_prev = true;
    }
  }
}

}  // namespace

FsckCatalogReport FsckCatalog(const std::string& path) {
  FsckCatalogReport report;
  struct stat tmp_st;
  report.stale_checkpoint =
      ::stat(ManifestJournal::CheckpointTmpPath(ManifestJournal::PathFor(path))
                 .c_str(),
             &tmp_st) == 0;

  util::StatusOr<ManifestReplayResult> replayed =
      ManifestJournal::Replay(ManifestJournal::PathFor(path));
  report.manifest_status = replayed.status();
  report.pager = FsckPagerFile(path);

  if (!replayed.ok()) {
    // No journal to establish a durable prefix (bare pager file, or a
    // manifest without the journal header): the whole file is claimed, so
    // every bad page counts.
    report.corrupt_durable_pages =
        static_cast<uint32_t>(report.pager.bad_pages.size());
    return report;
  }

  const ManifestReplayResult& journal = *replayed;
  report.last_epoch = journal.last_epoch;
  report.max_epoch = journal.last_epoch;
  report.epoch_regressions = journal.epoch_regressions;
  report.rolled_back_update_batches = journal.rolled_back_update_batches;
  report.durable_page_count = journal.durable_page_count;
  report.journal_tail_torn = journal.tail_torn;
  report.pending_rebuild = journal.rolled_back.size();
  report.view_count = journal.installed.size();
  for (uint64_t epoch : journal.quarantined) {
    if (journal.replaced.find(epoch) == journal.replaced.end()) {
      ++report.quarantined_count;
    }
  }
  for (const ManifestViewRecord& record : journal.installed) {
    CheckViewRanges(record, journal.durable_page_count, &report.bad_views);
  }
  // A checksum-clean page can still carry a lying varint payload (truncated
  // stream, impossible deltas), which the page scan above cannot see.
  // Decode every page and cross-check the directory.
  if (report.pager.file_status.ok()) {
    Pager pager(path, Pager::Mode::kReadOnly);
    if (pager.init_status().ok()) {
      auto check = [&](const ManifestViewRecord& record,
                       const StoredList& list, const std::string& what,
                       bool sorted) {
        if (list.count == 0) return;
        ++report.compressed_lists_checked;
        CheckDeltaList(pager, record, list, what, sorted,
                       &report.bad_compressed_lists);
      };
      for (const ManifestViewRecord& record : journal.installed) {
        for (size_t q = 0; q < record.lists.size(); ++q) {
          check(record, record.lists[q], "list " + std::to_string(q), true);
        }
        check(record, record.tuple_list, "tuple list", false);
      }
    }
  }

  // Data file vs. durable prefix, from raw size — the pager rejects a file
  // with a partial page tail, but the journal still vouches for the prefix.
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    report.data_missing = journal.durable_page_count > 0;
    return report;
  }
  const int64_t expected =
      static_cast<int64_t>(Pager::kHeaderSize) +
      static_cast<int64_t>(journal.durable_page_count) *
          static_cast<int64_t>(Pager::kPhysicalPageSize);
  if (st.st_size < expected) {
    report.data_missing = true;
  } else if (st.st_size > expected) {
    const int64_t extra = st.st_size - expected;
    report.orphan_pages = static_cast<uint32_t>(
        extra / static_cast<int64_t>(Pager::kPhysicalPageSize));
    if (extra % static_cast<int64_t>(Pager::kPhysicalPageSize) != 0) {
      ++report.orphan_pages;
      report.pager_tail_partial = true;
    }
  }
  for (const auto& [page, status] : report.pager.bad_pages) {
    if (page < journal.durable_page_count) ++report.corrupt_durable_pages;
  }
  return report;
}

namespace {

/// Leftover "<base>.runN" spill files next to a document store —
/// artifacts of an interrupted streaming build.
std::vector<std::string> FindStrayRuns(const std::string& path) {
  std::string dir = ".";
  std::string base = path;
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    dir = path.substr(0, slash);
    base = path.substr(slash + 1);
  }
  std::vector<std::string> found;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return found;
  const std::string run_prefix = base + ".run";
  while (struct dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name.rfind(run_prefix, 0) == 0) found.push_back(dir + "/" + name);
  }
  ::closedir(d);
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

FsckDocStoreReport FsckDocumentStore(const std::string& path) {
  FsckDocStoreReport report;
  report.stray_runs = FindStrayRuns(path);

  struct stat st;
  const bool pager_exists = ::stat(path.c_str(), &st) == 0;
  util::StatusOr<ManifestReplayResult> replayed =
      ManifestJournal::Replay(ManifestJournal::PathFor(path));
  report.manifest_status = replayed.status();
  const bool manifest_exists =
      replayed.ok() ||
      replayed.status().code() != util::StatusCode::kNotFound;
  report.present = pager_exists || manifest_exists;
  if (!report.present) return report;
  report.pager = FsckPagerFile(path);

  if (!replayed.ok()) {
    // A pager file with no manifest is an aborted build: the manifest write
    // IS the commit point, so nothing vouches for these pages. Rebuild.
    report.orphan =
        replayed.status().code() == util::StatusCode::kNotFound && pager_exists;
    return report;
  }

  const ManifestReplayResult& journal = *replayed;
  report.durable_page_count = journal.durable_page_count;
  std::vector<std::string> tags;
  for (const ManifestViewRecord& record : journal.installed) {
    if (record.lists.size() != 1) {
      report.bad_lists.push_back(record.pattern + ": holds " +
                                 std::to_string(record.lists.size()) +
                                 " lists (document records hold exactly 1)");
      continue;
    }
    tags.push_back(record.pattern);
  }
  report.tag_count = tags.size();
  std::sort(tags.begin(), tags.end());
  for (size_t i = 1; i < tags.size(); ++i) {
    if (tags[i] == tags[i - 1]) {
      report.bad_lists.push_back(tags[i] + ": duplicate tag record");
    }
  }

  for (const ManifestViewRecord& record : journal.installed) {
    CheckViewRanges(record, journal.durable_page_count, &report.bad_lists);
  }
  if (report.pager.file_status.ok()) {
    Pager pager(path, Pager::Mode::kReadOnly);
    if (pager.init_status().ok()) {
      for (const ManifestViewRecord& record : journal.installed) {
        if (record.lists.size() != 1 || record.lists[0].count == 0) continue;
        CheckDeltaList(pager, record, record.lists[0], "tag list",
                       /*sorted=*/true, &report.bad_lists);
      }
    }
  }

  if (!pager_exists) {
    report.data_missing = journal.durable_page_count > 0;
    return report;
  }
  const int64_t expected =
      static_cast<int64_t>(Pager::kHeaderSize) +
      static_cast<int64_t>(journal.durable_page_count) *
          static_cast<int64_t>(Pager::kPhysicalPageSize);
  if (st.st_size < expected) report.data_missing = true;
  for (const auto& [page, status] : report.pager.bad_pages) {
    if (page < journal.durable_page_count) ++report.corrupt_durable_pages;
  }
  return report;
}

util::StatusOr<RecoveryReport> RepairCatalog(const std::string& path,
                                             size_t pool_pages) {
  util::StatusOr<std::unique_ptr<ViewCatalog>> opened =
      ViewCatalog::Open(path, pool_pages);
  if (!opened.ok()) return opened.status();
  ViewCatalog* catalog = opened->get();
  RecoveryReport recovery = catalog->recovery_report();
  // Checkpointing compacts the repaired journal to one record per live view,
  // so the next replay starts from a clean slate instead of re-walking the
  // crash's Begin/Install interleavings.
  util::Status checkpointed = catalog->Checkpoint();
  if (!checkpointed.ok()) return checkpointed;
  util::Status closed = catalog->Close();
  if (!closed.ok()) return closed;
  return recovery;
}

namespace {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

std::string JsonBool(bool b) { return b ? "true" : "false"; }

std::string JsonStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(items[i]);
  }
  out += "]";
  return out;
}

std::string BadPagesJson(
    const std::vector<std::pair<PageId, util::Status>>& bad_pages) {
  std::string out = "[";
  for (size_t i = 0; i < bad_pages.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"page\": " + std::to_string(bad_pages[i].first) +
           ", \"error\": " + JsonQuote(bad_pages[i].second.ToString()) + "}";
  }
  out += "]";
  return out;
}

}  // namespace

std::string ToJson(const FsckReport& report) {
  std::string out = "{\n";
  out += "  \"clean\": " + JsonBool(report.ok()) + ",\n";
  out += "  \"file_status\": " + JsonQuote(report.file_status.ToString()) +
         ",\n";
  out += "  \"page_count\": " + std::to_string(report.page_count) + ",\n";
  out += "  \"bad_pages\": " + BadPagesJson(report.bad_pages) + "\n";
  out += "}\n";
  return out;
}

std::string ToJson(const FsckCatalogReport& report) {
  std::string out = "{\n";
  out += "  \"clean\": " + JsonBool(report.clean()) + ",\n";
  out += "  \"corrupt\": " + JsonBool(report.corrupt()) + ",\n";
  out += "  \"repair_needed\": " + JsonBool(report.repair_needed()) + ",\n";
  out += "  \"pager\": {\n";
  out += "    \"file_status\": " +
         JsonQuote(report.pager.file_status.ToString()) + ",\n";
  out += "    \"page_count\": " + std::to_string(report.pager.page_count) +
         ",\n";
  out += "    \"bad_pages\": " + BadPagesJson(report.pager.bad_pages) + "\n";
  out += "  },\n";
  out += "  \"manifest_status\": " +
         JsonQuote(report.manifest_status.ToString()) + ",\n";
  out += "  \"last_epoch\": " + std::to_string(report.last_epoch) + ",\n";
  out += "  \"max_epoch\": " + std::to_string(report.max_epoch) + ",\n";
  out += "  \"epoch_regressions\": " +
         std::to_string(report.epoch_regressions) + ",\n";
  out += "  \"rolled_back_update_batches\": " +
         std::to_string(report.rolled_back_update_batches) + ",\n";
  out += "  \"durable_page_count\": " +
         std::to_string(report.durable_page_count) + ",\n";
  out += "  \"view_count\": " + std::to_string(report.view_count) + ",\n";
  out += "  \"quarantined_count\": " +
         std::to_string(report.quarantined_count) + ",\n";
  out += "  \"pending_rebuild\": " + std::to_string(report.pending_rebuild) +
         ",\n";
  out += "  \"journal_tail_torn\": " + JsonBool(report.journal_tail_torn) +
         ",\n";
  out += "  \"orphan_pages\": " + std::to_string(report.orphan_pages) + ",\n";
  out += "  \"pager_tail_partial\": " + JsonBool(report.pager_tail_partial) +
         ",\n";
  out += "  \"stale_checkpoint\": " + JsonBool(report.stale_checkpoint) +
         ",\n";
  out += "  \"corrupt_durable_pages\": " +
         std::to_string(report.corrupt_durable_pages) + ",\n";
  out += "  \"data_missing\": " + JsonBool(report.data_missing) + ",\n";
  out += "  \"bad_views\": " + JsonStringArray(report.bad_views) + ",\n";
  out += "  \"compressed_lists_checked\": " +
         std::to_string(report.compressed_lists_checked) + ",\n";
  out += "  \"bad_compressed_lists\": " +
         JsonStringArray(report.bad_compressed_lists) + "\n";
  out += "}\n";
  return out;
}

std::string ToJson(const FsckDocStoreReport& report) {
  std::string out = "{\n";
  out += "  \"present\": " + JsonBool(report.present) + ",\n";
  out += "  \"clean\": " + JsonBool(report.clean()) + ",\n";
  out += "  \"corrupt\": " + JsonBool(report.corrupt()) + ",\n";
  out += "  \"orphan\": " + JsonBool(report.orphan) + ",\n";
  out += "  \"pager\": {\n";
  out += "    \"file_status\": " +
         JsonQuote(report.pager.file_status.ToString()) + ",\n";
  out += "    \"page_count\": " + std::to_string(report.pager.page_count) +
         ",\n";
  out += "    \"bad_pages\": " + BadPagesJson(report.pager.bad_pages) + "\n";
  out += "  },\n";
  out += "  \"manifest_status\": " +
         JsonQuote(report.manifest_status.ToString()) + ",\n";
  out += "  \"tag_count\": " + std::to_string(report.tag_count) + ",\n";
  out += "  \"durable_page_count\": " +
         std::to_string(report.durable_page_count) + ",\n";
  out += "  \"corrupt_durable_pages\": " +
         std::to_string(report.corrupt_durable_pages) + ",\n";
  out += "  \"data_missing\": " + JsonBool(report.data_missing) + ",\n";
  out += "  \"bad_lists\": " + JsonStringArray(report.bad_lists) + ",\n";
  out += "  \"stray_runs\": " + JsonStringArray(report.stray_runs) + "\n";
  out += "}\n";
  return out;
}

}  // namespace viewjoin::storage
