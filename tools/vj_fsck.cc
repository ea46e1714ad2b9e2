// vj_fsck: offline integrity check for a ViewJoin pager file.
//
// When the file has a manifest journal sibling ("<file>.manifest"), the
// check is catalog-level: every page is scanned through the format-v2
// checksum verification AND the journal is replayed and cross-checked
// against the data file (durable prefix vs. file size, install-record page
// ranges, torn tails, a stale checkpoint tmp). A bare pager file without a
// manifest gets the page-level scan only.
//
// Document stores: --doc checks the given path as a paged base-document
// store (storage::DocumentStore) instead of a view catalog. Without --doc,
// a sibling "<file>.doc" store (the engine's disk doc-mode layout) is
// auto-detected and verified alongside the catalog.
//
// Backup images: a path that is a directory holding a backup.meta file (as
// produced by vj_backup / the server's hot backup) is auto-detected and gets
// the full image verification — meta checksum, per-file size + CRC32, every
// page of the copied pager files, manifest replay (exit 0 clean, 1 corrupt,
// 2 unreadable).
//
// Exit status follows the fsck convention so scripts can branch on the
// verdict:
//   0  the file is clean
//   1  the file was read but is corrupt (bad header, checksum, footer,
//      journal CRC mismatch, or journal/data inconsistency)
//   2  usage error, or the file could not be read at all (missing, I/O)
//   3  crash artifacts found (torn journal tail, uncommitted pages, a stale
//      checkpoint tmp, aborted doc-store builds) — recoverable;
//      with --repair they were repaired and the store is clean again
//   4  the BASE DOCUMENT store is corrupt (and the view catalog, if any, is
//      not) — a different failure domain: views rebuild from the document,
//      but a rotten document store must be rebuilt from the source XML.
//      When both are corrupt, view corruption (exit 1) wins.
//
//   $ ./build/tools/vj_fsck [--quiet] [--repair] [--json] [--doc] /path/to/views.db
//
// --json replaces the human-readable text with one JSON object on stdout
// (fields mirror storage::FsckCatalogReport / FsckDocStoreReport, plus the
// derived verdicts); exit codes are unchanged, so scripts can use either.

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "storage/backup.h"
#include "storage/fsck.h"

namespace {

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--quiet] [--repair] [--json] [--doc] <pager-file>\n",
               prog);
  return 2;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void PrintDocReport(const std::string& path,
                    const viewjoin::storage::FsckDocStoreReport& report) {
  for (const auto& [page, status] : report.pager.bad_pages) {
    std::printf("doc page %u: %s\n", page, status.ToString().c_str());
  }
  if (!report.manifest_status.ok()) {
    std::printf("doc manifest: %s\n",
                report.manifest_status.ToString().c_str());
  }
  if (report.orphan) {
    std::printf("doc store: pager file without manifest (aborted build)\n");
  }
  if (report.arena_missing) std::printf("doc store: node arena missing\n");
  if (report.data_missing) {
    std::printf("doc data file shorter than manifest's durable prefix "
                "(%u pages)\n",
                report.durable_page_count);
  }
  for (const std::string& bad : report.bad_lists) {
    std::printf("bad doc list: %s\n", bad.c_str());
  }
  for (const std::string& run : report.stray_runs) {
    std::printf("stray spill run: %s\n", run.c_str());
  }
  std::printf("%s: %zu tag list(s), %llu node(s), %u durable page(s), %u bad\n",
              path.c_str(), report.tag_count,
              static_cast<unsigned long long>(report.node_count),
              report.durable_page_count, report.corrupt_durable_pages);
}

/// Exit code of a doc-store check in isolation: 0 clean, 4 corrupt,
/// 3 crash artifacts (rebuildable), 2 unreadable/absent.
int DocExitCode(const viewjoin::storage::FsckDocStoreReport& report) {
  if (!report.present) return 2;
  if (report.corrupt()) return 4;
  if (report.orphan || !report.stray_runs.empty()) return 3;
  if (!report.pager.file_status.ok() || !report.manifest_status.ok()) return 2;
  return report.clean() ? 0 : 4;
}

/// Merges a catalog verdict with the sibling doc-store verdict. View
/// corruption (1) outranks everything; doc corruption (4) next; then
/// unreadable (2); crash artifacts (3) only win over clean.
int CombineExit(int view_exit, int doc_exit) {
  auto rank = [](int e) {
    switch (e) {
      case 1: return 4;
      case 4: return 3;
      case 2: return 2;
      case 3: return 1;
      default: return 0;
    }
  };
  return rank(view_exit) >= rank(doc_exit) ? view_exit : doc_exit;
}

/// Strips trailing newlines so a report can be embedded in a wrapper object.
std::string TrimmedJson(std::string json) {
  while (!json.empty() && json.back() == '\n') json.pop_back();
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  bool quiet = false;
  bool repair = false;
  bool json = false;
  bool doc = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quiet") == 0 || std::strcmp(argv[i], "-q") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--repair") == 0) {
      repair = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--doc") == 0) {
      doc = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return Usage(argv[0]);
    } else if (path.empty()) {
      path = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (path.empty()) return Usage(argv[0]);

  using viewjoin::util::StatusCode;

  if (viewjoin::storage::IsBackupImageDir(path)) {
    // Backup image directory: full image verification instead of the live
    // store checks (the image's own store/manifest files are covered by it).
    viewjoin::util::StatusOr<viewjoin::storage::BackupReport> verified =
        viewjoin::storage::VerifyBackupImage(path);
    if (!verified.ok()) {
      if (json) {
        std::printf("{\"backup_image\": \"%s\", \"clean\": false}\n",
                    path.c_str());
      } else if (!quiet) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     verified.status().ToString().c_str());
      }
      return verified.status().code() == StatusCode::kCorruption ? 1 : 2;
    }
    if (json) {
      std::printf("{\"backup_image\": %s, \"clean\": true}\n",
                  verified->ToJson().c_str());
    } else if (!quiet) {
      std::printf("%s: backup image clean — epoch %llu, %u view page(s), "
                  "%zu file(s)%s\n",
                  path.c_str(),
                  static_cast<unsigned long long>(verified->epoch),
                  verified->view_page_count, verified->files.size(),
                  verified->has_doc_store ? ", doc store" : "");
    }
    return 0;
  }

  if (doc) {
    // Explicit doc-store mode: the path IS the store's pager file. There is
    // no --repair path — a rotten store is rebuilt from the source XML (the
    // engine does this automatically on the next disk-mode open).
    if (repair) {
      std::fprintf(stderr,
                   "--repair ignored: document stores are rebuilt from the "
                   "source XML, not repaired\n");
    }
    viewjoin::storage::FsckDocStoreReport report =
        viewjoin::storage::FsckDocumentStore(path);
    if (json) {
      std::fputs(viewjoin::storage::ToJson(report).c_str(), stdout);
    } else if (!quiet) {
      if (!report.present) {
        std::fprintf(stderr, "%s: no document store\n", path.c_str());
      } else {
        PrintDocReport(path, report);
      }
    }
    return DocExitCode(report);
  }

  const std::string manifest =
      viewjoin::storage::ManifestJournal::PathFor(path);
  if (!FileExists(manifest)) {
    // Bare pager file (a spill spool, a scratch store): page-level scan only,
    // exactly the historical vj_fsck behavior. --repair has nothing to do —
    // there is no journal to roll back from.
    viewjoin::storage::FsckReport report =
        viewjoin::storage::FsckPagerFile(path);
    if (json) {
      std::fputs(viewjoin::storage::ToJson(report).c_str(), stdout);
      if (!report.file_status.ok()) {
        return report.file_status.code() == StatusCode::kCorruption ? 1 : 2;
      }
      return report.ok() ? 0 : 1;
    }
    if (!report.file_status.ok()) {
      if (!quiet) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     report.file_status.ToString().c_str());
      }
      // A file whose bytes validate as *wrong* is corrupt (exit 1); a file we
      // could not read at all is an environment problem (exit 2).
      return report.file_status.code() == StatusCode::kCorruption ? 1 : 2;
    }
    if (!quiet) {
      for (const auto& [page, status] : report.bad_pages) {
        std::printf("page %u: %s\n", page, status.ToString().c_str());
      }
      std::printf("%s: %u pages, %zu bad\n", path.c_str(), report.page_count,
                  report.bad_pages.size());
    }
    return report.ok() ? 0 : 1;
  }

  viewjoin::storage::FsckCatalogReport report =
      viewjoin::storage::FsckCatalog(path);

  // The engine's disk doc-mode keeps its paged base document in a sibling
  // "<path>.doc" store; verify it alongside the catalog when present.
  const std::string doc_path = path + ".doc";
  const bool have_doc =
      FileExists(doc_path) ||
      FileExists(viewjoin::storage::ManifestJournal::PathFor(doc_path));
  viewjoin::storage::FsckDocStoreReport doc_report;
  if (have_doc) doc_report = viewjoin::storage::FsckDocumentStore(doc_path);
  const int doc_exit = have_doc ? DocExitCode(doc_report) : 0;

  if (json) {
    if (have_doc) {
      std::string out = "{\"catalog\": ";
      out += TrimmedJson(viewjoin::storage::ToJson(report));
      out += ",\n\"doc_store\": ";
      out += TrimmedJson(viewjoin::storage::ToJson(doc_report));
      out += "}\n";
      std::fputs(out.c_str(), stdout);
    } else {
      std::fputs(viewjoin::storage::ToJson(report).c_str(), stdout);
    }
    // The exit-code ladder below still applies (it only prints when !quiet,
    // and --json implies quiet for the text renderer).
    quiet = true;
  }

  if (!quiet && !json) {
    for (const auto& [page, status] : report.pager.bad_pages) {
      const char* where =
          page >= report.durable_page_count ? " (orphan)" : "";
      std::printf("page %u%s: %s\n", page, where, status.ToString().c_str());
    }
    if (!report.manifest_status.ok()) {
      std::printf("manifest: %s\n", report.manifest_status.ToString().c_str());
    }
    if (report.journal_tail_torn) std::printf("manifest: torn tail\n");
    if (report.data_missing) {
      std::printf("data file shorter than journal's durable prefix (%u pages)\n",
                  report.durable_page_count);
    }
    for (const std::string& bad : report.bad_views) {
      std::printf("bad view: %s\n", bad.c_str());
    }
    for (const std::string& bad : report.bad_compressed_lists) {
      std::printf("bad compressed list: %s\n", bad.c_str());
    }
    if (report.orphan_pages > 0) {
      std::printf("%u uncommitted page(s) past durable prefix%s\n",
                  report.orphan_pages,
                  report.pager_tail_partial ? " (partial tail)" : "");
    }
    if (report.stale_checkpoint) {
      std::printf("stale checkpoint: %s\n",
                  viewjoin::storage::ManifestJournal::CheckpointTmpPath(
                      viewjoin::storage::ManifestJournal::PathFor(path))
                      .c_str());
    }
    std::printf("%s: %zu view(s), %zu quarantined, epoch %llu, "
                "%u durable page(s), %u bad, %zu compressed list(s) verified\n",
                path.c_str(), report.view_count, report.quarantined_count,
                static_cast<unsigned long long>(report.last_epoch),
                report.durable_page_count, report.corrupt_durable_pages,
                report.compressed_lists_checked);
    if (have_doc) PrintDocReport(doc_path, doc_report);
  }

  if (report.corrupt()) {
    // Checksum-bad committed pages or journal rot: the backing bytes are
    // gone, not merely uncommitted. --repair refuses — rebuild the affected
    // views from the source document instead.
    if (!quiet && repair) {
      std::fprintf(stderr, "%s: corrupt (not repairable offline)\n",
                   path.c_str());
    }
    return 1;
  }
  if (!report.repair_needed()) {
    // An unreadable-but-not-corrupt store (e.g. missing data file with an
    // empty journal) is an environment problem.
    if (!report.manifest_status.ok() || !report.pager.file_status.ok()) {
      return CombineExit(2, doc_exit);
    }
    return CombineExit(0, doc_exit);
  }

  if (!repair) return CombineExit(3, doc_exit);

  viewjoin::util::StatusOr<viewjoin::storage::RecoveryReport> repaired =
      viewjoin::storage::RepairCatalog(path);
  if (!repaired.ok()) {
    if (!quiet) {
      std::fprintf(stderr, "repair failed: %s\n",
                   repaired.status().ToString().c_str());
    }
    return 2;
  }
  if (!quiet) {
    std::printf("repaired: %s%s%u orphan page(s) truncated, "
                "%zu view(s) pending rebuild\n",
                repaired->journal_tail_truncated ? "journal tail truncated, "
                                                 : "",
                repaired->stale_checkpoint_removed
                    ? "stale checkpoint removed, "
                    : "",
                repaired->orphan_pages_truncated,
                repaired->pending_rebuild.size());
  }
  return CombineExit(3, doc_exit);
}
